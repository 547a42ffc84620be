import math
import os
import stat

import numpy as np
import pytest

from adalam import (
    ImageSize,
    KeypointSet,
    MatchSet,
    ParseError,
    read_errors,
    read_keypoints,
    read_matches,
    write_keypoints,
    write_matches,
)

SIZE = ImageSize(640, 480)


def make_keypoints(n, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return KeypointSet(
        xy=rng.uniform(0, 600, size=(n, 2)),
        sigma=np.exp(rng.uniform(-1, 1, size=n)),
        alpha=rng.uniform(-math.pi + 1e-9, math.pi, size=n),
        desc=rng.normal(size=(n, dim)),
    )


def make_matches(m, seed=0):
    rng = np.random.default_rng(seed)
    return MatchSet(
        idx1=rng.permutation(m).astype(np.int64),
        idx2=rng.integers(0, 2 * m, size=m),
        dist=rng.uniform(0, 2, size=m),
        ratio=rng.uniform(0, 1, size=m),
    )


class TestKeypointRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "kp.txt"
        kps = make_keypoints(25)
        write_keypoints(path, SIZE, kps)
        size, got = read_keypoints(path)
        assert size == SIZE
        assert np.allclose(got.xy, kps.xy, rtol=1e-8)
        assert np.allclose(got.sigma, kps.sigma, rtol=1e-8)
        assert np.allclose(got.alpha, kps.alpha, rtol=1e-8)
        assert np.allclose(got.desc, kps.desc, rtol=1e-8)

    def test_write_is_deterministic(self, tmp_path):
        kps = make_keypoints(10)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_keypoints(a, SIZE, kps)
        write_keypoints(b, SIZE, kps)
        assert a.read_bytes() == b.read_bytes()

    def test_header_contents(self, tmp_path):
        path = tmp_path / "kp.txt"
        write_keypoints(path, SIZE, make_keypoints(3, dim=5))
        head = path.read_text().splitlines()[0].split()
        assert head == ["ADALAM-KP", "1", "3", "5", "640", "480"]

    def test_count_mismatch_reported_past_last_line(self, tmp_path):
        path = tmp_path / "kp.txt"
        write_keypoints(path, SIZE, make_keypoints(5, dim=2))
        lines = path.read_text().splitlines()
        head = lines[0].split()
        head[2] = "5"
        broken = "\n".join([" ".join(head)] + lines[1:5]) + "\n"
        path.write_text(broken)  # 5 declared, 4 present
        with pytest.raises(ParseError, match=r"kp\.txt:6:"):
            read_keypoints(path)

    def test_extra_rows_rejected(self, tmp_path):
        path = tmp_path / "kp.txt"
        write_keypoints(path, SIZE, make_keypoints(3, dim=2))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(ParseError, match=":5:"):
            read_keypoints(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "kp.txt"
        path.write_text("")
        with pytest.raises(ParseError, match=":1:"):
            read_keypoints(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "kp.txt"
        path.write_text("NOPE 1 0 2 10 10\n")
        with pytest.raises(ParseError, match=":1:"):
            read_keypoints(path)

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "kp.txt"
        path.write_text("ADALAM-KP 1 1 2 10 10\n1 2 1 0 nan 0\n")
        with pytest.raises(ParseError, match=":2:"):
            read_keypoints(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "kp.txt"
        path.write_text("ADALAM-KP 1 1 2 10 10\n1 2 1 0 x 0\n")
        with pytest.raises(ParseError, match="non-numeric"):
            read_keypoints(path)

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "kp.txt"
        path.write_text("ADALAM-KP 1 1 2 10 10\n\n1 2 1 0 0.5 0.5\n\n")
        size, kps = read_keypoints(path)
        assert len(kps) == 1

    def test_angles_wrapped_on_write(self, tmp_path):
        path = tmp_path / "kp.txt"
        kps = make_keypoints(1, dim=2)
        write_keypoints(path, SIZE, kps)
        _, got = read_keypoints(path)
        assert -math.pi < got.alpha[0] <= math.pi

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_keypoints(tmp_path / "nope.txt")

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "out" / "kp.txt"
        with pytest.raises(OSError):
            write_keypoints(target, SIZE, make_keypoints(2))
        assert not target.exists()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_output_mode_follows_umask(self, tmp_path, umask, mode):
        kp, mt = tmp_path / "kp.txt", tmp_path / "mt.txt"
        old = os.umask(umask)
        try:
            write_keypoints(kp, SIZE, make_keypoints(2))
            write_matches(mt, make_matches(2))
        finally:
            os.umask(old)
        assert stat.S_IMODE(kp.stat().st_mode) == mode
        assert stat.S_IMODE(mt.stat().st_mode) == mode


class TestMatchRoundTrip:
    def test_round_trip_without_gt(self, tmp_path):
        path = tmp_path / "mt.txt"
        m = make_matches(30)
        write_matches(path, m)
        got, gt = read_matches(path)
        assert gt is None
        assert np.array_equal(got.idx1, m.idx1)
        assert np.array_equal(got.idx2, m.idx2)
        assert np.allclose(got.dist, m.dist, rtol=1e-8)
        assert np.allclose(got.ratio, m.ratio, rtol=1e-8)

    def test_round_trip_with_gt(self, tmp_path):
        path = tmp_path / "mt.txt"
        m = make_matches(20, seed=1)
        gt = np.random.default_rng(2).uniform(size=20) < 0.5
        write_matches(path, m, gt=gt)
        got, gt2 = read_matches(path)
        assert np.array_equal(gt2, gt)
        assert path.read_text().splitlines()[0] == "ADALAM-MT 1 20 1"

    def test_gt_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_matches(tmp_path / "mt.txt", make_matches(3), gt=np.zeros(2, bool))

    def test_count_mismatch_line_number(self, tmp_path):
        path = tmp_path / "mt.txt"
        path.write_text("ADALAM-MT 1 2 0\n0 1 0.5 0.5\n")
        with pytest.raises(ParseError, match=":3:"):
            read_matches(path)

    def test_bad_gt_flag(self, tmp_path):
        path = tmp_path / "mt.txt"
        path.write_text("ADALAM-MT 1 1 1\n0 1 0.5 0.5 2\n")
        with pytest.raises(ParseError, match=":2:"):
            read_matches(path)

    def test_duplicate_idx1_rejected(self, tmp_path):
        path = tmp_path / "mt.txt"
        path.write_text("ADALAM-MT 1 2 0\n0 1 0.5 0.5\n0 2 0.5 0.5\n")
        with pytest.raises(ParseError):
            read_matches(path)

    def test_empty_match_list(self, tmp_path):
        path = tmp_path / "mt.txt"
        write_matches(path, MatchSet.empty())
        got, gt = read_matches(path)
        assert len(got) == 0 and gt is None


class TestReadErrors:
    def test_basic(self, tmp_path):
        path = tmp_path / "err.txt"
        path.write_text("1.5\ninf\n\n0\n")
        got = read_errors(path)
        assert got.tolist() == [1.5, float("inf"), 0.0]

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "err.txt"
        path.write_text("1.5\nbogus\n")
        with pytest.raises(ParseError, match=":2:"):
            read_errors(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "err.txt"
        path.write_text("\n")
        with pytest.raises(ParseError):
            read_errors(path)
