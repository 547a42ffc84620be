import errno
import math
import os
import re
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adalam import (
    ImageSize,
    KeypointSet,
    MatchSet,
    ParseError,
    fileio,
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


def read_with_small_peak(reader, path):
    """reader(path), failing if it allocates 1 MB or more on the way."""
    tracemalloc.start()
    try:
        return reader(path)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1e6


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

    def test_huge_declared_count_is_a_parse_error(self, tmp_path):
        path = tmp_path / "kp.txt"
        path.write_text("ADALAM-KP 1 100000000000 4 10 10\n1 2 1 0 0 0 0 0\n")
        with pytest.raises(ParseError, match=r"kp\.txt:3: expected 100000000000 rows"):
            read_with_small_peak(read_keypoints, path)

    def test_wide_declared_dimension_is_a_parse_error(self, tmp_path):
        # Room for 1000 rows of 4 + 10**8 float64s would be 745 GiB: the
        # first row's width is checked before any room is reserved.
        path = tmp_path / "kp.txt"
        path.write_text("ADALAM-KP 1 1000 100000000 100 100\n" + "1 2 1 0 0\n" * 1000)
        with pytest.raises(ParseError, match=r"kp\.txt:2: expected 100000004 fields, got 5$"):
            read_with_small_peak(read_keypoints, path)

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

    def test_angles_written_as_given(self, tmp_path):
        path = tmp_path / "kp.txt"
        alpha = np.array([-1e-10, -1e-300, -3.0, 3.0, math.pi])
        kps = KeypointSet(xy=np.zeros((5, 2)), sigma=np.ones(5), alpha=alpha,
                          desc=np.zeros((5, 2)))
        write_keypoints(path, SIZE, kps)
        _, got = read_keypoints(path)
        assert got.alpha.tolist() == [float("%.9g" % a) for a in alpha]

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_keypoints(tmp_path / "nope.txt")

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "out" / "kp.txt"
        with pytest.raises(OSError):
            write_keypoints(target, SIZE, make_keypoints(2))
        assert not target.exists()

    def test_failed_rename_names_target_and_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "kp.txt"
        target.write_bytes(b"previous")
        fault = OSError(errno.EXDEV, os.strerror(errno.EXDEV), "the temporary file")
        with mock.patch.object(fileio.os, "replace", side_effect=fault):
            with pytest.raises(OSError) as exc:
                fileio._atomic_write(target, ["new\n"])
        assert exc.value.filename == str(target)
        assert exc.value.errno == errno.EXDEV
        assert target.read_bytes() == b"previous"
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("fault", [ValueError("bad piece"), KeyboardInterrupt()],
                             ids=["ValueError", "KeyboardInterrupt"])
    def test_fault_mid_write_removes_temporary_and_propagates(self, tmp_path, fault):
        target = tmp_path / "kp.txt"
        target.write_bytes(b"previous")

        def pieces():
            yield "new\n"
            assert len(list(tmp_path.glob("*.tmp"))) == 1
            raise fault

        with pytest.raises(type(fault)) as exc:
            fileio._atomic_write(target, pieces())
        assert exc.value is fault
        assert target.read_bytes() == b"previous"
        assert list(tmp_path.glob("*.tmp")) == []

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

    def test_huge_declared_count_is_a_parse_error(self, tmp_path):
        path = tmp_path / "mt.txt"
        path.write_text("ADALAM-MT 1 100000000000 0\n0 1 0.5 0.5\n")
        with pytest.raises(ParseError, match=r"mt\.txt:3: expected 100000000000 rows"):
            read_with_small_peak(read_matches, path)

    @pytest.mark.parametrize("index", ["99999999999999999999", "-9223372036854775809"])
    def test_index_beyond_int64_is_a_parse_error(self, tmp_path, index):
        path = tmp_path / "mt.txt"
        path.write_text(f"ADALAM-MT 1 2 0\n0 1 0.5 0.5\n1 {index} 0.5 0.5\n")
        with pytest.raises(ParseError, match=r"mt\.txt:3: index does not fit"):
            read_matches(path)

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "mt.txt"
        path.write_text("ADALAM-MT 1 2 0\n0 1 0.5 0.5\n1 1 nan 0.5\n")
        with pytest.raises(ParseError, match=r"mt\.txt:3: non-finite value"):
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


KP_HEAD = "ADALAM-KP 1 1 2 10 10"


class TestHeaderFaults:
    @pytest.mark.parametrize("head, message", [
        ("ADALAM-KP 1 1 2 10", "expected header 'ADALAM-KP 1 count dim w h'"),
        ("ADALAM-KP 2 1 2 10 10", "unsupported version '2'"),
        ("ADALAM-KP 1 1 2.0 10 10", "header fields must be integers"),
        ("ADALAM-KP 1 -1 2 10 10", "invalid count or descriptor dimension"),
        ("ADALAM-KP 1 1 0 10 10", "invalid count or descriptor dimension"),
        ("ADALAM-MT 1 1 0 0", "expected header 'ADALAM-MT 1 count has_gt'"),
        ("ADALAM-MT 2 1 0", "unsupported version '2'"),
        ("ADALAM-MT 1 one 0", "header fields must be integers"),
        ("ADALAM-MT 1 -1 0", "invalid count or gt flag"),
        ("ADALAM-MT 1 1 2", "invalid count or gt flag"),
    ], ids=["kp-fields", "kp-version", "kp-integer", "kp-count", "kp-dim",
            "mt-fields", "mt-version", "mt-integer", "mt-count", "mt-has-gt"])
    def test_fault_at_line_1(self, tmp_path, head, message):
        path = tmp_path / "bad.txt"
        body = "1 2 1 0 0.5 0.5" if head.startswith("ADALAM-KP") else "0 1 0.5 0.5"
        path.write_text(f"{head}\n{body}\n")
        reader = read_keypoints if head.startswith("ADALAM-KP") else read_matches
        with pytest.raises(ParseError, match=r"bad\.txt:1: " + re.escape(message) + "$"):
            reader(path)

    @pytest.mark.parametrize("dim", [2**29, 10**20])
    @pytest.mark.parametrize("body", ["", "1 2 1 0 0.5 0.5\n"], ids=["no-rows", "one-row"])
    def test_descriptor_dimension_beyond_a_record(self, tmp_path, dim, body):
        # A record of 4 + dim float64s must fit numpy's 2 GB record limit.
        path = tmp_path / "kp.txt"
        path.write_text(f"ADALAM-KP 1 {int(bool(body))} {dim} 10 10\n{body}")
        with pytest.raises(ParseError, match=r"kp\.txt:1: "):
            read_with_small_peak(read_keypoints, path)


class TestContainerRefusals:
    """Values the containers refuse are reported at line 1, naming the file."""

    @pytest.mark.parametrize("text, message", [
        (f"{KP_HEAD}\n1 2 0 0 0.5 0.5\n", "KeypointSet: sigma must be finite and > 0"),
        (f"{KP_HEAD}\n1 2 1 4 0.5 0.5\n", "KeypointSet: alpha must lie in (-pi, pi]"),
        ("ADALAM-KP 1 1 2 0 10\n1 2 1 0 0.5 0.5\n",
         "ImageSize: width and height must be positive"),
    ], ids=["sigma", "alpha", "width"])
    def test_keypoints(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=r"bad\.txt:1: " + re.escape(message) + "$"):
            read_keypoints(path)

    def test_matches(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ADALAM-MT 1 1 0\n0 1 0.5 1.5\n")
        message = re.escape("MatchSet: ratio must lie in [0, 1]")
        with pytest.raises(ParseError, match=r"bad\.txt:1: " + message + "$"):
            read_matches(path)


class TestReadErrors:
    def test_basic(self, tmp_path):
        path = tmp_path / "err.txt"
        path.write_text("1.5\ninf\n\n0\n-0.0\n")
        got = read_errors(path)
        assert got.tolist() == [1.5, float("inf"), 0.0, -0.0]

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

    @pytest.mark.parametrize("value", ["nan", "-3", "-inf"])
    def test_nan_or_negative_named_at_its_line(self, tmp_path, value):
        path = tmp_path / "err.txt"
        path.write_text(f"1.0\n{value}\n")
        with pytest.raises(ParseError, match=":2: errors must be nonnegative") as exc:
            read_errors(path)
        assert exc.value.line == 2


# Property tests: the whole-row writers against per-field f"{x:.9g}", and the
# reader's np.loadtxt fast path against its row-by-row parser.

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, math.pi, -math.pi,
           1 / 3, 123456789.0]
FINITE = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.one_of(st.sampled_from([5e-324, 2.5e-310, 1.0, 1e300]),
                     st.floats(min_value=5e-324, allow_infinity=False))
ALPHA = st.one_of(st.sampled_from([math.pi, float(np.nextafter(-math.pi, 0.0)), 0.0, -0.0]),
                  st.floats(float(np.nextafter(-math.pi, 0.0)), math.pi))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fileio-properties")


@st.composite
def keypoint_sets(draw):
    n = draw(st.integers(0, 6))
    dim = draw(st.integers(1, 4))
    return KeypointSet(
        xy=draw(hnp.arrays(np.float64, (n, 2), elements=FINITE)),
        sigma=draw(hnp.arrays(np.float64, n, elements=POSITIVE)),
        alpha=draw(hnp.arrays(np.float64, n, elements=ALPHA)),
        desc=draw(hnp.arrays(np.float64, (n, dim), elements=FINITE)),
    )


@st.composite
def match_sets(draw):
    n = draw(st.integers(0, 6))
    ratio = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))
    dist = st.one_of(st.sampled_from([0.0, 2.5e-310, 1e300]),
                     st.floats(0.0, allow_infinity=False))
    matches = MatchSet(
        idx1=np.array(draw(st.permutations(range(n))), dtype=np.int64),
        idx2=draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2**62))),
        dist=draw(hnp.arrays(np.float64, n, elements=dist)),
        ratio=draw(hnp.arrays(np.float64, n, elements=ratio)),
    )
    gt = draw(st.one_of(st.none(), hnp.arrays(np.bool_, n)))
    return matches, gt


def per_field_keypoint_text(kps):
    rows = [f"ADALAM-KP 1 {len(kps)} {kps.dim} {SIZE.width} {SIZE.height}"]
    for k in range(len(kps)):
        values = [kps.xy[k, 0], kps.xy[k, 1], kps.sigma[k], kps.alpha[k], *kps.desc[k]]
        rows.append(" ".join(f"{v:.9g}" for v in values))
    return ("\n".join(rows) + "\n").encode()


class TestWriterProperties:
    @PROPERTY
    @given(keypoint_sets())
    def test_keypoints_equal_per_field_format(self, scratch, kps):
        path = scratch / "kp.txt"
        write_keypoints(path, SIZE, kps)
        assert path.read_bytes() == per_field_keypoint_text(kps)

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
    def test_keypoints_across_write_blocks(self, tmp_path, n):
        # The writer formats fileio._WRITE_ROWS rows at a time.
        path = tmp_path / "kp.txt"
        kps = make_keypoints(n, dim=3, seed=n)
        write_keypoints(path, SIZE, kps)
        assert path.read_bytes() == per_field_keypoint_text(kps)

    def test_keypoint_writer_memory_is_bounded(self, tmp_path):
        path = tmp_path / "kp.txt"
        kps = make_keypoints(16000, dim=128)
        tracemalloc.start()
        try:
            write_keypoints(path, SIZE, kps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4

    @PROPERTY
    @given(match_sets())
    def test_matches_equal_per_field_format(self, scratch, matches_gt):
        matches, gt = matches_gt
        path = scratch / "mt.txt"
        write_matches(path, matches, gt)
        rows = [f"ADALAM-MT 1 {len(matches)} {int(gt is not None)}"]
        for k in range(len(matches)):
            fields = [str(matches.idx1[k]), str(matches.idx2[k]),
                      f"{matches.dist[k]:.9g}", f"{matches.ratio[k]:.9g}"]
            if gt is not None:
                fields.append(str(int(gt[k])))
            rows.append(" ".join(fields))
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


TOKENS = ["nan", "inf", "-inf", "1_000", "-0", "1e400", "0x10", "+.5", "2.5e-310", "", "x"]
# Tokens an integer parser may read differently from int().
INT_TOKENS = TOKENS + ["5.", "5e0", "+5", "-1", "2", "007", "99999999999999999999",
                       "9223372036854775807", "\u0663", " 1"]


def mutate(text, kind, at, field, pick, tokens=TOKENS):
    """One edit of a keypoint or match file's text on a line chosen by at.
    A "token" edit puts token pick in field, both drawn apart from at, so
    that any token can meet any column, the gt flag too."""
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    lines = text.split("\n")
    if len(lines) < 2:   # a "cr" edit joined the last line to the header
        lines.append("")
    i = 1 + at % max(1, len(lines) - 2)   # a body line, or just after the header
    row = lines[i].split(" ") if i < len(lines) else [""]
    if kind == "insert":
        lines.insert(i, ["", " \t ", "# note", "\u3000", "\x0c"][at % 5])
    elif kind == "cr":
        lines[i - 1] += "\r" + lines.pop(i)
    elif kind == "token":
        row[field % len(row)] = tokens[pick % len(tokens)]
        lines[i] = " ".join(row)
    elif kind == "extra":
        lines[i] += [" 7", " # note", "\t", " 7\x0b8"][at % 4]
    elif kind == "missing":
        lines[i] = " ".join(row[:-1])
    elif kind == "separator":
        lines[i] = ["\xa0", "\x0c", "\x1c", "\t", "  "][at % 5].join(row)
    elif kind == "count":
        head = lines[0].split(" ")
        head[2] = str(max(0, int(head[2]) + (1 if at % 2 else -1)))
        lines[0] = " ".join(head)
    return "\n".join(lines)


EDITS = st.lists(st.tuples(st.sampled_from(["crlf", "insert", "cr", "token", "extra",
                                            "missing", "separator", "count"]),
                           st.integers(0, 10**6), st.integers(0, 7),
                           st.integers(0, len(INT_TOKENS) - 1)), min_size=1, max_size=3)


def read_outcome(path):
    try:
        size, kps = read_keypoints(path)
    except ValueError as exc:   # ParseError, or KeypointSet refusing a value
        return type(exc).__name__, str(exc)
    data = np.column_stack((kps.xy, kps.sigma, kps.alpha, kps.desc))
    return size, data.shape, data.tobytes()


class TestReaderProperties:
    def test_fast_path_reads_written_files(self, tmp_path):
        path = tmp_path / "kp.txt"
        write_keypoints(path, SIZE, make_keypoints(5, dim=3))
        expect = read_outcome(path)
        with mock.patch.object(fileio, "_parse_rows", side_effect=AssertionError):
            assert read_outcome(path) == expect

    @PROPERTY
    @given(keypoint_sets(), EDITS)
    def test_fast_path_equals_row_parser(self, scratch, kps, edits):
        path = scratch / "kp.txt"
        write_keypoints(path, SIZE, kps)
        text = path.read_text()
        for edit in edits:
            text = mutate(text, *edit)
        path.write_bytes(text.encode())
        got = read_outcome(path)
        with mock.patch.object(fileio, "_load_rows", return_value=None):
            assert read_outcome(path) == got


def read_match_outcome(path):
    try:
        matches, gt = read_matches(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return (matches.idx1.tobytes(), matches.idx2.tobytes(), matches.dist.tobytes(),
            matches.ratio.tobytes(), None if gt is None else gt.tobytes())


class TestMatchReaderProperties:
    def test_fast_path_reads_written_files(self, tmp_path):
        path = tmp_path / "mt.txt"
        write_matches(path, make_matches(7), gt=np.arange(7) % 2 == 0)
        expect = read_match_outcome(path)
        with mock.patch.object(fileio, "_parse_rows", side_effect=AssertionError):
            assert read_match_outcome(path) == expect

    @PROPERTY
    @given(match_sets(), EDITS)
    def test_fast_path_equals_row_parser(self, scratch, matches_gt, edits):
        path = scratch / "mt.txt"
        write_matches(path, *matches_gt)
        text = path.read_text()
        for edit in edits:
            text = mutate(text, *edit, INT_TOKENS)
        path.write_bytes(text.encode())
        got = read_match_outcome(path)
        with mock.patch.object(fileio, "_load_rows", return_value=None):
            assert read_match_outcome(path) == got


@pytest.mark.parametrize("fmt", ["keypoints", "matches"])
def test_fast_path_equals_row_parser_for_every_token_in_every_field(tmp_path, fmt):
    # The properties above draw few token edits; this puts each token in
    # each field of the first row, the gt flag included.
    path = tmp_path / "f.txt"
    if fmt == "keypoints":
        write_keypoints(path, SIZE, make_keypoints(2, dim=2))
        tokens, outcome = TOKENS, read_outcome
    else:
        write_matches(path, make_matches(2), gt=np.array([True, False]))
        tokens, outcome = INT_TOKENS, read_match_outcome
    text = path.read_text()
    for field in range(len(text.split("\n")[1].split(" "))):
        for pick in range(len(tokens)):
            path.write_bytes(mutate(text, "token", 0, field, pick, tokens).encode())
            got = outcome(path)
            with mock.patch.object(fileio, "_load_rows", return_value=None):
                assert outcome(path) == got, (field, tokens[pick])
