import argparse
import dataclasses
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import adalam
from adalam import (
    AdalamParams,
    ImageSize,
    MatchSet,
    SynthConfig,
    adalam_filter,
    match_prf,
    read_matches,
    write_matches,
)
from adalam import cli
from adalam.cli import _build_parser, _config, main


def run(argv, capsys=None):
    code = main(argv)
    if capsys is None:
        return code
    out = capsys.readouterr()
    return code, out.out, out.err


def synth_files(tmp_path, extra=()):
    kp1 = tmp_path / "kp1.txt"
    kp2 = tmp_path / "kp2.txt"
    mt = tmp_path / "mt.txt"
    code = main([
        "synth", "--rng-seed", "5", "--noise-sigma", "0.5",
        "--out-keypoints1", str(kp1),
        "--out-keypoints2", str(kp2),
        "--out-matches", str(mt),
        *extra,
    ])
    assert code == 0
    return kp1, kp2, mt


class TestParserDefaults:
    def test_filter_defaults_track_params(self):
        args = _build_parser().parse_args([
            "filter", "--keypoints1", "a", "--keypoints2", "b",
            "--matches", "c", "--out", "d",
        ])
        params = _config(AdalamParams, args)
        assert params == AdalamParams()

    def test_every_field_has_a_flag(self):
        argv = ["filter", "--keypoints1", "a", "--keypoints2", "b",
                "--matches", "c", "--out", "d"]
        overrides = {
            "area_ratio": (["--area-ratio", "50"], 50.0),
            "lam": (["--lambda", "3"], 3.0),
            "iterations": (["--iterations", "64"], 64),
            "t_alpha": (["--t-alpha", "0.4"], 0.4),
            "t_sigma": (["--t-sigma", "1.0"], 1.0),
            "t_c": (["--t-c", "100"], 100.0),
            "t_n": (["--t-n", "4"], 4),
            "use_refit": (["--no-refit"], False),
            "fixed_threshold": (["--fixed-threshold", "2.5"], 2.5),
        }
        assert set(overrides) == {
            f.name for f in dataclasses.fields(AdalamParams)
        }
        for field, (flags, expect) in overrides.items():
            args = _build_parser().parse_args(argv + flags)
            assert getattr(_config(AdalamParams, args), field) == expect

    def test_every_synth_field_has_a_flag(self, tmp_path):
        argv = ["synth", "--out-keypoints1", str(tmp_path / "kp1"),
                "--out-keypoints2", str(tmp_path / "kp2"),
                "--out-matches", str(tmp_path / "mt")]
        overrides = {
            "size1": (["--width1", "640", "--height1", "480"], ImageSize(640, 480)),
            "size2": (["--width2", "320", "--height2", "240"], ImageSize(320, 240)),
            "n_patches": (["--patches", "3"], 3),
            "keypoints_per_patch": (["--keypoints-per-patch", "7"], 7),
            "n_outliers": (["--outliers", "11"], 11),
            "noise_sigma": (["--noise-sigma", "0.25"], 0.25),
            "descriptor_dim": (["--descriptor-dim", "8"], 8),
            "rng_seed": (["--rng-seed", "9"], 9),
            "frame_consistent": (["--no-frame-consistent"], False),
            "patch_rotation": (["--patch-rotation", "0.3"], 0.3),
        }
        for field, (flags, expect) in overrides.items():
            with mock.patch.object(cli, "generate_scene", side_effect=ValueError) as gen:
                assert main(argv + flags) == 2
            assert getattr(gen.call_args.args[0], field) == expect
        assert set(overrides) == {f.name for f in dataclasses.fields(SynthConfig)}


# Every subcommand's options at the time the flags were bound to config
# fields by name: option string -> (default, help). A switch takes no
# value, so its default is its absence.
CLI_SURFACE = {
    "synth": {
        "--width1": (1000, None), "--height1": (1000, None),
        "--width2": (1000, None), "--height2": (1000, None),
        "--patches": (5, None), "--keypoints-per-patch": (20, None),
        "--outliers": (233, None), "--noise-sigma": (0.0, None),
        "--descriptor-dim": (32, None), "--rng-seed": (0, None),
        "--no-frame-consistent": ("switch", None),
        "--patch-rotation": (None, "fix every patch affine rotation angle (radians)"),
        "--out-keypoints1": (None, None), "--out-keypoints2": (None, None),
        "--out-matches": (None, None),
    },
    "match": {"--keypoints1": (None, None), "--keypoints2": (None, None),
              "--out": (None, None)},
    "filter": {
        "--keypoints1": (None, None), "--keypoints2": (None, None),
        "--matches": (None, None), "--out": (None, None),
        "--method": ("adalam", None),
        "--ratio-threshold": (0.8, "threshold for --method ratio"),
        "--report": (None, "write per-seed diagnostics here (adalam only)"),
        "--area-ratio": (100.0, "image area / suppression circle area"),
        "--lambda": (4.0, "neighborhood radius expansion factor"),
        "--iterations": (128, "verification iterations per seed"),
        "--t-alpha": (math.pi / 6, "orientation agreement threshold in radians"),
        "--t-sigma": (1.5, "log scale-ratio agreement threshold"),
        "--t-c": (200.0, "adaptive confidence threshold"),
        "--t-n": (6, "minimum inliers for an accepted seed"),
        "--no-refit": ("switch", "disable the least-squares refit on inliers"),
        "--fixed-threshold": (None, "fixed residual threshold in pixels, replaces the "
                                    "adaptive confidence test"),
    },
    "eval": {
        "--selected": (None, "filtered match file"),
        "--matches": (None, "match file with ground-truth column"),
        "--errors": (None, "pose-error list, one value per line"),
        "--auc": (None, "comma-separated thresholds"),
        "--hist-auc": (None, "comma-separated thresholds"),
        "--map": (None, "comma-separated thresholds"),
        "--bin-width": (None, "bin width of --hist-auc (default 5)"),
    },
    "bench": {
        "--scenes": (5, None), "--rng-seed": (0, None), "--patches": (5, None),
        "--keypoints-per-patch": (20, None), "--outliers": (233, None),
        "--noise-sigma": (0.5, None),
        "--lam-threshold": (1.0, "fixed residual threshold for the LAM variant"),
    },
}


def test_cli_surface_is_unchanged():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {
            option: ("switch" if action.nargs == 0 else action.default, action.help)
            for action in p._actions if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        }
        for name, p in sub.choices.items()
    }
    assert surface == CLI_SURFACE


class TestPipeline:
    def test_synth_match_filter_eval(self, tmp_path, capsys):
        kp1, kp2, mt = synth_files(tmp_path)
        nn = tmp_path / "nn.txt"
        assert run(["match", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
                    "--out", str(nn)]) == 0
        kept = tmp_path / "kept.txt"
        assert run(["filter", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
                    "--matches", str(mt), "--out", str(kept)]) == 0
        capsys.readouterr()
        code, out, err = run(
            ["eval", "--selected", str(kept), "--matches", str(mt)], capsys
        )
        assert code == 0
        report = dict(ln.split("=") for ln in out.strip().splitlines())
        assert float(report["precision"]) >= 0.9
        assert float(report["recall"]) >= 0.9

    def test_eval_matches_library_numbers(self, tmp_path, capsys):
        kp1, kp2, mt = synth_files(tmp_path)
        kept = tmp_path / "kept.txt"
        run(["filter", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
             "--matches", str(mt), "--out", str(kept)])
        capsys.readouterr()
        _, out, _ = run(["eval", "--selected", str(kept), "--matches", str(mt)],
                        capsys)
        report = dict(ln.split("=") for ln in out.strip().splitlines())

        from adalam import read_keypoints
        size1, k1 = read_keypoints(kp1)
        size2, k2 = read_keypoints(kp2)
        matches, gt = read_matches(mt)
        sel = adalam_filter(k1, k2, size1, size2, matches).selected
        expect = match_prf(sel, gt)
        assert int(report["true_positives"]) == expect.true_positives
        assert float(report["f1"]) == pytest.approx(expect.f1, rel=1e-6)

    def test_filter_output_bytes_deterministic(self, tmp_path):
        kp1, kp2, mt = synth_files(tmp_path)
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            assert run(["filter", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
                        "--matches", str(mt), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_no_side_info_changes_nothing_or_more(self, tmp_path):
        kp1, kp2, mt = synth_files(tmp_path)
        base = tmp_path / "base.txt"
        loose = tmp_path / "loose.txt"
        run(["filter", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
             "--matches", str(mt), "--out", str(base)])
        run(["filter", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
             "--matches", str(mt), "--out", str(loose),
             "--t-alpha", "inf", "--t-sigma", "inf"])
        mb, _ = read_matches(base)
        ml, _ = read_matches(loose)
        assert len(ml) >= 1
        assert len(mb) >= 1

    def test_filter_ratio_and_mutual_methods(self, tmp_path):
        kp1, kp2, mt = synth_files(tmp_path)
        for method in ("ratio", "mutual"):
            out = tmp_path / f"{method}.txt"
            assert run(["filter", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
                        "--matches", str(mt), "--out", str(out),
                        "--method", method]) == 0
            got, _ = read_matches(out)
            assert len(got) >= 1

    def test_seed_report_written(self, tmp_path):
        kp1, kp2, mt = synth_files(tmp_path)
        out = tmp_path / "kept.txt"
        rep = tmp_path / "seeds.txt"
        run(["filter", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
             "--matches", str(mt), "--out", str(out), "--report", str(rep)])
        lines = rep.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) > 1

    def test_eval_reports_pairs_missing_from_matches(self, tmp_path, capsys):
        mt = tmp_path / "mt.txt"
        sel = tmp_path / "sel.txt"
        write_matches(mt, MatchSet(np.array([0, 1, 2]), np.array([0, 1, 2]),
                                   np.zeros(3), np.full(3, 0.5)),
                      gt=np.array([True, True, False]))
        # (0, 0) is known; (1, 5) and (7, 7) are not in the match file
        write_matches(sel, MatchSet(np.array([0, 1, 7]), np.array([0, 5, 7]),
                                    np.zeros(3), np.full(3, 0.5)))
        capsys.readouterr()
        code, out, err = run(["eval", "--selected", str(sel), "--matches", str(mt)],
                             capsys)
        assert code == 0
        report = dict(ln.split("=") for ln in out.strip().splitlines())
        assert int(report["true_positives"]) == 1
        assert "2 selected pairs are not in" in err

        capsys.readouterr()
        _, _, err = run(["eval", "--selected", str(mt), "--matches", str(mt)], capsys)
        assert err == ""

        empty = tmp_path / "empty.txt"
        empty.write_text("ADALAM-MT 1 0 1\n")  # a gt column, no rows
        code, out, err = run(["eval", "--selected", str(sel), "--matches", str(empty)],
                             capsys)
        assert code == 0
        report = dict(ln.split("=") for ln in out.strip().splitlines())
        assert all(float(value) == 0 for value in report.values())
        assert err == (f"adalam eval: 3 selected pairs are not in {empty} "
                       "and are left out of the counts\n")

    def test_eval_errors_mode(self, tmp_path, capsys):
        err = tmp_path / "err.txt"
        err.write_text("1\n1\n1\n1\n")
        capsys.readouterr()
        code, out, _ = run(
            ["eval", "--errors", str(err), "--auc", "5", "--map", "5",
             "--hist-auc", "5", "--bin-width", "5"],
            capsys,
        )
        assert code == 0
        assert "auc5=0.8" in out
        assert "map5=1" in out
        assert "auc5*=1" in out

    def test_bench_smoke(self, tmp_path, capsys):
        capsys.readouterr()
        code, out, _ = run(
            ["bench", "--scenes", "2", "--patches", "3",
             "--keypoints-per-patch", "10", "--outliers", "60"],
            capsys,
        )
        assert code == 0
        for name in ("adalam", "no-side", "no-refit", "lam", "ratio-test"):
            assert name in out


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["filter", "--bogus"]) == 1
        assert main(["filter", "--keypoints1", "a", "--keypoints2", "b",
                     "--matches", "c", "--out", "d", "--workers", "2"]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_file(self, tmp_path, capsys):
        code = main(["match", "--keypoints1", str(tmp_path / "nope1.txt"),
                     "--keypoints2", str(tmp_path / "nope2.txt"),
                     "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "match" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        code = main(["filter", "--keypoints1", str(bad), "--keypoints2", str(bad),
                     "--matches", str(bad), "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "bad.txt:1" in capsys.readouterr().err

    def test_huge_declared_counts(self, tmp_path, capsys):
        # The readers size their arrays from the rows present, not from
        # the header, so these end in a parse error and not in MemoryError.
        kp1, kp2, mt = synth_files(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("ADALAM-KP 1 100000000000 4 10 10\n1 2 1 0 0 0 0 0\n")
        code = main(["match", "--keypoints1", str(bad), "--keypoints2", str(kp2),
                     "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "bad.txt:3: expected 100000000000 rows" in capsys.readouterr().err
        bad.write_text("ADALAM-MT 1 100000000000 0\n")
        code = main(["filter", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
                     "--matches", str(bad), "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "bad.txt:2: expected 100000000000 rows" in capsys.readouterr().err

    def test_wide_declared_dimension(self, tmp_path, capsys):
        # Room for 1000 rows of 4 + 10**8 float64s would be 745 GiB.
        kp1, kp2, _ = synth_files(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("ADALAM-KP 1 1000 100000000 100 100\n" + "1 2 1 0 0\n" * 1000)
        code = main(["match", "--keypoints1", str(bad), "--keypoints2", str(kp2),
                     "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "bad.txt:2: expected 100000004 fields, got 5" in capsys.readouterr().err

    def test_nan_filter_setting(self, tmp_path, capsys):
        kp1, kp2, mt = synth_files(tmp_path)
        out = tmp_path / "o.txt"
        for flag, field in [("--area-ratio", "area_ratio"), ("--lambda", "lam"),
                            ("--t-alpha", "t_alpha"), ("--t-sigma", "t_sigma"),
                            ("--t-c", "t_c"), ("--fixed-threshold", "fixed_threshold")]:
            code = main(["filter", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
                         "--matches", str(mt), "--out", str(out), flag, "nan"])
            assert code == 2
            assert field in capsys.readouterr().err
            assert not out.exists()

    def test_infinite_area_ratio(self, tmp_path, capsys):
        kp1, kp2, mt = synth_files(tmp_path)
        out = tmp_path / "o.txt"
        code = main(["filter", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
                     "--matches", str(mt), "--out", str(out), "--area-ratio", "inf"])
        assert code == 2
        assert "area_ratio must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_synth_setting(self, tmp_path, capsys):
        for flag, field in [("--noise-sigma", "noise_sigma"),
                            ("--patch-rotation", "patch_rotation")]:
            for value in ("nan", "inf"):
                code = main(["synth", "--out-keypoints1", str(tmp_path / "kp1"),
                             "--out-keypoints2", str(tmp_path / "kp2"),
                             "--out-matches", str(tmp_path / "mt"), flag, value])
                assert code == 2
                assert field in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_index_beyond_int64(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("ADALAM-MT 1 1 1\n99999999999999999999 0 0.5 0.5 1\n")
        code = main(["eval", "--selected", str(bad), "--matches", str(bad)])
        assert code == 2
        assert "bad.txt:2: index does not fit" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("ADALAM-KP 1 1 2 10 10\n1 2 0 0 0.5 0.5\n", "KeypointSet: sigma must be finite"),
        ("ADALAM-KP 1 1 2 10 10\n1 2 1 4 0.5 0.5\n", "KeypointSet: alpha must lie in"),
        ("ADALAM-KP 1 1 2 0 10\n1 2 1 0 0.5 0.5\n", "ImageSize: width and height"),
    ], ids=["sigma", "alpha", "width"])
    def test_refused_keypoint_values_name_the_file(self, tmp_path, capsys, text, message):
        # match and filter each read two keypoint files: the error says which.
        kp1, kp2, mt = synth_files(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code = main(["match", "--keypoints1", str(kp1), "--keypoints2", str(bad),
                     "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert f"bad.txt:1: {message}" in capsys.readouterr().err
        code = main(["filter", "--keypoints1", str(bad), "--keypoints2", str(kp2),
                     "--matches", str(mt), "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert f"bad.txt:1: {message}" in capsys.readouterr().err

    def test_refused_match_values_name_the_file(self, tmp_path, capsys):
        kp1, kp2, _ = synth_files(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("ADALAM-MT 1 1 0\n0 1 0.5 1.5\n")
        code = main(["filter", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
                     "--matches", str(bad), "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "bad.txt:1: MatchSet: ratio must lie in [0, 1]" in capsys.readouterr().err

    def test_synth_without_room_for_patches(self, tmp_path, capsys):
        kp1 = tmp_path / "kp1.txt"
        code = main(["synth", "--patches", "60", "--keypoints-per-patch", "160",
                     "--outliers", "4800", "--out-keypoints1", str(kp1),
                     "--out-keypoints2", str(tmp_path / "kp2.txt"),
                     "--out-matches", str(tmp_path / "mt.txt")])
        assert code == 2
        assert "patch 40 of 60" in capsys.readouterr().err
        assert not kp1.exists()

    def test_eval_without_inputs(self, capsys):
        assert main(["eval"]) == 2
        assert capsys.readouterr().err == (
            "adalam eval: need either --errors or --selected with --matches\n")

    @pytest.mark.parametrize("scenes", ["0", "-1"])
    def test_bench_without_scenes(self, capsys, scenes):
        code, out, err = run(["bench", "--scenes", scenes], capsys)
        assert code == 2
        assert out == ""
        assert "--scenes must be at least 1" in err

    @pytest.mark.parametrize("method", ["ratio", "mutual"])
    def test_report_needs_adalam(self, tmp_path, capsys, method):
        kp1, kp2, mt = synth_files(tmp_path)
        out, rep = tmp_path / "kept.txt", tmp_path / "seeds.txt"
        code = main(["filter", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
                     "--matches", str(mt), "--out", str(out), "--method", method,
                     "--report", str(rep)])
        assert code == 2
        assert "--report works only with --method adalam" in capsys.readouterr().err
        assert not out.exists() and not rep.exists()

    @pytest.mark.parametrize("flags, name", [
        (["--auc", "nan"], "threshold"), (["--auc=inf"], "threshold"),
        (["--map", "nan"], "threshold"), (["--map=inf"], "threshold"),
        (["--hist-auc", "5", "--bin-width", "nan"], "bin_width"),
    ], ids=["auc-nan", "auc-inf", "map-nan", "map-inf", "bin-width-nan"])
    def test_eval_non_finite_threshold(self, tmp_path, capsys, flags, name):
        err = tmp_path / "err.txt"
        err.write_text("1\ninf\n")
        code, out, stderr = run(["eval", "--errors", str(err)] + flags, capsys)
        assert code == 2
        assert out == ""
        assert f"{name} must be finite and > 0" in stderr

    def test_eval_hist_auc_bin_count_overflow(self, tmp_path, capsys):
        err = tmp_path / "err.txt"
        err.write_text("1\ninf\n")
        code, out, stderr = run(["eval", "--errors", str(err), "--hist-auc", "1e308",
                                 "--bin-width", "1e-308"], capsys)
        assert code == 2
        assert out == ""
        assert "threshold / bin_width must be finite" in stderr

    def test_eval_hist_auc_bin_count_limit(self, tmp_path, capsys):
        err = tmp_path / "err.txt"
        err.write_text("1\ninf\n")
        code, out, stderr = run(["eval", "--errors", str(err), "--auc", "5",
                                 "--hist-auc", "100000000", "--bin-width", "1"], capsys)
        assert code == 2
        assert out == ""
        assert stderr == ("adalam eval: hist_auc: 100000000 bins exceed 1000000; "
                          "exact_auc (--auc) gives the limit of fine bins exactly\n")

    @pytest.mark.parametrize("value", ["nan", "-3", "-inf"])
    def test_eval_errors_names_the_line_of_a_bad_value(self, tmp_path, capsys, value):
        err = tmp_path / "err.txt"
        err.write_text(f"1.0\n{value}\n")
        code, out, stderr = run(["eval", "--errors", str(err), "--auc", "5"], capsys)
        assert code == 2
        assert out == ""
        assert stderr == (f"adalam eval: {err}:2: errors must be nonnegative "
                          "(inf marks failure)\n")

    @pytest.mark.parametrize("flags", [
        [], ["--auc", ",,"], ["--auc", ""], ["--hist-auc", " , ", "--map", ","],
    ], ids=["none", "auc-commas", "auc-empty", "hist-and-map-blank"])
    def test_eval_errors_without_thresholds(self, tmp_path, capsys, flags):
        err = tmp_path / "err.txt"
        err.write_text("1\ninf\n")
        code, out, stderr = run(["eval", "--errors", str(err)] + flags, capsys)
        assert code == 2
        assert out == ""
        assert stderr == ("adalam eval: --errors needs a threshold in --auc, "
                          "--hist-auc or --map\n")

    @pytest.mark.parametrize("flags", [["--auc", "5"], ["--map", "10", "--hist-auc", ","]],
                             ids=["auc", "map"])
    def test_eval_errors_bin_width_without_hist_auc(self, tmp_path, capsys, flags):
        err = tmp_path / "err.txt"
        err.write_text("1\ninf\n")
        code, out, stderr = run(["eval", "--errors", str(err), "--bin-width", "2"] + flags,
                                capsys)
        assert code == 2
        assert out == ""
        assert stderr == "adalam eval: --bin-width needs a threshold in --hist-auc\n"

    @pytest.mark.parametrize("flag", ["--selected", "--matches"])
    @pytest.mark.parametrize("exists", [True, False], ids=["file", "no-file"])
    def test_eval_errors_refuses_match_files(self, tmp_path, capsys, flag, exists):
        err, mt = tmp_path / "err.txt", tmp_path / "mt.txt"
        err.write_text("1\ninf\n")
        if exists:
            mt.write_text("ADALAM-MT 1 1 1\n0 0 0.5 0.5 1\n")
        code, out, stderr = run(["eval", "--errors", str(err), "--auc", "5", flag, str(mt)],
                                capsys)
        assert code == 2
        assert out == ""
        assert stderr == "adalam eval: --errors takes neither --selected nor --matches\n"

    @pytest.mark.parametrize("flags", [["--auc", "5"], ["--hist-auc", "5"], ["--map", "10"],
                                       ["--bin-width", "5"], ["--auc", ""]],
                             ids=["auc", "hist-auc", "map", "bin-width", "auc-empty"])
    def test_eval_selected_refuses_thresholds(self, tmp_path, capsys, flags):
        mt = tmp_path / "mt.txt"
        mt.write_text("ADALAM-MT 1 1 1\n0 0 0.5 0.5 1\n")
        code, out, stderr = run(["eval", "--selected", str(mt), "--matches", str(mt)] + flags,
                                capsys)
        assert code == 2
        assert out == ""
        assert stderr == ("adalam eval: --selected takes none of --auc, --hist-auc, "
                          "--map or --bin-width\n")

    @pytest.mark.parametrize("side", ["idx1", "idx2"])
    @pytest.mark.parametrize("method", ["adalam", "ratio", "mutual"])
    def test_match_index_out_of_keypoint_range(self, tmp_path, capsys, method, side):
        kp1, kp2, mt = synth_files(tmp_path)
        matches, _ = read_matches(mt)
        idx = {"idx1": matches.idx1.copy(), "idx2": matches.idx2.copy()}
        idx[side][np.argmin(matches.ratio)] = 999
        bad = tmp_path / "bad.txt"
        write_matches(bad, MatchSet(idx["idx1"], idx["idx2"], matches.dist, matches.ratio))
        out = tmp_path / "o.txt"
        code = main(["filter", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
                     "--matches", str(bad), "--out", str(out), "--method", method])
        assert code == 2
        assert capsys.readouterr().err == (
            f"adalam filter: {bad}: match indices out of keypoint range\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, first, second", [
        ("synth", "--out-keypoints1", "--out-keypoints2"),
        ("synth", "--out-keypoints2", "--out-matches"),
        ("match", "--keypoints1", "--out"),
        ("filter", "--matches", "--out"),
        ("filter", "--out", "--report"),
    ], ids=["synth-keypoints", "synth-matches", "match-input", "filter-input",
            "filter-report"])
    def test_colliding_paths_refused(self, tmp_path, capsys, command, first, second):
        kp1, kp2, mt = synth_files(tmp_path)
        before = {p: p.read_bytes() for p in (kp1, kp2, mt)}
        paths = {
            "synth": {"--out-keypoints1": tmp_path / "a1.txt",
                      "--out-keypoints2": tmp_path / "a2.txt",
                      "--out-matches": tmp_path / "am.txt"},
            "match": {"--keypoints1": kp1, "--keypoints2": kp2,
                      "--out": tmp_path / "o.txt"},
            "filter": {"--keypoints1": kp1, "--keypoints2": kp2, "--matches": mt,
                       "--out": tmp_path / "o.txt", "--report": tmp_path / "r.txt"},
        }[command]
        # The second flag names the first one's file by another spelling.
        paths[second] = tmp_path / "sub" / ".." / paths[first].name
        code = main([command] + [str(x) for item in paths.items() for x in item])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"adalam {command}: {first} and {second} name the same file")
        assert {p: p.read_bytes() for p in (kp1, kp2, mt)} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kp1.txt", "kp2.txt", "mt.txt"]

    def test_shared_input_is_not_a_collision(self, tmp_path, capsys):
        kp1, _, _ = synth_files(tmp_path)
        out = tmp_path / "o.txt"
        assert main(["match", "--keypoints1", str(kp1), "--keypoints2", str(kp1),
                     "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("target", ["missing-dir", "cwd"])
    def test_write_error_names_the_target(self, tmp_path, capsys, monkeypatch, target):
        kp1, kp2, _ = synth_files(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        out = str(work / "missing" / "o.txt") if target == "missing-dir" else "."
        code = main(["match", "--keypoints1", str(kp1), "--keypoints2", str(kp2),
                     "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert repr(out) in err and ".tmp" not in err
        assert not list(work.glob("*.tmp")) and not list(tmp_path.glob("*.tmp"))

    def test_eval_gt_column_required(self, tmp_path, capsys):
        mt = tmp_path / "mt.txt"
        mt.write_text("ADALAM-MT 1 1 0\n0 0 0.5 0.5\n")
        code = main(["eval", "--selected", str(mt), "--matches", str(mt)])
        assert code == 2
        assert capsys.readouterr().err == (
            "adalam eval: --matches file must carry a gt column\n")


def run_fresh(code):
    """stdout of code run in a fresh interpreter that imports adalam from here."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(adalam.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    """Every CLI subcommand is its own process; importing scipy.spatial
    alone once cost each of them about 0.45 s."""
    code = ("import sys, adalam.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_fresh(code) == "[]"


def test_pipeline_loads_no_numpy_ma(tmp_path):
    """np.unique imports numpy.ma, which cost each CLI process about 20 ms."""
    code = f"""
import os, sys
from adalam import (ImageSize, SynthConfig, adalam_filter, generate_scene, nn_match,
                    read_keypoints, read_matches, write_keypoints, write_matches)
size = ImageSize(640, 480)
scene = generate_scene(SynthConfig(size, size, 5, 20, 200, descriptor_dim=32))
kp, mt = os.path.join({str(tmp_path)!r}, "kp.txt"), os.path.join({str(tmp_path)!r}, "mt.txt")
write_keypoints(kp, size, scene.k1)
write_matches(mt, scene.matches, gt=scene.gt_inlier)
read_keypoints(kp)
read_matches(mt)
matches = nn_match(scene.k1, scene.k2)
adalam_filter(scene.k1, scene.k2, size, size, matches)
print("numpy.ma" in sys.modules)
"""
    assert run_fresh(code) == "False"
