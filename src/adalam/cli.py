"""Command-line pipeline: synth -> match -> filter -> eval, plus bench.

Exit codes: 0 success, 1 usage error, 2 data error. A command whose output
flag names the file of an input flag or of another output flag exits with 2
before it reads anything. Diagnostics go to standard error; data goes to
files or standard output only. Each flag that sets an AdalamParams or
SynthConfig field stores its value under that field's name.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .core import AdalamParams, ImageSize, MatchSet, _check_match_range
from .fileio import (
    ParseError,
    _atomic_write,
    read_errors,
    read_keypoints,
    read_matches,
    write_keypoints,
    write_matches,
)
from .filtering import adalam_filter
from .matching import mutual_nn_filter, nn_match, ratio_test_filter
from .metrics import exact_auc, hist_auc, map_at, match_prf
from .synth import SynthConfig, generate_scene

_DEFAULTS = AdalamParams()


def _add_adalam_flags(p: argparse.ArgumentParser):
    p.add_argument("--area-ratio", type=float, default=_DEFAULTS.area_ratio,
                   help="image area / suppression circle area")
    p.add_argument("--lambda", dest="lam", type=float, default=_DEFAULTS.lam,
                   help="neighborhood radius expansion factor")
    p.add_argument("--iterations", type=int, default=_DEFAULTS.iterations,
                   help="verification iterations per seed")
    p.add_argument("--t-alpha", type=float, default=_DEFAULTS.t_alpha,
                   help="orientation agreement threshold in radians")
    p.add_argument("--t-sigma", type=float, default=_DEFAULTS.t_sigma,
                   help="log scale-ratio agreement threshold")
    p.add_argument("--t-c", type=float, default=_DEFAULTS.t_c,
                   help="adaptive confidence threshold")
    p.add_argument("--t-n", type=int, default=_DEFAULTS.t_n,
                   help="minimum inliers for an accepted seed")
    p.add_argument("--no-side-info", dest="use_side_info", action="store_false",
                   help="disable orientation/scale neighborhood filtering")
    p.add_argument("--no-refit", dest="use_refit", action="store_false",
                   help="disable the least-squares refit on inliers")
    p.add_argument("--fixed-threshold", type=float, default=_DEFAULTS.fixed_threshold,
                   help="fixed residual threshold in pixels, replaces the "
                        "adaptive confidence test")
    p.add_argument("--eps-residual", type=float, default=_DEFAULTS.eps_residual,
                   help="residual clamp fraction of the image-2 radius")


def _add_scene_flags(p: argparse.ArgumentParser, noise_sigma: float):
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--patches", dest="n_patches", metavar="PATCHES", type=int, default=5)
    p.add_argument("--keypoints-per-patch", type=int, default=20)
    p.add_argument("--outliers", dest="n_outliers", metavar="OUTLIERS", type=int,
                   default=233)
    p.add_argument("--noise-sigma", type=float, default=noise_sigma)


def _config(cls, args, **fields):
    """cls built from the parsed arguments named after its fields; the
    keyword arguments set or replace fields."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{**{k: v for k, v in vars(args).items() if k in names}, **fields})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adalam",
        description="Locally-affine outlier filtering for feature matches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled scene")
    p.set_defaults(run=_cmd_synth, inputs=(),
                   outputs=("out_keypoints1", "out_keypoints2", "out_matches"))
    p.add_argument("--width1", type=int, default=1000)
    p.add_argument("--height1", type=int, default=1000)
    p.add_argument("--width2", type=int, default=1000)
    p.add_argument("--height2", type=int, default=1000)
    _add_scene_flags(p, noise_sigma=0.0)
    p.add_argument("--descriptor-dim", type=int, default=32)
    p.add_argument("--no-frame-consistent", dest="frame_consistent",
                   action="store_false")
    p.add_argument("--patch-rotation", type=float, default=None,
                   help="fix every patch affine rotation angle (radians)")
    p.add_argument("--out-keypoints1", required=True)
    p.add_argument("--out-keypoints2", required=True)
    p.add_argument("--out-matches", required=True)

    p = sub.add_parser("match", help="brute-force nearest-neighbor matching")
    p.set_defaults(run=_cmd_match, inputs=("keypoints1", "keypoints2"), outputs=("out",))
    p.add_argument("--keypoints1", required=True)
    p.add_argument("--keypoints2", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("filter", help="filter a match file")
    p.set_defaults(run=_cmd_filter, inputs=("keypoints1", "keypoints2", "matches"),
                   outputs=("out", "report"))
    p.add_argument("--keypoints1", required=True)
    p.add_argument("--keypoints2", required=True)
    p.add_argument("--matches", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["adalam", "ratio", "mutual"],
                   default="adalam")
    p.add_argument("--ratio-threshold", type=float, default=0.8,
                   help="threshold for --method ratio")
    p.add_argument("--report", default=None,
                   help="write per-seed diagnostics here (adalam only)")
    _add_adalam_flags(p)

    p = sub.add_parser("eval", help="score matches or pose-error lists")
    p.set_defaults(run=_cmd_eval, inputs=("selected", "matches", "errors"), outputs=())
    p.add_argument("--selected", help="filtered match file")
    p.add_argument("--matches", help="match file with ground-truth column")
    p.add_argument("--errors", help="pose-error list, one value per line")
    p.add_argument("--auc", default=None, help="comma-separated thresholds")
    p.add_argument("--hist-auc", default=None, help="comma-separated thresholds")
    p.add_argument("--map", default=None, help="comma-separated thresholds")
    p.add_argument("--bin-width", type=float, default=None,
                   help="bin width of --hist-auc (default 5)")

    p = sub.add_parser("bench", help="F1/wall-time sweep on synthetic scenes")
    p.set_defaults(run=_cmd_bench, inputs=(), outputs=())
    p.add_argument("--scenes", type=int, default=5)
    _add_scene_flags(p, noise_sigma=0.5)
    p.add_argument("--lam-threshold", type=float, default=1.0,
                   help="fixed residual threshold for the LAM variant")
    return parser


def _check_paths(args):
    """Refuse an output flag that names the same file as an input flag or an
    earlier output flag of the command, before any file is read or written."""
    def flag(name):
        return "--" + name.replace("_", "-")

    real = {name: os.path.realpath(getattr(args, name))
            for name in args.inputs + args.outputs if getattr(args, name) is not None}
    for i, out in enumerate(args.outputs):
        for other in args.inputs + args.outputs[:i]:
            if out in real and real.get(other) == real[out]:
                raise ValueError(f"{flag(other)} and {flag(out)} name the same file "
                                 f"{getattr(args, out)}")


def _cmd_synth(args) -> int:
    config = _config(SynthConfig, args, size1=ImageSize(args.width1, args.height1),
                     size2=ImageSize(args.width2, args.height2))
    scene = generate_scene(config)
    write_keypoints(args.out_keypoints1, config.size1, scene.k1)
    write_keypoints(args.out_keypoints2, config.size2, scene.k2)
    write_matches(args.out_matches, scene.matches, gt=scene.gt_inlier)
    return 0


def _cmd_match(args) -> int:
    _, k1 = read_keypoints(args.keypoints1)
    _, k2 = read_keypoints(args.keypoints2)
    write_matches(args.out, nn_match(k1, k2))
    return 0


def _rows_of(matches: MatchSet, kept: MatchSet) -> np.ndarray:
    """The row indices in matches of the (idx1, idx2) pairs of kept that
    matches holds, in kept's order."""
    if len(matches) == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(matches.idx1)   # idx1 is unique in a MatchSet
    at = np.searchsorted(matches.idx1, kept.idx1, sorter=order)
    rows = order[np.minimum(at, len(matches) - 1)]
    hit = (matches.idx1[rows] == kept.idx1) & (matches.idx2[rows] == kept.idx2)
    return rows[hit]


def _cmd_filter(args) -> int:
    if args.report and args.method != "adalam":
        raise ValueError("--report works only with --method adalam")
    size1, k1 = read_keypoints(args.keypoints1)
    size2, k2 = read_keypoints(args.keypoints2)
    matches, gt = read_matches(args.matches)
    _check_match_range(args.matches, matches, k1, k2)
    if args.method == "ratio":
        sel = _rows_of(matches, ratio_test_filter(matches, args.ratio_threshold))
    elif args.method == "mutual":
        sel = _rows_of(matches, mutual_nn_filter(k1, k2, matches))
    else:
        result = adalam_filter(k1, k2, size1, size2, matches, _config(AdalamParams, args))
        sel = result.selected
        if args.report:
            lines = ["# seed_match_index best_iteration best_inliers accepted"]
            lines.extend(
                f"{r.seed_match_index} {r.best_iteration} "
                f"{r.best_inlier_count} {int(r.accepted)}"
                for r in result.seed_reports
            )
            _atomic_write(args.report, ["\n".join(lines) + "\n"])
    write_matches(args.out, matches.take(sel), gt=gt[sel] if gt is not None else None)
    return 0


def _parse_thresholds(text):
    return [float(v) for v in (text or "").split(",") if v.strip()]


def _cmd_eval(args) -> int:
    out = []
    if args.errors:
        if args.selected or args.matches:
            raise ValueError("--errors takes neither --selected nor --matches")
        auc, hist, maps = (_parse_thresholds(x) for x in (args.auc, args.hist_auc, args.map))
        if not (auc or hist or maps):
            raise ValueError("--errors needs a threshold in --auc, --hist-auc or --map")
        if args.bin_width is not None and not hist:
            raise ValueError("--bin-width needs a threshold in --hist-auc")
        errors = read_errors(args.errors)
        out.extend(f"auc{t:g}={exact_auc(errors, t):.9g}" for t in auc)
        width = 5.0 if args.bin_width is None else args.bin_width
        out.extend(f"auc{t:g}*={hist_auc(errors, t, width):.9g}" for t in hist)
        out.extend(f"map{t:g}={map_at(errors, t):.9g}" for t in maps)
    elif args.selected and args.matches:
        if any(x is not None for x in (args.auc, args.hist_auc, args.map, args.bin_width)):
            raise ValueError("--selected takes none of --auc, --hist-auc, --map or --bin-width")
        matches, gt = read_matches(args.matches)
        if gt is None:
            raise ValueError("--matches file must carry a gt column")
        selected, _ = read_matches(args.selected)
        sel = _rows_of(matches, selected)
        missing = len(selected) - len(sel)
        if missing:
            print(f"adalam eval: {missing} selected pairs are not in {args.matches} "
                  "and are left out of the counts", file=sys.stderr)
        report = match_prf(sel, gt)
        out.append(report.lines().rstrip("\n"))
    else:
        raise ValueError("need either --errors or --selected with --matches")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_bench(args) -> int:
    if args.scenes < 1:
        raise ValueError("--scenes must be at least 1")
    size = ImageSize(1000, 1000)
    scenes = [generate_scene(_config(SynthConfig, args, size1=size, size2=size,
                                     rng_seed=args.rng_seed + k))
              for k in range(args.scenes)]
    variants = (
        ("adalam", AdalamParams()),
        ("no-side", AdalamParams(use_side_info=False)),
        ("no-refit", AdalamParams(use_refit=False)),
        ("lam", AdalamParams(use_refit=False, fixed_threshold=args.lam_threshold)),
        ("ratio-test", None),
    )
    sys.stdout.write(f"{'method':<12} {'mean_f1':>9} {'time_s':>9}\n")
    for name, params in variants:
        f1s = []
        start = time.perf_counter()
        for scene in scenes:
            if params is None:
                sel = _rows_of(scene.matches, ratio_test_filter(scene.matches, 0.8))
            else:
                sel = adalam_filter(scene.k1, scene.k2, size, size, scene.matches,
                                    params).selected
            f1s.append(match_prf(sel, scene.gt_inlier).f1)
        elapsed = time.perf_counter() - start
        sys.stdout.write(f"{name:<12} {np.mean(f1s):>9.4f} {elapsed:>9.3f}\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _check_paths(args)
        return args.run(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"adalam {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
