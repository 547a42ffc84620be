"""Text file formats for keypoints and matches.

Both formats are one header line followed by one whitespace-separated
record per line, floats written with 9 significant digits. Keypoint rows
are `x y sigma alpha d0 ... d{dim-1}`; match rows are
`idx1 idx2 dist ratio [gt]`. Angles are written as given: a KeypointSet
already holds them in (-pi, pi].
Files are written atomically through a temporary file beside the target,
which the kernel creates with mode 0o666 less the file mode creation mask;
no process-wide state changes. No partial output remains on failure, a
write error names the file asked for, and a target that is not a regular
file is refused.
Keypoint files are formatted and written 1024 rows at a time, so the
writer's working memory does not grow with the row count.

One table reader serves both formats. Blank lines are skipped, fields are
split on whitespace and each fault raises ParseError naming file:line;
values the containers refuse, such as a sigma of 0, are reported at line 1.
"""
from __future__ import annotations

import errno
import os
from typing import Iterable, Optional, Tuple

import numpy as np

from .core import ImageSize, KeypointSet, MatchSet

KEYPOINT_MAGIC = "ADALAM-KP"
MATCH_MAGIC = "ADALAM-MT"
FORMAT_VERSION = "1"
_WRITE_ROWS = 1024


class ParseError(ValueError):
    """Malformed input file; message names the file and line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def _atomic_write(path, pieces: Iterable[str]):
    """Write the concatenated text pieces to path, all or nothing.

    The text goes to a new temporary file beside path, which then replaces
    it. An existing path that is not a regular file is refused before
    anything is made, and every OSError names path, not the temporary file.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            raise (IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
                   if os.path.isdir(path) else OSError(errno.EINVAL, "Not a regular file", path))
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(pieces)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def write_keypoints(path, size: ImageSize, kps: KeypointSet):
    _atomic_write(path, _keypoint_text(size, kps))


def _keypoint_text(size: ImageSize, kps: KeypointSet):
    """The lines of a keypoint file, in pieces of _WRITE_ROWS rows."""
    yield (f"{KEYPOINT_MAGIC} {FORMAT_VERSION} {len(kps)} {kps.dim} "
           f"{size.width} {size.height}\n")
    fmt = " ".join(["%.9g"] * (4 + kps.dim)) + "\n"
    for lo in range(0, len(kps), _WRITE_ROWS):
        hi = lo + _WRITE_ROWS
        data = np.column_stack((kps.xy[lo:hi], kps.sigma[lo:hi], kps.alpha[lo:hi],
                                kps.desc[lo:hi]))
        yield "".join([fmt % tuple(r.tolist()) for r in data])


def write_matches(path, matches: MatchSet, gt: Optional[np.ndarray] = None):
    has_gt = gt is not None
    if has_gt:
        gt = np.asarray(gt, dtype=bool)
        if gt.shape != (len(matches),):
            raise ValueError("write_matches: gt length must equal match count")
    rows = [f"{MATCH_MAGIC} {FORMAT_VERSION} {len(matches)} {int(has_gt)}"]
    cols = [matches.idx1.tolist(), matches.idx2.tolist(),
            matches.dist.tolist(), matches.ratio.tolist()]
    fmt = "%d %d %.9g %.9g"
    if has_gt:
        cols.append(gt.astype(np.int64).tolist())
        fmt += " %d"
    rows.extend(fmt % r for r in zip(*cols))
    _atomic_write(path, ["\n".join(rows) + "\n"])


def read_keypoints(path) -> Tuple[ImageSize, KeypointSet]:
    lines = _read_lines(path)
    count, dim, width, height = _read_header(path, lines, KEYPOINT_MAGIC,
                                             "count dim w h")
    if count < 0 or dim < 1:
        raise ParseError(path, 1, "invalid count or descriptor dimension")
    size = _build(path, ImageSize, width=width, height=height)
    kp = _read_rows(path, lines, count, [("kp", float, 4 + dim)])["kp"]
    return size, _build(path, KeypointSet, xy=kp[:, 0:2], sigma=kp[:, 2], alpha=kp[:, 3],
                        desc=kp[:, 4:])


# A column is (name, parser, width): width fields parsed by float (finite
# floats), np.int64 (which raises OverflowError beyond int64) or int (0/1 flags).
_MATCH_COLUMNS = [("idx", np.int64, 2), ("score", float, 2), ("gt", int, 1)]


def read_matches(path) -> Tuple[MatchSet, Optional[np.ndarray]]:
    """Read a match file; index-vs-keypoint range checks happen downstream."""
    lines = _read_lines(path)
    count, has_gt = _read_header(path, lines, MATCH_MAGIC, "count has_gt")
    if count < 0 or has_gt not in (0, 1):
        raise ParseError(path, 1, "invalid count or gt flag")
    rows = _read_rows(path, lines, count, _MATCH_COLUMNS[:2 + has_gt])
    matches = _build(path, MatchSet, *rows["idx"].T, *rows["score"].T)
    return matches, rows["gt"][:, 0] == 1 if has_gt else None


def _read_lines(path):
    with open(path, "r") as fh:
        return fh.read().splitlines()


def _read_header(path, lines, magic, names):
    """The integer header fields called names, after the magic and version."""
    if not lines or not lines[0].strip():
        raise ParseError(path, 1, "missing header")
    head = lines[0].split()
    if len(head) != 2 + len(names.split()) or head[0] != magic:
        raise ParseError(path, 1, f"expected header '{magic} {FORMAT_VERSION} {names}'")
    if head[1] != FORMAT_VERSION:
        raise ParseError(path, 1, f"unsupported version {head[1]!r}")
    try:
        return [int(v) for v in head[2:]]
    except ValueError:
        raise ParseError(path, 1, "header fields must be integers") from None


def _build(path, make, *args, **kwargs):
    """make(*args, **kwargs), with its refusal reported at line 1 of path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def _read_rows(path, lines, count, columns):
    """The count rows after the header, as a structured array with one
    (count, width) field per column."""
    dtype = _build(path, np.dtype, [(name, np.float64 if parse is float else np.int64, width)
                                    for name, parse, width in columns])
    rows = _load_rows(lines[1:], count, dtype, columns)
    return _parse_rows(path, lines, count, dtype, columns) if rows is None else rows


def _load_rows(body, count, dtype, columns) -> Optional[np.ndarray]:
    """The count rows of body, or None to parse them row by row.

    body holds the lines after the header, as str.splitlines cut them.
    np.loadtxt splits fields on the same whitespace as str.split and parses
    floats as float() does but refuses '_' separators and non-ASCII digits,
    which go to the row parser. Integer fields are parsed by int(): loadtxt's
    own integer parser, from numpy 1.23 until that deprecation expired, read
    '5.' or '2.7' through a float and only warned."""
    first = next((ln for ln in body if ln.strip()), "")
    if len(first.split()) != sum(width for _, _, width in columns):
        return None   # np.loadtxt would set up each declared field before failing
    fields = enumerate(parse for _, parse, width in columns for _ in range(width))
    try:
        rows = np.loadtxt(body, dtype=dtype, comments=None, ndmin=1,
                          converters={i: int for i, parse in fields if parse is not float})
    except ValueError:
        return None
    if rows.shape != (count,) or _fault(columns, [rows[name] for name, _, _ in columns]):
        return None
    return rows


def _parse_rows(path, lines, count, dtype, columns) -> np.ndarray:
    """The rows of a file's lines, raising ParseError at the first fault."""
    ncol = sum(width for _, _, width in columns)
    rows = np.empty(0, dtype)
    row = 0
    for offset, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        if row >= count:
            raise ParseError(path, offset, f"more rows than declared count {count}")
        fields = ln.split()
        if len(fields) != ncol:
            raise ParseError(path, offset, f"expected {ncol} fields, got {len(fields)}")
        if row == 0:   # reserve only once a row has the declared width
            rows = np.empty(min(count, len(lines) - 1), dtype)
        tokens = iter(fields)
        try:
            groups = [[parse(next(tokens)) for _ in range(width)]
                      for _, parse, width in columns]
        except OverflowError:
            raise ParseError(path, offset, "index does not fit in int64") from None
        except ValueError:
            raise ParseError(path, offset, "non-numeric field") from None
        fault = _fault(columns, groups)
        if fault:
            raise ParseError(path, offset, fault)
        rows[row] = tuple(groups)
        row += 1
    if row != count:
        raise ParseError(path, len(lines) + 1, f"expected {count} rows, found {row}")
    return rows


def _fault(columns, groups) -> Optional[str]:
    """The first rule the columns' values break, or None: gt flags must be
    0 or 1, then floats must be finite."""
    values = [(parse, np.asarray(g)) for (_, parse, _), g in zip(columns, groups)]
    if any(parse is int and np.any((g != 0) & (g != 1)) for parse, g in values):
        return "gt flag must be 0 or 1"
    if any(parse is float and not np.all(np.isfinite(g)) for parse, g in values):
        return "non-finite value"
    return None


def read_errors(path) -> np.ndarray:
    """Read a pose-error list: one value >= 0 per line, 'inf' marks failure."""
    lines = _read_lines(path)
    vals = []
    for offset, ln in enumerate(lines, start=1):
        s = ln.strip()
        if not s:
            continue
        try:
            value = float(s)
        except ValueError:
            raise ParseError(path, offset, "non-numeric error value") from None
        if not value >= 0:  # NaN fails too
            raise ParseError(path, offset, "errors must be nonnegative (inf marks failure)")
        vals.append(value)
    if not vals:
        raise ParseError(path, 1, "empty error list")
    return np.asarray(vals, dtype=np.float64)
