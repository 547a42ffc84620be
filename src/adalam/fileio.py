"""Text file formats for keypoints and matches.

Both formats are one header line followed by one whitespace-separated
record per line, floats written with 9 significant digits. Keypoint rows
are `x y sigma alpha d0 ... d{dim-1}`; match rows are
`idx1 idx2 dist ratio [gt]`. Angles are wrapped into (-pi, pi] on write.
Files are written atomically: no partial output remains on failure.
Keypoint files are formatted and written 1024 rows at a time, so the
writer's working memory does not grow with the row count.
"""
from __future__ import annotations

import os
import tempfile
import warnings
from typing import Iterable, Optional, Tuple

import numpy as np

from .core import ImageSize, KeypointSet, MatchSet, wrap_angle

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
    """Write the concatenated text pieces to path, all or nothing."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_keypoints(path, size: ImageSize, kps: KeypointSet):
    _atomic_write(path, _keypoint_text(size, kps))


def _keypoint_text(size: ImageSize, kps: KeypointSet):
    """The lines of a keypoint file, in pieces of _WRITE_ROWS rows."""
    yield (f"{KEYPOINT_MAGIC} {FORMAT_VERSION} {len(kps)} {kps.dim} "
           f"{size.width} {size.height}\n")
    alpha = wrap_angle(kps.alpha) if len(kps) else kps.alpha
    fmt = " ".join(["%.9g"] * (4 + kps.dim)) + "\n"
    for lo in range(0, len(kps), _WRITE_ROWS):
        hi = lo + _WRITE_ROWS
        data = np.column_stack((kps.xy[lo:hi], kps.sigma[lo:hi], alpha[lo:hi],
                                kps.desc[lo:hi]))
        yield "".join([fmt % tuple(r.tolist()) for r in data])


def _read_lines(path):
    with open(path, "r") as fh:
        return fh.read().splitlines()


def read_keypoints(path) -> Tuple[ImageSize, KeypointSet]:
    lines = _read_lines(path)
    if not lines or not lines[0].strip():
        raise ParseError(path, 1, "missing header")
    head = lines[0].split()
    if len(head) != 6 or head[0] != KEYPOINT_MAGIC:
        raise ParseError(path, 1, f"expected header '{KEYPOINT_MAGIC} 1 count dim w h'")
    if head[1] != FORMAT_VERSION:
        raise ParseError(path, 1, f"unsupported version {head[1]!r}")
    try:
        count, dim, width, height = (int(v) for v in head[2:])
    except ValueError:
        raise ParseError(path, 1, "header fields must be integers") from None
    if count < 0 or dim < 1:
        raise ParseError(path, 1, "invalid count or descriptor dimension")
    size = ImageSize(width, height)

    data = _load_rows(lines[1:], count, 4 + dim)
    if data is None:
        data = _parse_rows(path, lines, count, 4 + dim)
    kps = KeypointSet(
        xy=data[:, 0:2], sigma=data[:, 2], alpha=data[:, 3], desc=data[:, 4:]
    )
    return size, kps


def _load_rows(body, count, ncol) -> Optional[np.ndarray]:
    """The (count, ncol) finite float rows of body, or None to parse them
    row by row.

    body holds the lines after the header, as str.splitlines cut them.
    np.loadtxt splits fields on the same whitespace as str.split and parses
    floats as float() does, except that it refuses '_' digit separators and
    non-ASCII digits; whatever it refuses goes to the row parser too."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            data = np.loadtxt(body, comments=None, ndmin=2)
    except (ValueError, UserWarning):
        return None
    if data.shape != (count, ncol) or not np.all(np.isfinite(data)):
        return None
    return data


def _parse_rows(path, lines, count, ncol) -> np.ndarray:
    """Rows of a keypoint file's lines, raising ParseError at the first fault."""
    data = np.empty((min(count, len(lines) - 1), ncol))
    row = 0
    for offset, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        if row >= count:
            raise ParseError(path, offset, f"more rows than declared count {count}")
        fields = ln.split()
        if len(fields) != ncol:
            raise ParseError(path, offset, f"expected {ncol} fields, got {len(fields)}")
        try:
            data[row] = [float(v) for v in fields]
        except ValueError:
            raise ParseError(path, offset, "non-numeric field") from None
        if not np.all(np.isfinite(data[row])):
            raise ParseError(path, offset, "non-finite value")
        row += 1
    if row != count:
        raise ParseError(path, len(lines) + 1, f"expected {count} rows, found {row}")
    return data


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


def read_matches(path) -> Tuple[MatchSet, Optional[np.ndarray]]:
    """Read a match file; index-vs-keypoint range checks happen downstream."""
    lines = _read_lines(path)
    if not lines or not lines[0].strip():
        raise ParseError(path, 1, "missing header")
    head = lines[0].split()
    if len(head) != 4 or head[0] != MATCH_MAGIC:
        raise ParseError(path, 1, f"expected header '{MATCH_MAGIC} 1 count has_gt'")
    if head[1] != FORMAT_VERSION:
        raise ParseError(path, 1, f"unsupported version {head[1]!r}")
    try:
        count = int(head[2])
        has_gt = int(head[3])
    except ValueError:
        raise ParseError(path, 1, "header fields must be integers") from None
    if count < 0 or has_gt not in (0, 1):
        raise ParseError(path, 1, "invalid count or gt flag")
    columns = _load_match_rows(lines[1:], count, has_gt)
    if columns is None:
        columns = _parse_match_rows(path, lines, count, has_gt)
    idx1, idx2, dist, ratio, gt = columns
    try:
        matches = MatchSet(idx1=idx1, idx2=idx2, dist=dist, ratio=ratio)
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None
    return matches, gt


_MATCH_FIELDS = [("idx1", np.int64), ("idx2", np.int64), ("dist", np.float64),
                 ("ratio", np.float64), ("gt", np.int64)]


def _load_match_rows(body, count, has_gt):
    """The columns (idx1, idx2, dist, ratio, gt) of body's count match rows,
    or None to parse them row by row.

    As in _load_rows, np.loadtxt splits and parses the floats as the row
    parser does. The index and gt columns go through its integer parser,
    which refuses '5.', '5e0' and values beyond int64 as the row parser
    does; it also refuses '_' separators and non-ASCII digits, which the
    row parser accepts."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            data = np.loadtxt(body, dtype=_MATCH_FIELDS[:4 + has_gt],
                              comments=None, ndmin=1)
    except (ValueError, UserWarning):
        return None
    if (data.shape != (count,) or not np.all(np.isfinite(data["dist"]))
            or not np.all(np.isfinite(data["ratio"]))):
        return None
    gt = None
    if has_gt:
        if np.any((data["gt"] != 0) & (data["gt"] != 1)):
            return None
        gt = data["gt"] == 1
    return data["idx1"], data["idx2"], data["dist"], data["ratio"], gt


def _parse_match_rows(path, lines, count, has_gt):
    """Columns of a match file's lines, raising ParseError at the first fault."""
    ncol = 4 + has_gt
    rows = min(count, len(lines) - 1)
    idx1 = np.empty(rows, dtype=np.int64)
    idx2 = np.empty(rows, dtype=np.int64)
    dist = np.empty(rows)
    ratio = np.empty(rows)
    gt = np.empty(rows, dtype=bool) if has_gt else None
    row = 0
    for offset, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        if row >= count:
            raise ParseError(path, offset, f"more rows than declared count {count}")
        fields = ln.split()
        if len(fields) != ncol:
            raise ParseError(path, offset, f"expected {ncol} fields, got {len(fields)}")
        try:
            idx1[row] = int(fields[0])
            idx2[row] = int(fields[1])
            dist[row] = float(fields[2])
            ratio[row] = float(fields[3])
            if has_gt:
                flag = int(fields[4])
                if flag not in (0, 1):
                    raise ParseError(path, offset, "gt flag must be 0 or 1")
                gt[row] = bool(flag)
        except OverflowError:
            raise ParseError(path, offset, "index does not fit in int64") from None
        except ValueError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(path, offset, "malformed field") from None
        if not (np.isfinite(dist[row]) and np.isfinite(ratio[row])):
            raise ParseError(path, offset, "non-finite value")
        row += 1
    if row != count:
        raise ParseError(path, len(lines) + 1, f"expected {count} rows, found {row}")
    return idx1, idx2, dist, ratio, gt


def read_errors(path) -> np.ndarray:
    """Read a pose-error list: one value per line, 'inf' marks failure."""
    lines = _read_lines(path)
    vals = []
    for offset, ln in enumerate(lines, start=1):
        s = ln.strip()
        if not s:
            continue
        try:
            vals.append(float(s))
        except ValueError:
            raise ParseError(path, offset, "non-numeric error value") from None
    if not vals:
        raise ParseError(path, 1, "empty error list")
    return np.asarray(vals, dtype=np.float64)
