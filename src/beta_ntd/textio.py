"""
The text scaffold shared by the package's file formats.

Array files (tensors, matrices, spectrograms) are one header line of
literal words, positive integer dimensions and optional further fields,
then the entries in C order, whitespace-separated, one row per line;
every row holds the same count of values and blank lines are skipped.
Time files (bar grids, boundary sets) hold one finite time in seconds
per line. Both kinds of file parse their numbers with one `np.loadtxt`
helper, so a time file accepts exactly the numbers an array file does:
no digit separators (``1_5``) and no non-ASCII digits. Files are read
as UTF-8 whatever the locale; a byte that does not decode is a ParseError.
Values are written with 17 significant digits, so every float64 reads
back exactly.
"""

import contextlib
import math
import warnings

import numpy as np

from .errors import ParseError


def _floats(lines):
    """The numbers in the text `lines` (a file or a list of strings) as a
    1-D or 2-D float64 array; a ValueError if one does not parse."""
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=1)


@contextlib.contextmanager
def _open_text(path):
    """`path` opened for reading as UTF-8; a byte that does not decode,
    wherever it lies, is a ParseError that names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_array(path, magic, ndim, usage, extra=0):
    """
    Read an array file whose header is the words `magic`, `ndim` positive
    integer dimensions and `extra` further fields; `usage` shows the
    header in error messages. Every row must hold the same count of
    values, and every value must be finite and nonnegative.

    Returns
    -------
    (ndarray of the header's shape, list of the extra header fields)
    """
    n = len(magic)
    with _open_text(path) as fh:
        parts = fh.readline().split()
        if len(parts) != n + ndim + extra or tuple(parts[:n]) != magic:
            raise ParseError(f"{path}:1: expected header '{usage}'")
        try:
            dims = tuple(int(p) for p in parts[n : n + ndim])
        except ValueError:
            raise ParseError(f"{path}:1: non-integer dimensions in header") from None
        if min(dims) < 1:
            raise ParseError(f"{path}:1: dimensions must be positive")
        with warnings.catch_warnings():
            # a header-only file is reported by the count check below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = _floats(fh)
            except UnicodeDecodeError:
                raise  # named by _open_text
            except ValueError as exc:
                raise ParseError(f"{path}: malformed numeric data: {exc}") from None
    size = math.prod(dims)
    if data.size != size:
        raise ParseError(f"{path}: expected {size} values, found {data.size}")
    lo, hi = float(data.min()), float(data.max())  # NaN propagates to both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParseError(f"{path}: non-finite values are not allowed")
    if lo < 0:
        raise ParseError(f"{path}: negative values are not allowed")
    return data.reshape(dims), parts[n + ndim :]


def write_rows(path, header, rows):
    """Write an optional header line, then each row of the 2-D array
    `rows` on its own line."""
    line = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in rows:
            fh.write(line % tuple(row.tolist()))


def increasing_times(times, too_few, not_increasing):
    """`times` as a 1-D float64 array of two or more finite, increasing entries."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 2:
        raise ValueError(too_few)
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise ValueError(f"times must be finite, got {times[bad[0]]} at index {bad[0]}")
    if np.any(np.diff(times) <= 0):
        raise ValueError(not_increasing)
    return times


def read_times(path):
    """Read one finite time in seconds per line, strictly increasing, at
    least two; blank lines are skipped."""
    times = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                (t,) = _floats([line]).tolist()  # one number, or a ValueError
            except ValueError:
                raise ParseError(f"{path}:{lineno}: not a number: {line!r}") from None
            if not math.isfinite(t):
                raise ParseError(f"{path}:{lineno}: non-finite time {line!r}")
            if times and t <= times[-1]:
                raise ParseError(
                    f"{path}:{lineno}: boundary {t} not strictly increasing"
                )
            times.append(t)
    if len(times) < 2:
        raise ParseError(f"{path}: need at least 2 boundary times")
    return np.array(times)
