"""
Barwise tensorization of spectrograms.

A feature x time spectrogram plus a grid of bar boundary times becomes a
third-order tensor with modes (feature, in-bar time, bar): each bar is
sampled at a fixed number of equally spaced positions and the nearest
spectrogram frame is taken at each, so tensor entries are always a subset
of spectrogram entries.

Also provides the nonnegative log compression log(x + 1).
"""

from dataclasses import dataclass

import numpy as np

from . import textio
from .errors import ParseError


@dataclass
class Spectrogram:
    """Finite, nonnegative bands x frames matrix with a uniform hop in
    seconds; frame f sits at time f * hop_seconds."""

    data: np.ndarray
    hop_seconds: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"spectrogram data must be 2D, got ndim={self.data.ndim}")
        if self.data.size and not 0 <= self.data.min() <= self.data.max() < np.inf:  # NaN fails
            raise ValueError("spectrogram data must be finite and nonnegative")
        if not (np.isfinite(self.hop_seconds) and self.hop_seconds > 0):
            raise ValueError(f"hop_seconds must be finite and positive, got {self.hop_seconds}")

    @property
    def bands(self):
        return self.data.shape[0]

    @property
    def frames(self):
        return self.data.shape[1]


@dataclass
class BarGrid:
    """Strictly increasing bar boundary times in seconds; n boundaries
    delimit n - 1 bars."""

    boundaries: np.ndarray

    def __post_init__(self):
        self.boundaries = textio.increasing_times(
            self.boundaries, "bar grid needs at least 2 boundary times",
            "bar boundaries must be strictly increasing")
        if self.boundaries[0] < 0:
            raise ValueError("bar boundaries must start at time >= 0")

    @property
    def bar_count(self):
        return self.boundaries.size - 1


def nnlms(spec):
    """Entrywise log(x + 1); nonnegative and order-preserving."""
    return Spectrogram(np.log1p(spec.data), spec.hop_seconds)


def build_tfb(spec, bars, frames_per_bar=96):
    """
    Build the (feature, in-bar time, bar) tensor.

    For bar b spanning [t_b, t_{b+1}) the sample positions are
    ``t_b + (i + 0.5) * (t_{b+1} - t_b) / frames_per_bar``; each position
    takes the nearest spectrogram frame, ties broken toward the earlier
    frame so hop-aligned bars reproduce their frames exactly.
    """
    if not (float(frames_per_bar).is_integer() and frames_per_bar >= 1):  # False for NaN, inf
        raise ValueError(f"frames_per_bar must be an integer >= 1, got {frames_per_bar}")
    frames_per_bar = int(frames_per_bar)
    hop = spec.hop_seconds
    span = spec.frames * hop
    tol = 1e-9 * max(span, 1.0)
    out = np.empty((spec.bands, frames_per_bar, bars.bar_count))
    offsets = (np.arange(frames_per_bar) + 0.5) / frames_per_bar
    for b in range(bars.bar_count):
        t0, t1 = bars.boundaries[b], bars.boundaries[b + 1]
        if t0 < -tol or t1 > span + tol:
            raise ValueError(
                f"bar {b} [{t0}, {t1}] lies outside the spectrogram span "
                f"[0, {span}]"
            )
        if t1 - t0 < hop:
            raise ValueError(f"bar {b} spans less than one hop")
        positions = t0 + offsets * (t1 - t0)
        # ceil(p - 0.5) rounds to nearest with ties toward the earlier
        # frame; the slack absorbs float error in hop-aligned positions
        idx = np.ceil(positions / hop - 0.5 - 1e-9).astype(int)
        idx = np.clip(idx, 0, spec.frames - 1)
        out[:, :, b] = spec.data[:, idx]
    return out


# ---------------------------------------------------------------------------
# File formats


def write_spectrogram(path, spec):
    """Header ``ntd-spec v1 <bands> <frames> <hop_seconds>`` then row-major
    values, one band per line."""
    header = f"ntd-spec v1 {spec.bands} {spec.frames} {spec.hop_seconds:.17g}"
    textio.write_rows(path, header, spec.data)


def read_spectrogram(path):
    data, (hop,) = textio.read_array(
        path, ("ntd-spec", "v1"), 2,
        "ntd-spec v1 <bands> <frames> <hop_seconds>", extra=1,
    )
    try:
        hop = float(hop)
    except ValueError:
        raise ParseError(f"{path}:1: malformed header fields") from None
    if not (np.isfinite(hop) and hop > 0):
        raise ParseError(f"{path}:1: hop_seconds must be finite and positive, got {hop}")
    return Spectrogram(data, hop)


def read_bars(path):
    """One boundary time (seconds) per line, strictly increasing."""
    return BarGrid(textio.read_times(path))


def write_bars(path, bars):
    textio.write_rows(path, None, bars.boundaries[:, None])
