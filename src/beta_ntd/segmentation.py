"""
Bar-level structural segmentation from the bar factor of a decomposition,
and tolerance-based boundary evaluation.

Segmentation is a checkerboard-kernel novelty detector over the cosine
autosimilarity of bar-factor rows. Evaluation matches estimated to
reference boundaries one-to-one, closest pair first, within a tolerance
in seconds, and reports precision / recall / F-measure.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import textio


@dataclass
class BoundarySet:
    """Strictly increasing boundary times in seconds, including the track
    start and end by convention."""

    times: np.ndarray

    def __post_init__(self):
        self.times = textio.increasing_times(self.times, "boundary set needs at least 2 times",
                                             "boundary times must be strictly increasing")


@dataclass
class EvalReport:
    precision: float
    recall: float
    f_measure: float
    tolerance: float
    hits: int
    est_count: int
    ref_count: int
    empty_warning: bool = False


def bar_autosimilarity(q):
    """Cosine similarity between all row pairs of the bar factor.
    Zero rows yield zero similarity (including with themselves)."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={q.ndim}")
    norms = np.linalg.norm(q, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    qn = q / safe[:, None]
    return qn @ qn.T  # a zero row of q is one of qn: its similarities are 0


def check_kernel(n, kernel_half_width, peak_threshold):
    """The kernel half-width as an int, once it is known to be a whole number
    that fits n bars and the peak threshold to be finite; otherwise a ValueError."""
    if not (float(kernel_half_width).is_integer() and kernel_half_width >= 1):  # False for NaN, inf
        raise ValueError(f"kernel_half_width must be an integer >= 1, got {kernel_half_width}")
    hw = int(kernel_half_width)
    if 2 * hw > n:
        raise ValueError(f"kernel width {2 * hw} exceeds the {n} bars")
    if not math.isfinite(peak_threshold):
        raise ValueError(f"peak_threshold must be finite, got {peak_threshold}")
    return hw


def segment_bars(sim, kernel_half_width=4, peak_threshold=1.0):
    """
    Boundary bar indices from a bar autosimilarity matrix.

    A +/- checkerboard kernel of side 2 * kernel_half_width slides along
    the diagonal (edge-replicated padding); boundaries are strict local
    maxima of the clipped novelty curve exceeding peak_threshold times
    the curve mean. Indices 0 and L are always included. A non-finite
    entry is a ValueError naming the first one.
    """
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise ValueError(f"similarity matrix must be square, got {sim.shape}")
    bad = np.argwhere(~np.isfinite(sim))
    if bad.size:
        raise ValueError(f"similarity matrix entry {tuple(bad[0].tolist())} is not finite")
    n = sim.shape[0]
    hw = check_kernel(n, kernel_half_width, peak_threshold)
    signs = np.concatenate([-np.ones(hw), np.ones(hw)])
    kernel = np.outer(signs, signs)
    padded = np.pad(sim, hw, mode="edge")
    novelty = np.empty(n + 1)
    for i in range(n + 1):
        window = padded[i : i + 2 * hw, i : i + 2 * hw]
        novelty[i] = np.sum(window * kernel)
    novelty = np.clip(novelty, 0.0, None)
    # floor relative to the largest representable kernel response, so
    # float noise on a flat similarity matrix never creates peaks; scales
    # with sim, keeping the result invariant under positive rescaling
    floor = 1e-8 * (2 * hw) ** 2 * np.max(np.abs(sim), initial=0.0)
    threshold = max(peak_threshold * novelty.mean(), floor)
    inner = novelty[1:-1]
    peaks = (inner > threshold) & (inner > novelty[:-2]) & (inner > novelty[2:])
    return np.r_[0, np.flatnonzero(peaks) + 1, n]


def bars_to_seconds(indices, bars):
    """Map boundary bar indices, whole numbers, onto the bar grid's times."""
    indices = np.asarray(indices, dtype=np.float64)
    if not np.all(indices == np.round(indices)):  # False for NaN
        raise ValueError(f"indices must be whole numbers, got {indices}")
    if indices.size and (indices.min() < 0 or indices.max() > bars.bar_count):
        raise ValueError(
            f"bar index out of range [0, {bars.bar_count}]: {indices}"
        )
    return BoundarySet(bars.boundaries[indices.astype(int)])


def evaluate_boundaries(est, ref, tolerance, exclude_endpoints=True):
    """
    Precision / recall / F-measure of estimated against reference
    boundaries at a single tolerance.

    Matching is one-to-one: estimated boundaries are scanned in time
    order and each takes the earliest unused reference within the
    tolerance. On sorted 1-D sets with a single tolerance this greedy is
    a maximum matching (every compatibility set is a contiguous run of
    references). With exclude_endpoints (default) the first and last time
    of each set are dropped before scoring; an empty side after exclusion
    gives 0 for the affected score and sets a warning flag.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    e = est.times[1:-1] if exclude_endpoints else est.times
    r = ref.times[1:-1] if exclude_endpoints else ref.times

    hits = 0
    j = 0
    for te in e:
        # skip references that every later estimate is also too far from
        while j < len(r) and r[j] < te - tolerance:
            j += 1
        if j < len(r) and abs(te - r[j]) <= tolerance:
            hits += 1
            j += 1

    warning = len(e) == 0 or len(r) == 0
    precision = hits / len(e) if len(e) else 0.0
    recall = hits / len(r) if len(r) else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalReport(
        precision=precision,
        recall=recall,
        f_measure=f,
        tolerance=float(tolerance),
        hits=hits,
        est_count=len(e),
        ref_count=len(r),
        empty_warning=warning,
    )


# ---------------------------------------------------------------------------
# File formats


def read_boundaries(path):
    """One boundary time (seconds) per line, strictly increasing."""
    return BoundarySet(textio.read_times(path))


def write_boundaries(path, bset):
    textio.write_rows(path, None, bset.times[:, None])
