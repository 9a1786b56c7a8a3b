"""Output checks made apart from the program.

Text files are parsed here, the Tucker product is an einsum, the
beta-divergence is written from its definition and the nearest-frame
sampling and boundary matching are computed afresh, so a fault shared by
the program's own helpers cannot hide itself.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

EPSILON = 1e-12          # the solver's default clamp, SolverConfig.epsilon
MONOTONE_REL = 1e-10     # allowed relative loss increase per step
LOSS_REL = 1e-9          # recomputed vs reported final loss


class CheckFailed(AssertionError):
    pass


def digest(result):
    """sha256 over an operation's outputs: the files of an output
    directory, the manifest without its wall time, or in-memory arrays.
    Equal digests for repeats of one operation mean byte-identical reruns."""
    h = hashlib.sha256()
    if isinstance(result, Path):
        for path in sorted(result.iterdir()):
            h.update(path.name.encode() + b"\0")
            if path.name == "manifest.json":
                manifest = json.loads(path.read_text())
                manifest.pop("wall_seconds")
                h.update(json.dumps(manifest, sort_keys=True).encode())
            else:
                with open(path, "rb") as fh:  # streamed: keeps out of peak_rss_mb
                    h.update(hashlib.file_digest(fh, "sha256").digest())
    else:
        for arr in result:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _read_array(path, magic, n_dims):
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != n_dims + 1 or head[0] != magic:
            raise CheckFailed(f"{path}: header {head!r} is not '{magic}' + {n_dims} dims")
        dims = tuple(int(d) for d in head[1:])
        values = np.array(fh.read().split(), dtype=np.float64)
    if values.size != int(np.prod(dims)):
        raise CheckFailed(f"{path}: {values.size} values for dims {dims}")
    return values.reshape(dims)


def read_tensor(path):
    """An ``ntd-t3 J K L`` file, entries in C order."""
    return _read_array(path, "ntd-t3", 3)


def read_matrix(path):
    """An ``ntd-mat rows cols`` file, one row per line."""
    return _read_array(path, "ntd-mat", 2)


def read_factors(out_dir):
    """(w, h, q, core) as written by ``decompose`` or ``pipeline``."""
    return (
        read_matrix(out_dir / "factor_w.txt"),
        read_matrix(out_dir / "factor_h.txt"),
        read_matrix(out_dir / "factor_q.txt"),
        read_tensor(out_dir / "core.txt"),
    )


def read_loss_trace(path):
    """Losses of ``<iteration> <loss>`` lines, in iteration order."""
    rows = [line.split() for line in open(path).read().splitlines()]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise CheckFailed(f"{path}: iteration column is not 0, 1, 2, ...")
    return np.array([float(r[1]) for r in rows])


def read_times(path):
    return np.array([float(t) for t in open(path).read().split()])


def tucker(w, h, q, core):
    return np.einsum("abc,ia,jb,kc->ijk", core, w, h, q, optimize=True)


def beta_divergence(x, y, beta):
    """
    Sum over entries of d_beta(x | y) = (x^b + (b-1) y^b - b x y^(b-1)) /
    (b (b-1)), with its limits x/y - log(x/y) - 1 at b = 0 and
    x log(x/y) - x + y at b = 1. Needs x > 0 for b <= 1 and y > 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if beta == 0:
        r = x / y
        d = r - np.log(r) - 1.0
    elif beta == 1:
        d = x * np.log(x / y) - x + y
    else:
        d = (x**beta + (beta - 1.0) * y**beta - beta * x * y ** (beta - 1.0)) / (beta * (beta - 1.0))
    return float(np.sum(d))


def check_loss(x, beta, factors, reported, epsilon=EPSILON):
    """The divergence of the written factors to the data (clamped to
    epsilon when beta <= 1, as ``solve`` does) equals the reported loss."""
    xc = np.maximum(x, epsilon) if beta <= 1 else x
    loss = beta_divergence(xc, tucker(*factors), beta)
    if not abs(loss - reported) <= LOSS_REL * abs(reported):
        raise CheckFailed(f"recomputed loss {loss!r} != reported {reported!r}")
    return loss


def check_monotone(losses):
    """Multiplicative updates with the gamma(beta) exponent never raise
    the loss, up to MONOTONE_REL of the previous value."""
    losses = np.asarray(losses, dtype=np.float64)
    rise = np.diff(losses) / np.maximum(np.abs(losses[:-1]), 1e-300)
    if rise.size and rise.max() > MONOTONE_REL:
        i = int(np.argmax(rise))
        raise CheckFailed(f"loss rises by {rise[i]:.3e} (relative) at iteration {i + 1}")


def check_factors(factors, data_shape, core_dims, epsilon=EPSILON):
    """Shapes follow the data and core dims; every entry is >= epsilon."""
    w, h, q, core = factors
    want = [(data_shape[0], core_dims[0]), (data_shape[1], core_dims[1]),
            (data_shape[2], core_dims[2]), tuple(core_dims)]
    for name, arr, shape in zip("whqg", (w, h, q, core), want):
        if arr.shape != tuple(shape):
            raise CheckFailed(f"{name}: shape {arr.shape}, expected {tuple(shape)}")
        if not arr.min() >= epsilon:
            raise CheckFailed(f"{name}: entry {arr.min()!r} below epsilon {epsilon}")


def nearest_frames(boundaries, hop, frames, frames_per_bar):
    """
    Frame indices (frames_per_bar, bars) at the in-bar midpoints
    t_b + (i + 1/2) (t_{b+1} - t_b) / F, each the frame f whose time f*hop
    is nearest, found by comparing the distances to the frames below and
    above. Also returns the other neighbour where the two distances tie
    to 1e-9 hop, else the same index.
    """
    t0, t1 = boundaries[:-1], boundaries[1:]
    pos = t0 + (np.arange(frames_per_bar)[:, None] + 0.5) * (t1 - t0) / frames_per_bar
    lo = np.floor(pos / hop).astype(int)
    d_lo, d_hi = pos - lo * hop, (lo + 1) * hop - pos
    pick = np.where(d_hi < d_lo, lo + 1, lo)
    alt = np.where(np.abs(d_hi - d_lo) <= 1e-9 * hop, 2 * lo + 1 - pick, pick)
    return np.clip(pick, 0, frames - 1), np.clip(alt, 0, frames - 1)


def expected_tfb(data, boundaries, hop, frames_per_bar):
    """log1p of the nearest spectrogram frames: (bands, F, bars)."""
    pick, _ = nearest_frames(boundaries, hop, data.shape[1], frames_per_bar)
    return np.log1p(data[:, pick])


def check_tfb(tfb, data, boundaries, hop, frames_per_bar):
    """Every TFB entry equals log1p of the spectrogram at the nearest frame."""
    bands, bars = data.shape[0], boundaries.size - 1
    if tfb.shape != (bands, frames_per_bar, bars):
        raise CheckFailed(f"tfb shape {tfb.shape}, expected {(bands, frames_per_bar, bars)}")
    pick, alt = nearest_frames(boundaries, hop, data.shape[1], frames_per_bar)
    ok = (tfb == np.log1p(data[:, pick])) | (tfb == np.log1p(data[:, alt]))
    bad = np.argwhere(~ok.all(axis=0))
    if bad.size:
        i, b = bad[0]
        raise CheckFailed(f"tfb column {i} of bar {b} is not frame {pick[i, b]} of the spectrogram "
                          f"({len(bad)} bad columns)")


def match_count(est, ref, tol):
    """Largest one-to-one matching of est to ref times within tol
    (augmenting paths on the bipartite graph)."""
    owner = [-1] * len(ref)

    def augment(i, seen):
        for j, r in enumerate(ref):
            if abs(est[i] - r) <= tol and j not in seen:
                seen.add(j)
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(augment(i, set()) for i in range(len(est)))


def f_measure(est, ref, tol):
    """F-measure of estimated against reference boundary times."""
    if not len(est) or not len(ref):
        return 0.0
    hits = match_count(list(est), list(ref), tol)
    return 2.0 * hits / (len(est) + len(ref))


def check_seams(est, seams, tol):
    """Every planted seam has its own estimated boundary within tol."""
    hits = match_count(list(est), list(seams), tol)
    if hits < len(seams):
        raise CheckFailed(f"{len(seams) - hits} of {len(seams)} seams have no boundary within {tol} s")
