"""Seeded inputs for the benchmark: synthetic songs (spectrogram + bar
grid + planted section seams), a TFB-like text tensor and tiny tensors.

Everything here is written with the benchmark's own code, not the
program's writers. Floats go out as ``repr``, which round-trips exactly,
so the arrays kept beside the text files equal what the program parses.
"""

import numpy as np

import checks

HOP = 512 / 22050          # seconds per spectrogram frame
BAR_S = 2.0                # 4/4 at 120 bpm
BAR_START_S = 0.25         # first downbeat
BANDS = 80
FRAMES_PER_BAR = 96
STEPS_PER_BAR = 16         # rhythm grid of a section
SECTION_PLAN = (8, 8, 8, 12, 12, 16, 16, 20)  # bars per section, sums to 100
SECTION_TYPES = 4
GAIN = 20.0
NOISE_SIGMA = 0.6          # log-normal frame noise, as in magnitude bins
# the seed deals these band centres, rhythms and section lengths out in a
# new order, so every seed's song is new but none is easier or harder to
# fit than another: with seeded rhythms, the loss ratio of one 200-bar
# tensor spread 12% over seeds, with these about 2%
BUMP_CENTERS = np.array([[6.0, 30.0, 58.0], [16.0, 44.0, 70.0], [10.0, 38.0, 64.0], [22.0, 50.0, 76.0]])
BUMP_HEIGHTS = np.array([1.0, 0.8, 0.6])
BUMP_WIDTHS = np.array([3.0, 5.0, 7.0])
# 16-step accent patterns, each with four steps at 1, four at 0.5 and
# eight at 0.1
RHYTHMS = np.array([
    [1, .1, .5, .1, 1, .1, .5, .1, 1, .1, .5, .1, 1, .1, .5, .1],
    [1, .1, .1, .5, .1, 1, .1, .5, 1, .1, .1, .5, .1, 1, .1, .5],
    [.5, .1, 1, .1, .5, .1, 1, .1, .5, .1, 1, .1, .5, .1, 1, .1],
    [1, 1, .1, .1, .5, .5, .1, .1, 1, 1, .1, .1, .5, .5, .1, .1],
]) / 0.425  # mean 1


def song_layout(rng, n_bars):
    """Section lengths (bars) and types for a song of n_bars, a multiple
    of 100: each 100 bars are SECTION_PLAN in seeded order, each type is
    used equally often, and neighbouring sections never share a type."""
    reps = n_bars // 100
    if reps * 100 != n_bars:
        raise ValueError(f"n_bars must be a multiple of 100, got {n_bars}")
    lengths = rng.permutation(np.tile(SECTION_PLAN, reps))
    pool = np.repeat(np.arange(SECTION_TYPES), lengths.size // SECTION_TYPES)
    while True:
        types = rng.permutation(pool)
        if np.all(types[1:] != types[:-1]):
            return lengths, types


def make_song(seed, n_bars):
    """
    A bands x frames spectrogram of `n_bars` bars made of sections.

    Each section type has its own spectral envelope (three Gaussian bumps
    at one row of BUMP_CENTERS) and its own rhythm (one row of RHYTHMS),
    both of mean 1 so every section is equally loud. Every
    frame is envelope x rhythm step x log-normal noise, plus a noise floor
    so all entries are positive. Bar boundaries sit every BAR_S seconds
    with +-20 ms jitter, so the frame count is the same for every seed.

    Returns a dict with the spectrogram `data`, bar `boundaries` (seconds),
    section `lengths` (bars) and `seams` (seconds, interior only).
    """
    rng = np.random.default_rng(seed)
    band = np.arange(BANDS)[:, None]
    centers = rng.permutation(BUMP_CENTERS)[:, None, :]
    env = 0.15 + np.sum(BUMP_HEIGHTS * np.exp(-((band - centers) ** 2) / (2 * BUMP_WIDTHS**2)), axis=2)
    env /= env.mean(axis=1, keepdims=True)  # (types, bands)
    rhythm = rng.permutation(RHYTHMS)

    lengths, types = song_layout(rng, n_bars)
    bar_type = np.repeat(types, lengths)

    jitter = rng.uniform(-0.02, 0.02, n_bars + 1)
    jitter[[0, -1]] = 0.0
    boundaries = BAR_START_S + BAR_S * np.arange(n_bars + 1) + jitter
    frames = int((boundaries[-1] + BAR_START_S) / HOP)

    t = np.arange(frames) * HOP
    bar = np.searchsorted(boundaries, t, side="right") - 1
    inside = (bar >= 0) & (bar < n_bars)
    barc = np.clip(bar, 0, n_bars - 1)
    phase = (t - boundaries[barc]) / (boundaries[barc + 1] - boundaries[barc])
    step = np.clip((phase * STEPS_PER_BAR).astype(int), 0, STEPS_PER_BAR - 1)
    kind = bar_type[barc]
    level = np.where(inside, rhythm[kind, step], 0.0)
    data = GAIN * (env[kind].T * level + 0.05) * rng.lognormal(0.0, NOISE_SIGMA, (BANDS, frames))

    seams = boundaries[np.cumsum(lengths)[:-1]]
    return {"data": data, "boundaries": boundaries, "lengths": np.array(lengths), "seams": seams}


def tfb_tensor(data, boundaries):
    """The TFB tensor of a song, (BANDS, FRAMES_PER_BAR, bars)."""
    return checks.expected_tfb(data, boundaries, HOP, FRAMES_PER_BAR)


def tiny_tensor(seed, dims, core_dims):
    """Planted nonnegative Tucker model times log-normal noise (sigma
    0.3), scaled to mean 1."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.1, 1.0, core_dims)
    a, b, c = (rng.uniform(0.1, 1.0, (d, r)) for d, r in zip(dims, core_dims))
    x = checks.tucker(a, b, c, g) * rng.lognormal(0.0, 0.3, dims)
    return x / x.mean()


def _rows(m):
    return "".join(" ".join(map(repr, row)) + "\n" for row in m.tolist())


def write_spectrogram(path, data):
    with open(path, "w") as fh:
        fh.write(f"ntd-spec v1 {data.shape[0]} {data.shape[1]} {HOP!r}\n")
        fh.write(_rows(data))


def write_times(path, times):
    with open(path, "w") as fh:
        fh.write("".join(f"{t!r}\n" for t in times.tolist()))


def write_tensor(path, t):
    j, k, l = t.shape
    with open(path, "w") as fh:
        fh.write(f"ntd-t3 {j} {k} {l}\n")
        fh.write(_rows(t.reshape(j * k, l)))


WORKLOADS = ("song_kl", "decompose_is_euc", "small_sweep")
SONGS = 3
SONG_BARS = 100
TENSOR_BARS = 200
TINY_TENSORS = 32  # the loss ratio of 8 spread 10% over seeds, of 32 5%
TINY_DIMS = (12, 10, 8)
TINY_CORE = (3, 3, 2)


def generate(workload, seed, out_dir):
    """Write the inputs of `workload` for `seed` into `out_dir`; returns
    the JSON-ready description the operations read them from."""
    if workload == "song_kl":
        songs = []
        for i in range(SONGS):
            song = make_song([seed, i], SONG_BARS)
            paths = {k: str(out_dir / f"song{i}.{k}") for k in ("spec", "bars", "truth")}
            paths["truth"] += ".npz"
            write_spectrogram(paths["spec"], song["data"])
            write_times(paths["bars"], song["boundaries"])
            np.savez(paths["truth"], **song)
            songs.append(paths)
        return {"songs": songs}
    if workload == "decompose_is_euc":
        song = make_song([seed, SONGS], TENSOR_BARS)
        x = tfb_tensor(song["data"], song["boundaries"])
        paths = {"tensor": str(out_dir / "tensor.txt"), "truth": str(out_dir / "tensor.npy")}
        write_tensor(paths["tensor"], x)
        np.save(paths["truth"], x)
        return paths
    if workload == "small_sweep":
        path = str(out_dir / "tensors.npy")
        np.save(path, [tiny_tensor([seed, SONGS + 1, i], TINY_DIMS, TINY_CORE) for i in range(TINY_TENSORS)])
        return {"tensors": path}
    raise ValueError(f"unknown workload {workload!r}")
