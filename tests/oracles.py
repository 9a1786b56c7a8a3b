"""Independent brute-force oracles used by the tests.

Everything here is computed from definitions (index loops, explicit
Kronecker products, exhaustive matching) without going through the
library's contraction path.
"""

import numpy as np


def loop_matricize(t, mode):
    """Mode-n unfolding by explicit index loops: column index of the
    remaining modes with the lower-numbered mode varying fastest."""
    dims = t.shape
    axis = mode - 1
    others = [ax for ax in range(3) if ax != axis]
    o1, o2 = dims[others[0]], dims[others[1]]
    out = np.zeros((dims[axis], o1 * o2))
    for i in range(dims[axis]):
        for a in range(o1):
            for b in range(o2):
                idx = [0, 0, 0]
                idx[axis] = i
                idx[others[0]] = a
                idx[others[1]] = b
                out[i, a + o1 * b] = t[tuple(idx)]
    return out


def loop_mode_product(t, m, mode):
    """Mode-n product by an explicit quadruple loop."""
    dims = list(t.shape)
    axis = mode - 1
    out_dims = dims.copy()
    out_dims[axis] = m.shape[0]
    out = np.zeros(out_dims)
    for r in range(m.shape[0]):
        for s in range(m.shape[1]):
            out_slice = [slice(None)] * 3
            out_slice[axis] = r
            in_slice = [slice(None)] * 3
            in_slice[axis] = s
            out[tuple(out_slice)] += m[r, s] * t[tuple(in_slice)]
    return out


def kron_multiway(g, w, h, q):
    """Multiway product via the vectorized identity with an explicit
    Kronecker matrix; vec is the C-order flattening."""
    big = np.kron(w, np.kron(h, q))
    out = big @ g.reshape(-1)
    return out.reshape(w.shape[0], h.shape[0], q.shape[0])


def kron_contracted_unfolding(g, a, b, mode):
    """Contracted unfolding via the explicit Kronecker product: the
    index-loop unfolding times kron(higher, lower)^T."""
    return loop_matricize(g, mode) @ np.kron(b, a).T


def gamma_fn(beta):
    if beta < 1:
        return 1.0 / (2.0 - beta)
    if beta <= 2:
        return 1.0
    return 1.0 / (beta - 1.0)


def kron_update_factor(x, f, mode, beta, eps):
    """NMF-shaped multiplicative update of one mode factor with the basis
    matrix formed through an explicit Kronecker product."""
    factors = (f.w, f.h, f.q)
    others = [m for m in (1, 2, 3) if m != mode]
    a, b = factors[others[0] - 1], factors[others[1] - 1]
    v = kron_contracted_unfolding(f.core, a, b, mode)
    u = factors[mode - 1]
    uv = u @ v
    m_x = loop_matricize(x, mode)
    num = (uv ** (beta - 2.0) * m_x) @ v.T if beta != 2 else m_x @ v.T
    den = uv ** (beta - 1.0) @ v.T if beta != 1 else np.ones_like(m_x) @ v.T
    return np.maximum(u * (num / den) ** gamma_fn(beta), eps)


def kron_update_core(x, f, beta, eps):
    """Core multiplicative update through the explicit vec/Kronecker
    formulation."""
    big = np.kron(f.w, np.kron(f.h, f.q))
    vec_g = f.core.reshape(-1)
    approx = big @ vec_g
    vec_x = x.reshape(-1)
    num = big.T @ (approx ** (beta - 2.0) * vec_x) if beta != 2 else big.T @ vec_x
    den = big.T @ approx ** (beta - 1.0) if beta != 1 else big.T @ np.ones_like(approx)
    return np.maximum(
        f.core * ((num / den) ** gamma_fn(beta)).reshape(f.core.shape), eps
    )


def optimal_hits(est, ref, tolerance):
    """Maximum one-to-one matching count between two boundary lists within
    a tolerance, by exhaustive bipartite matching (augmenting paths)."""
    est = list(est)
    ref = list(ref)
    adj = [
        [j for j, tr in enumerate(ref) if abs(te - tr) <= tolerance]
        for te in est
    ]
    match_r = [-1] * len(ref)

    def augment(i, seen):
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_r[j] == -1 or augment(match_r[j], seen):
                match_r[j] = i
                return True
        return False

    hits = 0
    for i in range(len(est)):
        if augment(i, set()):
            hits += 1
    return hits


def loop_build_tfb(data, boundaries, hop, frames_per_bar):
    """The (feature, in-bar time, bar) tensor one bar at a time: each bar's
    midpoint-spaced positions take their nearest frame, ties toward the
    earlier one."""
    offsets = (np.arange(frames_per_bar) + 0.5) / frames_per_bar
    out = np.empty((data.shape[0], frames_per_bar, len(boundaries) - 1))
    for b, (t0, t1) in enumerate(zip(boundaries[:-1], boundaries[1:])):
        idx = np.ceil((t0 + offsets * (t1 - t0)) / hop - 0.5 - 1e-9).astype(int)
        out[:, :, b] = data[:, np.clip(idx, 0, data.shape[1] - 1)]
    return out


def loop_segment_bars(sim, hw, peak_threshold):
    """Boundary bars one window and one bar at a time: the clipped
    checkerboard novelty, then each bar whose novelty is above the
    threshold and above both neighbours."""
    n = sim.shape[0]
    signs = np.concatenate([-np.ones(hw), np.ones(hw)])
    kernel = np.outer(signs, signs)
    padded = np.pad(sim, hw, mode="edge")
    novelty = [np.sum(padded[i : i + 2 * hw, i : i + 2 * hw] * kernel) for i in range(n + 1)]
    novelty = np.clip(novelty, 0.0, None)
    floor = 1e-8 * (2 * hw) ** 2 * np.max(np.abs(sim))
    threshold = max(peak_threshold * novelty.mean(), floor)
    cuts = [0]
    for i in range(1, n):
        if novelty[i] > threshold and novelty[i] > novelty[i - 1] and novelty[i] > novelty[i + 1]:
            cuts.append(i)
    return cuts + [n]
