"""
Block-coordinate multiplicative updates for nonnegative Tucker
decomposition of a third-order tensor under the beta-divergence.

One outer loop updates the mode factors W, H, Q in order (each consuming
the freshest factors) and then the core, every update ending with an
elementwise maximum against a small constant so entries never reach zero.

Products work on the C-order view ``X.reshape(J*K, L)`` of the data X
(J x K x L), modelled by the mode-3 basis W (H G) times Q^T. Updates and
losses stream the view in slabs of whole mode-1 slices that stay in L2
cache with their model and MU terms. `solve` plans the slabs once, with
one model and one scratch buffer that every slab reuses; at beta other
than 1 and 2 each slab's two MU terms are stacked and go through each
product together. Each slab writes its terms times Q into its rows of one
(J*K) x L' buffer of the plan (two, stacked, at beta other than 1 and 2),
which modes 1 and 2 and the core then contract whole, in one batched GEMM
each; mode 3, whose products need the terms themselves, adds each slab's
share into the first's, in slab order. At beta=2 the denominators are in
Gram form and only the loss builds a model. The plan keeps each product
that more than one pass reads, with the factors it was made from: mode 1's
products, H x_2 G, the mode-3 basis, Q^T, Q's column sums (beta=1) or
Q^T Q (beta=2) and, at beta=2, the buffer, which is then X Q. So each is
made once per new factor. `solve` checks the data's domain once, from its
minimum and maximum, and at beta <= 1 raises it to epsilon, a normal float,
copying it only when that changes an entry.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

# solve checks the data once, so the loss it evaluates needs no domain scans
from .divergence import check_domain, data_term, gamma_exponent, unchecked_objective as objective
from .errors import NumericalDomainError

# contracted_unfolding, ew_power, matricize and multiway_product go unused
# here; perfbench/spans.py rebinds them in this module to count their calls
from .tensor_ops import (  # noqa: F401
    clamp_min,
    contracted_unfolding,
    ew_power,
    matricize,
    multiway_product,
)

_TINY = float(np.finfo(np.float64).tiny)


@dataclass
class SolverConfig:
    """Solver parameters: divergence shape, clamping constant, core
    dimensions, iteration budget, stopping threshold and RNG seed."""

    beta: float = 1.0
    epsilon: float = 1e-12
    core_dims: tuple = (8, 8, 8)
    max_iters: int = 500
    rel_tol: float = 1e-8
    seed: int = 0
    loss_eval_period: int = 1

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not _TINY <= self.epsilon < math.inf:  # clamped data stay normal floats for x/m
            raise ValueError(f"epsilon must be finite and at least {_TINY}, got {self.epsilon}")
        dims = self.core_dims  # counts are whole numbers: n % 1 is NaN for NaN and inf
        if len(dims) != 3 or not all(d % 1 == 0 and d >= 1 for d in dims):
            raise ValueError(f"core_dims must be three positive integers, got {dims}")
        if not 0 <= self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")
        self.core_dims = tuple(int(d) for d in dims)
        for name, least in (("max_iters", 0), ("loss_eval_period", 1), ("seed", 0)):
            n = getattr(self, name)
            if not (n % 1 == 0 and n >= least):  # float(n) would overflow past 1e308
                raise ValueError(f"{name} must be an integer >= {least}, got {n}")
            setattr(self, name, int(n))


@dataclass
class FactorSet:
    """One iterate: mode factors w (J x J'), h (K x K'), q (L x L') and
    core tensor (J' x K' x L')."""

    w: np.ndarray
    h: np.ndarray
    q: np.ndarray
    core: np.ndarray

    def copy(self):
        return FactorSet(self.w.copy(), self.h.copy(), self.q.copy(), self.core.copy())

    def approximation(self):
        """The model as a J x K x L array, by the same product as the loss pass's."""
        m = np.matmul(_mode3_basis(self), np.ascontiguousarray(self.q.T))
        return m.reshape(len(self.w), len(self.h), len(self.q))


@dataclass
class LossTrace:
    """Objective values (index 0 is the pre-iteration loss), per-iteration
    wall-clock times (each with the iteration's loss evaluation, if any),
    and the iteration at which the stopping rule fired."""

    losses: list = field(default_factory=list)
    iter_times: list = field(default_factory=list)
    converged_at: int | None = None


def init_factors(data_dims, cfg):
    """Draw all factor and core entries i.i.d. uniform on [epsilon, 1),
    deterministically from cfg.seed."""
    j, k, l = (int(d) for d in data_dims)
    jc, kc, lc = cfg.core_dims
    rng = np.random.default_rng(cfg.seed)
    eps = cfg.epsilon
    return FactorSet(
        w=rng.uniform(eps, 1.0, (j, jc)),
        h=rng.uniform(eps, 1.0, (k, kc)),
        q=rng.uniform(eps, 1.0, (l, lc)),
        core=rng.uniform(eps, 1.0, (jc, kc, lc)),
    )


def _checked_copy(f, data_dims, core_dims):
    """A copy of the starting point `f`; a ValueError names its first factor
    whose shape does not match the data and `core_dims`, or whose entries
    are not finite and >= 0."""
    (j, k, l), (jc, kc, lc) = data_dims, core_dims
    for name, shape in (("w", (j, jc)), ("h", (k, kc)), ("q", (l, lc)), ("core", (jc, kc, lc))):
        part = getattr(f, name)
        if part.shape != shape:
            raise ValueError(f"init.{name}: shape {part.shape} does not match {shape} "
                             "from the data and cfg.core_dims")
        if not (part.min() >= 0 and part.max() < math.inf):  # False for NaN
            raise ValueError(f"init.{name}: entries must be finite and >= 0")
    return f.copy()


def _mode3_basis(f, hg=None):
    """(J*K) x L' basis whose row j*K + k is sum_ab W[j,a] H[k,b] G[a,b,:],
    so that ``X.reshape(J*K, L)`` is modelled by ``basis @ Q.T``; `hg` is
    H x_2 G (J' x K x L'), made if omitted."""
    hg = np.matmul(f.h, f.core) if hg is None else hg
    return (f.w @ hg.reshape(len(hg), -1)).reshape(-1, hg.shape[2])


_SLAB_ENTRIES = 38400  # data entries per slab, unless one mode-1 slice has more


def _slabs(dims, entries):
    """Cut J x K x L data into slabs of whole mode-1 slices, about `entries`
    entries each: per slab, its mode-1 range and its rows of the (J*K) x L view."""
    j, k, l = dims
    bands = max(1, entries // (k * l))
    return tuple((slice(a, a + bands), slice(a * k, (a + bands) * k)) for a in range(0, j, bands))


class _Plan:
    """Per slab of data `x`: its mode-1 range, rows of ``x.reshape(J*K, L)``,
    their view, (given `beta`) data term, and its model and scratch views,
    apart and stacked, into one buffer pair of the first (largest) slab's
    size. Also :func:`_pass`'s T Q buffer `tq`, made by the first pass, and
    what one pass hands to the next, each with the factors it was made
    from: the slot of :func:`_mode1_terms` (or None), :func:`_basis`'s and
    :func:`_pass`'s `at_q`. A plan serves one beta and one core shape."""

    def __init__(self, x, beta=None):
        self.x3 = x3 = x.reshape(-1, x.shape[2])
        cuts = [(r, rows, x3[rows]) for r, rows in _slabs(x.shape, _SLAB_ENTRIES)]
        pair = np.empty((2,) + cuts[0][2].shape)
        self.slabs = [(r, rows, xs, None if beta is None else data_term(x[r], beta),
                       *pair[:, :len(xs)], pair[:, :len(xs)]) for r, rows, xs in cuts]
        self.slot, self.bases, self.at_q, self.tq = None, [None] * 5, [None] * 4, None


def _basis(plan, f, whole=True):
    """The mode-3 basis at f, made once per (W, H, G), from B = H x_2 G
    (J' x K x L'), made once per (H, G); B alone unless `whole`."""
    made = plan.bases  # H, G, B, W, basis
    if made[0] is not f.h or made[1] is not f.core:
        made[:] = f.h, f.core, np.matmul(f.h, f.core), None, None
    if whole and made[3] is not f.w:
        made[3:] = f.w, _mode3_basis(f, made[2])
    return made[4] if whole else made[2]


def _pass(plan, f, beta, losses=False, v=None):
    """Stream the data in the plan's slabs. Per slab: its model from the
    mode-3 basis (at beta=2 only for the loss), its loss if `losses`, and
    its MU terms t: n alone at beta 1 and 2, where d is all ones or the
    model, else n and d stacked. Given the mode-3 basis `v`, return the sum
    of ``t^T v[rows]`` over the slabs, added in place in slab order; else
    return T Q, each slab's ``t Q`` written into its rows of the plan's
    buffer `tq`. At beta=2 T Q is X Q, kept per Q, so a pass without the
    loss at a Q that has it reads no data. Also return the loss or None. A
    new Q gets `at_q`: Q, Q^T, X Q, Q's column sums at beta=1, Q^T Q at 2."""
    q = f.q
    if plan.at_q[0] is not q:  # Q, Q^T, X Q (made by a beta=2 pass) and Q's statistic, once per Q
        plan.at_q = [q, np.ascontiguousarray(q.T), None,
                     np.add.reduce(q) if beta == 1.0 else q.T @ q if beta == 2.0 else None]
    at_q = plan.at_q
    made = beta == 2.0 and v is None and at_q[2] is not None
    if made and not losses:
        return at_q[2], None
    tq = plan.tq
    if tq is None:  # once per plan, which serves one beta and one core shape
        tq = plan.tq = np.empty((() if beta in (1.0, 2.0) else (2,)) + (len(plan.x3), q.shape[1]))
    basis = None if beta == 2.0 and not losses else _basis(plan, f)  # at beta=2 the MU terms are the data
    shared = losses and beta == 1.0  # the loss reads mode 1's x/m
    nd, loss = None, 0.0 if losses else None
    for r, rows, xs, x_term, m, s, ms in plan.slabs:
        if basis is not None:
            np.matmul(basis[rows], at_q[1], out=m)
        if losses and not shared:
            loss += objective(xs, m, beta, s, x_term)
        # n and d are made in place in m and s
        if beta == 2.0:
            t = xs
        elif beta == 1.0:
            t = np.divide(xs, m, out=s)
        elif beta == 0.0:  # x / m**2 and 1 / m
            # a division, IEEE 1/m bit for bit as np.reciprocal is, but 8.2 against 15.7 us
            # per 38,400-entry slab (AMD EPYC, AVX-512, numpy 2.4.6)
            np.divide(1.0, m, out=s)
            np.multiply(np.multiply(xs, s, out=m), s, out=m)
            t = ms  # n in m, d in s
        else:  # x m**(beta-2) and m**(beta-1)
            np.power(m, beta - 2.0, out=s)
            np.multiply(m, s, out=m)
            np.multiply(s, xs, out=s)
            t = ms[::-1]  # n in s, d in m
        if v is not None:
            part = t.swapaxes(-1, -2) @ v[rows]
            nd = part if nd is None else np.add(nd, part, out=nd)
        elif not made:
            np.matmul(t, q, out=tq[..., rows, :])
        if shared:  # the loss takes its log of x/m in s, once t Q has read it
            loss += objective(xs, m, beta, s, x_term, ratio_in_out=True)
    if beta == 2.0 and v is None:
        at_q[2] = tq
    return (tq if v is None else nd), loss


def _scale(u, num, den, cfg):
    """u times the MU ratio num/den raised to gamma(beta), clamped."""
    ratio = num / den
    gamma = gamma_exponent(cfg.beta)
    if gamma != 1.0:
        ratio **= gamma
    ratio *= u
    return np.maximum(ratio, cfg.epsilon, out=ratio)


def _mode1_terms(plan, f, beta, losses=False):
    """Fill the plan's slot with ``(f, B, nd)``: mode 1's MU products at `f`,
    n (and d, stacked) as :func:`_pass` makes them, which mode 1 reads only
    at that `f`. Return the loss if `losses`."""
    b = _basis(plan, f, whole=False)
    tq, loss = _pass(plan, f, beta, losses)  # T Q as J x (K*L')
    nd = tq.reshape(tq.shape[:-2] + (len(f.w), -1)) @ b.reshape(len(b), -1).T
    plan.slot = f, b, nd, plan.at_q[3]
    return loss


def update_mode_factor(x, f, mode, cfg, plan=None):
    """One multiplicative update of the factor for `mode`. `plan`, made if
    omitted, is the :class:`_Plan` of `x`, whose slot and products serve where valid."""
    j, k, _ = x.shape
    plan = _Plan(x) if plan is None else plan
    if mode == 3:  # x.reshape(J*K, L) ~ V Q^T with V the mode-3 basis
        v = _basis(plan, f)
        nd, _ = _pass(plan, f, cfg.beta, v=v)
        num, den = (nd, None) if cfg.beta in (1.0, 2.0) else nd
        if cfg.beta == 2.0:
            den = f.q @ (v.T @ v)
        return _scale(f.q, num, np.add.reduce(v) if den is None else den, cfg)
    # x ~ U V with V[a,n,l] = sum_c B[a,n,c] Q[l,c]: contract T Q with B
    if mode == 1:  # B = H x_2 G, J' x K x L'
        if plan.slot is None or plan.slot[0] is not f:
            _mode1_terms(plan, f, cfg.beta)
        u, (_, b, nd, qs) = f.w, plan.slot  # Q's statistic made at the slot's Q
    elif mode == 2:  # B = W x_1 G, K' x J x L', in one product
        u, b = f.h, np.matmul(f.w, f.core.transpose(1, 0, 2))
        tq, _ = _pass(plan, f, cfg.beta)
        lead = tq.shape[:-2]  # T Q as K x (J*L'), a copy
        tq = tq.reshape(lead + (j, k, -1)).swapaxes(-3, -2).reshape(lead + (k, -1))
        nd, qs = tq @ b.reshape(len(b), -1).T, plan.at_q[3]
    else:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
    num, den = (nd, None) if cfg.beta in (1.0, 2.0) else nd
    if cfg.beta == 2.0:  # V V^T = B (Q^T Q) B^T, at core size
        den = u @ ((b @ qs).reshape(len(b), -1) @ b.reshape(len(b), -1).T)
    elif den is None:  # qs: Q's column sums
        den = np.add.reduce(b, axis=1) @ qs
    return _scale(u, num, den, cfg)


def update_core(x, f, cfg, plan=None):
    """One multiplicative update of the core: the products with the
    transposed Kronecker matrix contract the MU terms with Q, H and W in
    turn. `plan` is as for :func:`update_mode_factor`."""
    j, k = x.shape[:2]
    shape = f.core.shape
    plan = _Plan(x) if plan is None else plan
    tq, _ = _pass(plan, f, cfg.beta)
    lead = tq.shape[:-2]
    th = np.matmul(f.h.T, tq.reshape(lead + (j, k, shape[2])))  # J x K' x L'
    nd = (f.w.T @ th.reshape(lead + (j, -1))).reshape(lead + shape)
    num, den = (nd, None) if cfg.beta in (1.0, 2.0) else nd
    if cfg.beta == 2.0:  # G x_1 W^T W x_2 H^T H x_3 Q^T Q
        wg = ((f.w.T @ f.w) @ f.core.reshape(shape[0], -1)).reshape(shape)
        den = np.matmul(f.h.T @ f.h, wg) @ plan.at_q[3]
    elif den is None:  # the outer product of the factors' column sums
        den = (np.add.reduce(f.w)[:, None] * np.add.reduce(f.h))[:, :, None] * plan.at_q[3]
    return _scale(f.core, num, den, cfg)


def iterate(x, f, cfg, plan=None):
    """One full outer loop: update W, H, Q in order, then the core, all with
    one `plan` (:func:`update_mode_factor`), made if omitted."""
    plan = _Plan(x) if plan is None else plan
    f = FactorSet(update_mode_factor(x, f, 1, cfg, plan=plan), f.h, f.q, f.core)
    f = FactorSet(f.w, update_mode_factor(x, f, 2, cfg, plan=plan), f.q, f.core)
    f = FactorSet(f.w, f.h, update_mode_factor(x, f, 3, cfg, plan=plan), f.core)
    return FactorSet(f.w, f.h, f.q, update_core(x, f, cfg, plan=plan))


def solve(x, cfg, init=None):
    """
    Run multiplicative updates until the iteration budget is exhausted or
    the relative loss decrease over one evaluation period falls below
    cfg.rel_tol.

    Parameters
    ----------
    x : ndarray, shape (J, K, L)
        Nonnegative, finite, non-empty data tensor; raised to cfg.epsilon at
        beta <= 1, where a zero entry leaves the divergence undefined or unbounded.
    cfg : SolverConfig
    init : FactorSet, optional
        Starting point, shaped by the data and cfg.core_dims, with finite
        nonnegative entries; a fresh seeded draw when omitted.

    Returns
    -------
    (FactorSet, LossTrace)
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={x.ndim}")
    if x.size == 0:
        raise ValueError(f"data tensor must not be empty, got shape {x.shape}")
    if any(c > d for c, d in zip(cfg.core_dims, x.shape)):  # before the start is drawn
        raise ValueError(f"core_dims {cfg.core_dims} exceed the data's shape {x.shape}")
    lo, hi = float(x.min()), float(x.max())  # NaN propagates to both
    if not lo >= 0 and np.any(x < 0):  # a NaN minimum may hide a negative
        raise ValueError("data tensor must be nonnegative")
    if cfg.beta <= 1.0 and lo < cfg.epsilon:  # max(x, eps) is x where x >= eps
        x = clamp_min(x, cfg.epsilon)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        check_domain(x, None, cfg.beta)  # raises, naming the first bad index

    f = init_factors(x.shape, cfg) if init is None else _checked_copy(init, x.shape, cfg.core_dims)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises below
        plan = _Plan(x, cfg.beta)
        loss = _mode1_terms(plan, f, cfg.beta, losses=True)  # also the next mode 1's products
    trace = LossTrace([loss])
    if not math.isfinite(loss):
        raise NumericalDomainError("non-finite loss at the starting point")

    last_eval = loss
    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        f = iterate(x, f, cfg, plan)
        if evaluated := (it % cfg.loss_eval_period == 0 or it == cfg.max_iters):
            loss = _mode1_terms(plan, f, cfg.beta, losses=True)
            if not math.isfinite(loss):
                raise NumericalDomainError(f"non-finite loss at iteration {it}")
            trace.losses.append(loss)
        trace.iter_times.append(time.perf_counter() - t0)  # its loss pass included
        if evaluated and (last_eval - loss) / max(last_eval, _TINY) < cfg.rel_tol:
            trace.converged_at = it
            break
        last_eval = loss
    return f, trace
