"""
Block-coordinate multiplicative updates for nonnegative Tucker
decomposition of a third-order tensor under the beta-divergence.

One outer loop updates the mode factors W, H, Q in order (each consuming
the freshest factors) and then the core. Every update is one MU step,
u <- max(u (N/D)^gamma(beta), epsilon), so entries never reach zero.

Products work on the C-order view ``X.reshape(J*K, L)`` of the data X
(J x K x L), modelled by the mode-3 basis W (H G) times Q^T. Updates and
losses stream the view in slabs of whole mode-1 slices that stay in L2
cache with their model and MU terms, n and d stacked at beta other than 1
and 2. Each slab writes its terms times Q into its rows of one T Q buffer,
which modes 1 and 2 and the core contract whole, one batched GEMM each;
mode 3, whose products need the terms themselves, adds each slab's share
into the first's, in slab order. At beta=2 the denominators are in Gram
form and only the loss builds a model. `solve` plans the slabs once, and
the plan keeps one step state: the factors of one iterate and the
products made from them (H x_2 G, the mode-3 basis, Q^T, Q's statistic,
and at beta=2 X Q in the T Q buffer). Each slab pass first moves the
state to its update's factors, remaking only what the update before made
stale, so each product is made once per new factor; mode 1 reads the T Q
that the loss pass left. `solve` checks the data's domain once, from its
minimum and maximum, and at beta <= 1 raises it to epsilon, a normal
float, copying it only when that changes an entry.
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
        """The model as a J x K x L array, by the same products as the loss
        pass's: the mode-3 basis W (H x_2 G), as (J*K) x L', times Q^T."""
        hg = np.matmul(self.h, self.core)
        basis = (self.w @ hg.reshape(len(hg), -1)).reshape(-1, hg.shape[2])
        m = np.matmul(basis, np.ascontiguousarray(self.q.T))
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


_SLAB_ENTRIES = 38400  # data entries per slab, unless one mode-1 slice has more


def _slabs(dims, entries):
    """Cut J x K x L data into slabs of whole mode-1 slices, about `entries`
    entries each: per slab, its mode-1 range and its rows of the (J*K) x L view."""
    j, k, l = dims
    bands = max(1, entries // (k * l))
    return tuple((slice(a, a + bands), slice(a * k, (a + bands) * k)) for a in range(0, j, bands))


class _Plan:
    """The slabs of data `x` and one step state, for updates of factors
    shaped as `f`'s at cfg's `beta`, `eps` (epsilon) and `gamma` = gamma(beta).

    Per slab: its rows of ``x.reshape(J*K, L)``, their view, its data term
    (if the plan evaluates `losses`), its model and scratch views, apart and
    stacked, into one buffer pair of the first (largest) slab's size, and
    its rows of the T Q buffer `tq`, J x K x L' (n and d stacked ahead at
    beta other than 1 and 2), which `tq1` views as J x (K*L').

    The step state is the factors `w`, `h`, `q`, `core` it was made at and
    what was made from them: `hg` = H x_2 G, the mode-3 `basis`, (J*K) x L'
    (None until a pass needs it), `qt` = Q^T and Q's statistic `stat` (its
    column sums at beta=1, Q^T Q at beta=2, else None). `xq` says that `tq`
    holds X Q at `q` (only ever at beta=2), and `at` is the FactorSet whose
    T Q the loss pass left in `tq` for mode 1 (None once the state moves)."""

    def __init__(self, x, f, cfg, losses=False):
        (j, k, l), beta = x.shape, cfg.beta
        self.beta, self.eps, self.gamma = beta, cfg.epsilon, gamma_exponent(beta)
        self.tq = np.empty((() if beta in (1.0, 2.0) else (2,)) + (j, k, f.q.shape[1]))
        self.tq1, tq2 = (self.tq.reshape(self.tq.shape[:-3] + d) for d in ((j, -1), (j * k, -1)))
        x3 = x.reshape(-1, l)
        cuts = [(r, rows, x3[rows]) for r, rows in _slabs(x.shape, _SLAB_ENTRIES)]
        pair = np.empty((2,) + cuts[0][2].shape)
        self.slabs = [(rows, xs, data_term(x[r], beta) if losses else None, *pair[:, :len(xs)],
                       pair[:, :len(xs)], tq2[..., rows, :]) for r, rows, xs in cuts]
        self.w = self.h = self.q = self.core = self.at = None


def _pass(plan, f, losses=False, mode3=False):
    """Move the step state to f's factors, remaking what a factor new to it
    makes stale, then stream the data in the plan's slabs. Per slab: its
    model from the mode-3 basis V (at beta=2 only for the loss), its loss if
    `losses`, and its MU terms t: n alone at beta 1 and 2, where d is all
    ones or the model, else n and d stacked. For mode 3, return the sum of
    ``t^T V[rows]`` over the slabs, added in place in slab order. Else write
    each slab's ``t Q`` into its rows of the T Q buffer and return the loss
    (0 without `losses`); a loss pass leaves `plan.at` = f. At beta=2 T Q is
    X Q, kept per Q, so a pass without the loss at a Q that has it reads no data."""
    beta = plan.beta
    if plan.q is not f.q:
        q = plan.q = f.q
        plan.qt, plan.xq = np.ascontiguousarray(q.T), False
        plan.stat = np.add.reduce(q) if beta == 1.0 else q.T @ q if beta == 2.0 else None
    if plan.h is not f.h or plan.core is not f.core:
        plan.h, plan.core, plan.hg, plan.basis = f.h, f.core, np.matmul(f.h, f.core), None
    elif plan.w is not f.w:
        plan.basis = None
    plan.w, plan.at = f.w, f if losses else None
    basis, write, model = plan.basis, not (mode3 or plan.xq), losses or beta != 2.0
    if basis is None and (model or mode3):  # at beta=2 the MU terms are the data
        hg = plan.hg
        basis = plan.basis = (plan.w @ hg.reshape(len(hg), -1)).reshape(-1, hg.shape[2])
    nd, loss = None, 0.0
    for rows, xs, x_term, m, s, ms, out in plan.slabs if write or losses or mode3 else ():
        if model:
            np.matmul(basis[rows], plan.qt, out=m)
        if losses and beta != 1.0:
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
        if mode3:
            part = t.swapaxes(-1, -2) @ basis[rows]
            nd = part if nd is None else np.add(nd, part, out=nd)
        elif write:
            np.matmul(t, plan.q, out=out)
        if losses and beta == 1.0:  # the loss takes its log of x/m in s, once t Q has read it
            loss += objective(xs, m, beta, s, x_term, ratio_in_out=True)
    if not mode3:  # at beta=2 the buffer now holds X Q
        plan.xq = beta == 2.0
    return nd if mode3 else loss


def _mu(plan, u, nd, den):
    """The MU step: u times N/D to the power gamma(beta), clamped at epsilon.
    N and D are `nd` stacked where `den` is None, else `nd` and `den`."""
    num, den = nd if den is None else (nd, den)
    ratio = num / den
    if plan.gamma != 1.0:
        ratio **= plan.gamma
    ratio *= u
    return np.maximum(ratio, plan.eps, out=ratio)


def update_mode_factor(x, f, mode, cfg, plan=None):
    """One multiplicative update of the factor for `mode`. `plan`, made from
    `cfg` if omitted, is the :class:`_Plan` of `x` whose beta and epsilon the
    update uses; its step state moves to f's factors, and mode 1 reads the
    T Q that a loss pass at `f` left."""
    plan = _Plan(x, f, cfg) if plan is None else plan
    beta = plan.beta
    if mode == 3:  # x.reshape(J*K, L) ~ V Q^T with V the mode-3 basis
        nd, v = _pass(plan, f, mode3=True), plan.basis
        den = f.q @ (v.T @ v) if beta == 2.0 else np.add.reduce(v) if beta == 1.0 else None
        return _mu(plan, f.q, nd, den)  # D: Q (V^T V) at beta=2, V's column sums at 1
    # x ~ U V with V[a,n,l] = sum_c B[a,n,c] Q[l,c]: contract T Q with B
    if mode == 1:  # B = H x_2 G, J' x K x L'
        if plan.at is not f:  # else the loss pass at f left its T Q
            _pass(plan, f)
        u, b, tq = f.w, plan.hg, plan.tq1  # T Q as J x (K*L')
    elif mode == 2:  # B = W x_1 G, K' x J x L', in one product
        _pass(plan, f)
        u, b, tq = f.h, np.matmul(f.w, f.core.transpose(1, 0, 2)), plan.tq
        tq = tq.swapaxes(-3, -2).reshape(tq.shape[:-3] + (len(u), -1))  # K x (J*L'), a copy
    else:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
    nd, den = tq @ b.reshape(len(b), -1).T, None
    if beta == 2.0:  # V V^T = B (Q^T Q) B^T, at core size
        den = u @ ((b @ plan.stat).reshape(len(b), -1) @ b.reshape(len(b), -1).T)
    elif beta == 1.0:  # Q's column sums
        den = np.add.reduce(b, axis=1) @ plan.stat
    return _mu(plan, u, nd, den)


def update_core(x, f, cfg, plan=None):
    """One multiplicative update of the core: the products with the
    transposed Kronecker matrix contract the MU terms with Q, H and W in
    turn. `plan` is as for :func:`update_mode_factor`."""
    plan = _Plan(x, f, cfg) if plan is None else plan
    beta, shape = plan.beta, f.core.shape
    _pass(plan, f)
    th = np.matmul(f.h.T, plan.tq)  # J x K' x L'
    lead = th.shape[:-3]
    nd, den = (f.w.T @ th.reshape(lead + (len(f.w), -1))).reshape(lead + shape), None
    if beta == 2.0:  # G x_1 W^T W x_2 H^T H x_3 Q^T Q
        wg = ((f.w.T @ f.w) @ f.core.reshape(shape[0], -1)).reshape(shape)
        den = np.matmul(f.h.T @ f.h, wg) @ plan.stat
    elif beta == 1.0:  # the outer product of the factors' column sums
        den = (np.add.reduce(f.w)[:, None] * np.add.reduce(f.h))[:, :, None] * plan.stat
    return _mu(plan, f.core, nd, den)


def iterate(x, f, cfg, plan=None):
    """One full outer loop: update W, H, Q in order, then the core, all with
    one `plan` (:func:`update_mode_factor`), made if omitted."""
    plan = _Plan(x, f, cfg) if plan is None else plan
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a non-finite loss raises
        plan = _Plan(x, f, cfg, losses=True)
        loss = _pass(plan, f, losses=True)  # its T Q is the next mode 1's
        trace = LossTrace([loss])
        if not math.isfinite(loss):
            raise NumericalDomainError("non-finite loss at the starting point")

        last_eval = loss
        for it in range(1, cfg.max_iters + 1):
            t0 = time.perf_counter()
            f = iterate(x, f, cfg, plan)
            if evaluated := (it % cfg.loss_eval_period == 0 or it == cfg.max_iters):
                loss = _pass(plan, f, losses=True)
                if not math.isfinite(loss):
                    raise NumericalDomainError(f"non-finite loss at iteration {it}")
                trace.losses.append(loss)
            trace.iter_times.append(time.perf_counter() - t0)  # its loss pass included
            if evaluated and (last_eval - loss) / max(last_eval, _TINY) < cfg.rel_tol:
                trace.converged_at = it
                break
            last_eval = loss
    return f, trace
