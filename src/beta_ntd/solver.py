"""
Block-coordinate multiplicative updates for nonnegative Tucker
decomposition of a third-order tensor under the beta-divergence.

One outer loop updates the mode factors W, H, Q in order (each consuming
the freshest factors) and then the core, every update ending with an
elementwise maximum against a small constant so entries never reach zero.

Products work on the C-order view ``X.reshape(J*K, L)`` of the data X
(J x K x L), modelled by the mode-3 basis W (H G) times Q^T. Updates and
losses stream the view in slabs of whole mode-1 slices that stay in L2
cache with their model and MU terms, contracted per slab to factor size:
nothing of the data's size is made. `solve` plans the slabs once, with one
model and one scratch buffer that every slab reuses. At beta=2 the
denominators are in Gram form and only the loss builds a model. Each mode-1
pass, the loss pass included, leaves its products (and X Q at beta=2) in the
plan, keyed by the factors they were made at. `solve` checks the data's
domain once, from its minimum and maximum, and copies it only when
clamping changes an entry; in the loop every entry is at least epsilon.
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

_TINY = np.finfo(np.float64).tiny


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
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        dims = self.core_dims  # counts are whole numbers: is_integer() is False for NaN and inf
        if len(dims) != 3 or not all(float(d).is_integer() and int(d) >= 1 for d in dims):
            raise ValueError(f"core_dims must be three positive integers, got {dims}")
        if not (float(self.max_iters).is_integer() and self.max_iters >= 0):
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters}")
        if not 0 <= self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")
        if not (float(self.loss_eval_period).is_integer() and self.loss_eval_period >= 1):
            raise ValueError(f"loss_eval_period must be an integer >= 1, got {self.loss_eval_period}")
        self.core_dims = tuple(int(d) for d in dims)
        self.max_iters, self.loss_eval_period = int(self.max_iters), int(self.loss_eval_period)


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


def _mode3_basis(f):
    """(J*K) x L' basis whose row j*K + k is sum_ab W[j,a] H[k,b] G[a,b,:],
    so that ``X.reshape(J*K, L)`` is modelled by ``basis @ Q.T``."""
    jc, _, lc = f.core.shape
    hg = np.matmul(f.h, f.core)  # (J', K, L')
    return (f.w @ hg.reshape(jc, -1)).reshape(-1, lc)


_SLAB_ENTRIES = 38400  # data entries per slab, unless one mode-1 slice has more


def _slabs(dims, entries):
    """Cut J x K x L data into slabs of whole mode-1 slices, about `entries`
    entries each: per slab, its mode-1 range and its rows of the (J*K) x L view."""
    j, k, l = dims
    bands = max(1, entries // (k * l))
    return tuple((slice(a, a + bands), slice(a * k, (a + bands) * k)) for a in range(0, j, bands))


class _Plan:
    """Per slab of data `x`: its mode-1 range, rows of ``x.reshape(J*K, L)``,
    their view and (given `beta`) data term; model and scratch buffers of the
    first (largest) slab's size; whether x/m is the beta=1 loss's
    max(x, tiny)/m; and the slot that :func:`_mode1_terms` fills, or None."""

    def __init__(self, x, beta=None, lo=0.0):
        self.x3 = x3 = x.reshape(-1, x.shape[2])
        self.slabs = [(r, rows, x3[rows], None if beta is None else data_term(x[r], beta))
                      for r, rows in _slabs(x.shape, _SLAB_ENTRIES)]
        self.model, self.scratch = np.empty((2,) + self.slabs[0][2].shape)
        self.shared_ratio = lo >= _TINY
        self.slot = None


def _pass(plan, f, beta, share, combine=np.add, losses=False, v=None):
    """Stream the data in the plan's slabs. Per slab: its model from the
    mode-3 basis `v` (made unless given; at beta=2 only for the loss), its
    loss if `losses`, and ``share(t, r, rows)`` of its MU terms n and d.
    Return n's and d's shares folded by `combine` (d's None at beta 1 and
    2, where d is all ones or the model) and the loss or None."""
    if beta == 2.0 and not losses:  # the MU terms are the data: no model
        v = None
    elif v is None:
        v = _mode3_basis(f)
    qt = None if v is None else np.ascontiguousarray(f.q.T)
    shared = losses and beta == 1.0 and plan.shared_ratio
    num, den, loss = None, None, 0.0 if losses else None
    for r, rows, xs, x_term in plan.slabs:
        if v is not None:
            m = np.matmul(v[rows], qt, out=plan.model[:len(xs)])
            s = plan.scratch[:len(xs)]
        if losses and not shared:
            loss += objective(xs, m, beta, s, x_term)
        # n and d are made in place in m and s
        if beta == 2.0:
            n, d = xs, None
        elif beta == 1.0:
            n, d = np.divide(xs, m, out=s if shared else m), None
        elif beta == 0.0:  # x / m**2 and 1 / m
            d = np.reciprocal(m, out=s)
            n = np.multiply(np.multiply(xs, s, out=m), s, out=m)
        else:  # x m**(beta-2) and m**(beta-1)
            np.power(m, beta - 2.0, out=s)
            d = np.multiply(m, s, out=m)
            n = np.multiply(s, xs, out=s)
        num = share(n, r, rows) if num is None else combine(num, share(n, r, rows))
        if d is not None:
            den = share(d, r, rows) if den is None else combine(den, share(d, r, rows))
        if shared:  # the loss takes its log of x/m in s, once the share has read it
            loss += objective(xs, m, beta, s, x_term, ratio_in_out=True)
    return num, den, loss


def _scale(u, num, den, cfg):
    """u times the MU ratio num/den raised to gamma(beta), clamped."""
    ratio = num / den
    gamma = gamma_exponent(cfg.beta)
    if gamma != 1.0:
        ratio **= gamma
    ratio *= u
    return np.maximum(ratio, cfg.epsilon, out=ratio)


def _mode1_terms(plan, f, beta, losses=False):
    """Fill the plan's slot with ``(f, B, num, den, X Q)``: B = H x_2 G, mode 1's
    MU products at `f` (each slab gives its rows) and X Q at beta=2, else None.
    Mode 1 reads it only at that `f`, mode 2 only at that Q. Return the loss if `losses`."""
    plan.slot = None  # its X Q goes before the next one is made
    b = np.matmul(f.h, f.core)  # J' x K x L'
    bt = b.reshape(len(b), -1).T
    xq = np.empty((len(plan.x3), f.q.shape[1])) if beta == 2.0 else None

    def share(t, r, rows):
        tq = t @ f.q if xq is None else np.matmul(t, f.q, out=xq[rows])
        return tq.reshape(-1, len(bt)) @ bt

    num, den, loss = _pass(plan, f, beta, share, lambda a, c: np.concatenate((a, c)), losses)
    plan.slot = f, b, num, den, xq
    return loss


def update_mode_factor(x, f, mode, cfg, plan=None):
    """One multiplicative update of the factor for `mode`. `plan`, made if
    omitted, is the :class:`_Plan` of `x`, whose slot serves where valid."""
    j, k, _ = x.shape
    jc, kc, lc = f.core.shape
    plan = _Plan(x) if plan is None else plan
    if mode == 3:  # x.reshape(J*K, L) ~ V Q^T with V the mode-3 basis
        v = _mode3_basis(f)
        num, den, _ = _pass(plan, f, cfg.beta, lambda t, r, rows: t.T @ v[rows], v=v)
        if cfg.beta == 2.0:
            den = f.q @ (v.T @ v)
        return _scale(f.q, num, v.sum(axis=0) if den is None else den, cfg)
    # x ~ U V with V[a,n,l] = sum_c B[a,n,c] Q[l,c]: contract T with Q, then B
    if mode == 1:  # B = H x_2 G, J' x K x L'
        if plan.slot is None or plan.slot[0] is not f:
            _mode1_terms(plan, f, cfg.beta)
        u, (_, b, num, den, _) = f.w, plan.slot
    elif mode == 2:
        # B = W x_1 G, K' x J x L'; one GEMM per slab and product, where J
        # per-slice matmuls would each wait on the BLAS threads
        u, b = f.h, (f.w @ f.core.reshape(jc, -1)).reshape(j, kc, lc).transpose(1, 0, 2)
        rows = b.reshape(kc, -1)  # a copy at factor-times-core size
        xq = plan.slot[4] if plan.slot is not None and plan.slot[0].q is f.q else None

        def share(t, r, slab_rows):  # slab rows x L -> K x K', copying at slab-times-L'/L size
            tq = t @ f.q if xq is None else xq[slab_rows]
            tq = tq.reshape(-1, k, lc).transpose(1, 0, 2).reshape(k, -1)
            return tq @ rows[:, r.start * lc:r.stop * lc].T

        num, den, _ = _pass(plan, f, cfg.beta, share)
    else:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
    if cfg.beta == 2.0:  # V V^T = B (Q^T Q) B^T, at core size
        den = u @ ((b @ (f.q.T @ f.q)).reshape(len(b), -1) @ b.reshape(len(b), -1).T)
    elif den is None:
        den = b.sum(axis=1) @ f.q.sum(axis=0)
    return _scale(u, num, den, cfg)


def update_core(x, f, cfg, plan=None):
    """One multiplicative update of the core: the products with the
    transposed Kronecker matrix contract each slab's MU terms with Q, H
    and W in turn. `plan` is as for :func:`update_mode_factor`."""
    k = x.shape[1]
    shape = f.core.shape

    def share(t, r, _):  # slab rows x L -> J' x K' x L'
        th = np.matmul(f.h.T, (t @ f.q).reshape(-1, k, shape[2]))  # (slices, K', L')
        return (f.w[r].T @ th.reshape(len(th), -1)).reshape(shape)

    num, den, _ = _pass(_Plan(x) if plan is None else plan, f, cfg.beta, share)
    if cfg.beta == 2.0:  # G x_1 W^T W x_2 H^T H x_3 Q^T Q
        wg = ((f.w.T @ f.w) @ f.core.reshape(shape[0], -1)).reshape(shape)
        den = np.matmul(f.h.T @ f.h, wg) @ (f.q.T @ f.q)
    elif den is None:  # the outer product of the factors' column sums
        den = np.multiply.outer(np.outer(f.w.sum(axis=0), f.h.sum(axis=0)), f.q.sum(axis=0))
    return _scale(f.core, num, den, cfg)


def iterate(x, f, cfg, plan=None):
    """One full outer loop: update W, H, Q in order, then the core, all with
    one `plan` (:func:`update_mode_factor`), made if omitted."""
    plan = _Plan(x) if plan is None else plan
    f = FactorSet(update_mode_factor(x, f, 1, cfg, plan=plan), f.h, f.q, f.core)
    f = FactorSet(f.w, update_mode_factor(x, f, 2, cfg, plan=plan), f.q, f.core)
    f = FactorSet(f.w, f.h, update_mode_factor(x, f, 3, cfg, plan=plan), f.core)
    return FactorSet(f.w, f.h, f.q, update_core(x, f, cfg, plan=plan))


def solve(x, cfg, init=None, clamp_data=None):
    """
    Run multiplicative updates until the iteration budget is exhausted or
    the relative loss decrease over one evaluation period falls below
    cfg.rel_tol.

    Parameters
    ----------
    x : ndarray, shape (J, K, L)
        Nonnegative, finite, non-empty data tensor.
    cfg : SolverConfig
    init : FactorSet, optional
        Starting point, shaped by the data and cfg.core_dims, with finite
        nonnegative entries; a fresh seeded draw when omitted.
    clamp_data : bool, optional
        Clamp the data to cfg.epsilon before solving. Defaults to True
        when beta <= 1 (where zero data entries make the divergence
        undefined or unbounded) and False otherwise.

    Returns
    -------
    (FactorSet, LossTrace)
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={x.ndim}")
    if x.size == 0:
        raise ValueError(f"data tensor must not be empty, got shape {x.shape}")
    lo, hi = float(x.min()), float(x.max())  # NaN propagates to both
    if not lo >= 0 and np.any(x < 0):  # a NaN minimum may hide a negative
        raise ValueError("data tensor must be nonnegative")
    if clamp_data is None:
        clamp_data = cfg.beta <= 1.0
    if clamp_data and lo < cfg.epsilon:  # max(x, eps) is x where x >= eps
        x, lo = clamp_min(x, cfg.epsilon), cfg.epsilon
    if not (math.isfinite(lo) and math.isfinite(hi)) or (lo == 0 and cfg.beta <= 0):
        check_domain(x, None, cfg.beta)  # raises, naming the first bad index

    f = init_factors(x.shape, cfg) if init is None else _checked_copy(init, x.shape, cfg.core_dims)
    plan = _Plan(x, cfg.beta, lo)
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
