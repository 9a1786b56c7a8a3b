"""
Block-coordinate multiplicative updates for nonnegative Tucker
decomposition of a third-order tensor under the beta-divergence.

One outer loop updates the mode factors W, H, Q in order (each consuming
the freshest factors) and then the core, every update ending with an
elementwise maximum against a small constant so entries never reach zero.

Products work on the C-order view ``X.reshape(J*K, L)`` of the data X
(J x K x L), modelled by the mode-3 basis W (H G) times Q^T. At beta=2 the
updates are in Gram form and never build the model; at other beta the model
and the MU terms go into a workspace that `solve` makes once, so its loop
allocates nothing of the data's size. `solve` checks the data's domain
once, from its minimum and maximum, and copies it only when clamping
changes an entry; in the loop every entry is at least epsilon.
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
        if len(self.core_dims) != 3 or any(int(d) < 1 for d in self.core_dims):
            raise ValueError(f"core_dims must be three positive integers, got {self.core_dims}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not 0 <= self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")
        if self.loss_eval_period < 1:
            raise ValueError(f"loss_eval_period must be >= 1, got {self.loss_eval_period}")
        self.core_dims = tuple(int(d) for d in self.core_dims)


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

    def approximation(self, out=None):
        """The model as a J x K x L array; a view of the (J*K) x L `out` if given."""
        shape = (self.w.shape[0], self.h.shape[0], self.q.shape[0])
        return np.matmul(_mode3_basis(self), self.q.T, out=out).reshape(shape)


@dataclass
class LossTrace:
    """Objective values (index 0 is the pre-iteration loss), per-iteration
    wall-clock times, and the iteration at which the stopping rule fired."""

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


class _Workspace:
    """(J*K) x L model and scratch buffers for data `x`, the FactorSet whose
    model `m3` holds, and ``X.reshape(J*K, L) @ Q`` for the last Q asked for."""

    def __init__(self, x):
        self.x3 = x.reshape(-1, x.shape[2])
        self.m3, self.scratch = np.empty(self.x3.shape), np.empty(x.shape)
        self.s3 = self.scratch.reshape(self.x3.shape)
        self.model_of = self._q = self._xq = None

    def xq(self, q):
        if self._q is not q:
            self._xq, self._q = self.x3 @ q, q
        return self._xq


def _mode3_basis(f):
    """(J*K) x L' basis whose row j*K + k is sum_ab W[j,a] H[k,b] G[a,b,:],
    so that ``X.reshape(J*K, L)`` is modelled by ``basis @ Q.T``."""
    jc, _, lc = f.core.shape
    hg = np.matmul(f.h, f.core)  # (J', K, L')
    return (f.w @ hg.reshape(jc, -1)).reshape(-1, lc)


def _mu_terms(f, ws, beta, basis=None):
    """Overwrite the workspace with the arrays whose contractions give the
    MU numerator and denominator for the model of `f` (built from `basis`
    unless held already); at beta=1 the latter is all ones, returned as None."""
    m, s, x = ws.m3, ws.s3, ws.x3
    if ws.model_of is not f:
        np.matmul(_mode3_basis(f) if basis is None else basis, f.q.T, out=m)
    ws.model_of = None
    if beta == 1.0:
        return np.divide(x, m, out=m), None
    if beta == 0.0:  # x / uv**2 and 1 / uv
        np.reciprocal(m, out=s)
        np.multiply(x, s, out=m)
        return np.multiply(m, s, out=m), s
    np.power(m, beta - 2.0, out=s)
    np.multiply(m, s, out=m)
    return np.multiply(s, x, out=s), m


def _scale(u, num, den, cfg):
    """u times the MU ratio num/den raised to gamma(beta), clamped."""
    ratio = num / den
    gamma = gamma_exponent(cfg.beta)
    if gamma != 1.0:
        ratio **= gamma
    return clamp_min(u * ratio, cfg.epsilon)


def update_mode_factor(x, f, mode, cfg, ws=None):
    """One multiplicative update of the factor for `mode`. `ws` is the
    workspace of `solve`; a call without one makes its own."""
    ws = _Workspace(x) if ws is None else ws
    j, k, l = x.shape
    jc, kc, lc = f.core.shape
    if mode == 3:
        # x.reshape(J*K, L) ~ V Q^T with V the mode-3 basis
        v = _mode3_basis(f)
        if cfg.beta == 2.0:
            return _scale(f.q, ws.x3.T @ v, f.q @ (v.T @ v), cfg)
        n, d = _mu_terms(f, ws, cfg.beta, v)
        return _scale(f.q, n.T @ v, v.sum(axis=0) if d is None else d.T @ v, cfg)
    # x ~ U V with V[a,n,l] = sum_c B[a,n,c] Q[l,c]: contract T with Q, then B
    if mode == 1:  # B = H x_2 G, J' x K x L'
        u, b = f.w, np.matmul(f.h, f.core)
        rows = b.reshape(jc, -1)

        def contract(tq):  # (J*K) x L' -> J x J'
            return tq.reshape(j, -1) @ rows.T
    elif mode == 2:
        # B = W x_1 G, K' x J x L'; one GEMM per product, where J per-slice
        # matmuls would each wait on the BLAS threads
        u, b = f.h, (f.w @ f.core.reshape(jc, -1)).reshape(j, kc, lc).transpose(1, 0, 2)
        rows = b.reshape(kc, -1)  # a copy at factor-times-core size

        def contract(tq):  # (J*K) x L' -> K x K', copying at J x K x L' size
            return tq.reshape(j, k, lc).transpose(1, 0, 2).reshape(k, -1) @ rows.T
    else:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
    if cfg.beta == 2.0:  # V V^T = B (Q^T Q) B^T, at core size
        den = u @ ((b @ (f.q.T @ f.q)).reshape(len(rows), -1) @ rows.T)
        return _scale(u, contract(ws.xq(f.q)), den, cfg)
    n, d = _mu_terms(f, ws, cfg.beta)
    den = b.sum(axis=1) @ f.q.sum(axis=0) if d is None else contract(d @ f.q)
    return _scale(u, contract(n @ f.q), den, cfg)


def update_core(x, f, cfg, ws=None):
    """One multiplicative update of the core: the products with the
    transposed Kronecker matrix contract ``(J*K) x L`` arrays with Q, H
    and W in turn. `ws` is as for :func:`update_mode_factor`."""
    ws = _Workspace(x) if ws is None else ws
    j, k, l = x.shape
    shape = f.core.shape

    def contract(tq):  # (J*K) x L' -> J' x K' x L'
        t = np.matmul(f.h.T, tq.reshape(j, k, -1))  # (J, K', L')
        return (f.w.T @ t.reshape(j, -1)).reshape(shape)

    if cfg.beta == 2.0:  # G x_1 W^T W x_2 H^T H x_3 Q^T Q
        wg = ((f.w.T @ f.w) @ f.core.reshape(shape[0], -1)).reshape(shape)
        den = np.matmul(f.h.T @ f.h, wg) @ (f.q.T @ f.q)
        return _scale(f.core, contract(ws.xq(f.q)), den, cfg)
    n, d = _mu_terms(f, ws, cfg.beta)
    if d is None:  # the outer product of the factors' column sums
        den = np.multiply.outer(np.outer(f.w.sum(axis=0), f.h.sum(axis=0)), f.q.sum(axis=0))
    else:
        den = contract(d @ f.q)
    return _scale(f.core, contract(n @ f.q), den, cfg)


def iterate(x, f, cfg, ws=None):
    """One full outer loop: update W, H, Q in order, then the core."""
    ws = _Workspace(x) if ws is None else ws
    f = FactorSet(update_mode_factor(x, f, 1, cfg, ws), f.h, f.q, f.core)
    f = FactorSet(f.w, update_mode_factor(x, f, 2, cfg, ws), f.q, f.core)
    f = FactorSet(f.w, f.h, update_mode_factor(x, f, 3, cfg, ws), f.core)
    return FactorSet(f.w, f.h, f.q, update_core(x, f, cfg, ws))


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
        Starting point; a fresh seeded draw when omitted.
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

    f = init.copy() if init is not None else init_factors(x.shape, cfg)
    ws = _Workspace(x)
    x_term = data_term(x, cfg.beta, ws.scratch)
    trace = LossTrace()
    trace.losses.append(objective(x, f.approximation(ws.m3), cfg.beta, ws.scratch, x_term))
    ws.model_of = f  # the loss's model serves the next mode-1 update
    if not np.isfinite(trace.losses[0]):
        raise NumericalDomainError("non-finite loss at the starting point")

    last_eval = trace.losses[0]
    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        f = iterate(x, f, cfg, ws)
        trace.iter_times.append(time.perf_counter() - t0)
        if it % cfg.loss_eval_period == 0 or it == cfg.max_iters:
            loss = objective(x, f.approximation(ws.m3), cfg.beta, ws.scratch, x_term)
            ws.model_of = f
            if not np.isfinite(loss):
                raise NumericalDomainError(f"non-finite loss at iteration {it}")
            trace.losses.append(loss)
            if (last_eval - loss) / max(last_eval, _TINY) < cfg.rel_tol:
                trace.converged_at = it
                break
            last_eval = loss
    return f, trace
