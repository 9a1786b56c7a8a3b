"""
Block-coordinate multiplicative updates for nonnegative Tucker
decomposition of a third-order tensor under the beta-divergence.

One outer loop updates the mode factors W, H, Q in order (each consuming
the freshest factors) and then the core, every update ending with an
elementwise maximum against a small constant so entries never reach zero.

Products work on C-order views of the data X (J x K x L): mode 1 on
``X.reshape(J, K*L)``, modes 2 and 3 and the core on ``X.reshape(J*K, L)``,
contracted with Q first for mode 2 and the core. Each contracted basis is
built in the matching column order at core or factor size, so no unfolding
of X and no Kronecker product is ever formed. `solve` checks the data's
domain once; in the loop every entry is at least epsilon.
"""

import time
from dataclasses import dataclass, field

import numpy as np

# solve checks the data once, so the loss it evaluates needs no domain scans
from .divergence import check_domain, gamma_exponent, unchecked_objective as objective
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
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if len(self.core_dims) != 3 or any(int(d) < 1 for d in self.core_dims):
            raise ValueError(f"core_dims must be three positive integers, got {self.core_dims}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.rel_tol < 0:
            raise ValueError(f"rel_tol must be >= 0, got {self.rel_tol}")
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

    def approximation(self):
        shape = (self.w.shape[0], self.h.shape[0], self.q.shape[0])
        return (_mode3_basis(self) @ self.q.T).reshape(shape)


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


def _mode3_basis(f):
    """(J*K) x L' basis whose row j*K + k is sum_ab W[j,a] H[k,b] G[a,b,:],
    so that ``X.reshape(J*K, L)`` is modelled by ``basis @ Q.T``."""
    jc, _, lc = f.core.shape
    hg = np.matmul(f.h, f.core)  # (J', K, L')
    return (f.w @ hg.reshape(jc, -1)).reshape(-1, lc)


def _mu_terms(m, uv, beta):
    """The arrays whose contractions with the basis give the MU numerator
    and denominator for data M modelled by UV, overwriting `uv`. At beta=1
    the denominator's array is all ones, returned as None."""
    if beta == 1.0:
        return np.divide(m, uv, out=uv), None
    if beta == 2.0:
        return m, uv
    p = uv ** (beta - 2.0)
    np.multiply(p, uv, out=uv)
    return np.multiply(p, m, out=p), uv


def _scale(u, num, den, cfg):
    """u times the MU ratio num/den raised to gamma(beta), clamped."""
    ratio = num / den
    gamma = gamma_exponent(cfg.beta)
    if gamma != 1.0:
        ratio **= gamma
    return clamp_min(u * ratio, cfg.epsilon)


def update_mode_factor(x, f, mode, cfg):
    """One multiplicative update of the factor for `mode`, with the data
    and the contracted basis in matching C-order layouts."""
    j, k, l = x.shape
    jc, kc, lc = f.core.shape
    if mode == 1:
        # x.reshape(J, K*L) ~ W V, V[a, k*L + l] = sum_bc H[k,b] G[a,b,c] Q[l,c]
        v = (np.matmul(f.h, f.core).reshape(-1, lc) @ f.q.T).reshape(jc, -1)
        n, d = _mu_terms(x.reshape(j, -1), f.w @ v, cfg.beta)
        den = v.sum(axis=1) if d is None else d @ v.T
        return _scale(f.w, n @ v.T, den, cfg)
    if mode == 2:
        # x[j] ~ H V[j], V[j, b, l] = sum_c WG[j,b,c] Q[l,c] with WG = W x_1 G;
        # contracting with Q first keeps every product one GEMM, where J
        # per-slice matmuls would each wait on the BLAS threads
        wg = (f.w @ f.core.reshape(jc, -1)).reshape(j, kc, lc).transpose(1, 0, 2)
        wg_rows = wg.reshape(kc, -1)  # K' x (J*L'), a copy at factor-times-core size
        n, d = _mu_terms(x.reshape(-1, l), _mode3_basis(f) @ f.q.T, cfg.beta)

        def contract(t):  # (J*K) x L -> K x K', copying at J x K x L' size
            return (t @ f.q).reshape(j, k, lc).transpose(1, 0, 2).reshape(k, -1) @ wg_rows.T

        den = wg.sum(axis=1) @ f.q.sum(axis=0) if d is None else contract(d)
        return _scale(f.h, contract(n), den, cfg)
    if mode == 3:
        # x.reshape(J*K, L) ~ V Q^T with V the mode-3 basis
        v = _mode3_basis(f)
        n, d = _mu_terms(x.reshape(-1, l), v @ f.q.T, cfg.beta)
        den = v.sum(axis=0) if d is None else d.T @ v
        return _scale(f.q, n.T @ v, den, cfg)
    raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")


def update_core(x, f, cfg):
    """One multiplicative update of the core: the approximation is the
    mode-3 basis times Q^T, and the products with the transposed
    Kronecker matrix contract ``(J*K) x L`` arrays with Q, H and W in turn."""
    j, k, l = x.shape
    shape = f.core.shape

    def contract(t):
        t = np.matmul(f.h.T, (t @ f.q).reshape(j, k, -1))  # (J, K', L')
        return (f.w.T @ t.reshape(j, -1)).reshape(shape)

    n, d = _mu_terms(x.reshape(-1, l), _mode3_basis(f) @ f.q.T, cfg.beta)
    if d is None:  # the outer product of the factors' column sums
        den = np.multiply.outer(np.outer(f.w.sum(axis=0), f.h.sum(axis=0)), f.q.sum(axis=0))
    else:
        den = contract(d)
    return _scale(f.core, contract(n), den, cfg)


def iterate(x, f, cfg):
    """One full outer loop: update W, H, Q in order, then the core."""
    f = FactorSet(update_mode_factor(x, f, 1, cfg), f.h, f.q, f.core)
    f = FactorSet(f.w, update_mode_factor(x, f, 2, cfg), f.q, f.core)
    f = FactorSet(f.w, f.h, update_mode_factor(x, f, 3, cfg), f.core)
    return FactorSet(f.w, f.h, f.q, update_core(x, f, cfg))


def solve(x, cfg, init=None, clamp_data=None):
    """
    Run multiplicative updates until the iteration budget is exhausted or
    the relative loss decrease over one evaluation period falls below
    cfg.rel_tol.

    Parameters
    ----------
    x : ndarray, shape (J, K, L)
        Nonnegative, finite data tensor.
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
    if np.any(x < 0):
        raise ValueError("data tensor must be nonnegative")
    if clamp_data is None:
        clamp_data = cfg.beta <= 1.0
    if clamp_data:
        x = clamp_min(x, cfg.epsilon)
    check_domain(x, None, cfg.beta)

    f = init.copy() if init is not None else init_factors(x.shape, cfg)
    trace = LossTrace()
    trace.losses.append(objective(x, f.approximation(), cfg.beta))
    if not np.isfinite(trace.losses[0]):
        raise NumericalDomainError("non-finite loss at the starting point")

    last_eval = trace.losses[0]
    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        f = iterate(x, f, cfg)
        trace.iter_times.append(time.perf_counter() - t0)
        if it % cfg.loss_eval_period == 0 or it == cfg.max_iters:
            loss = objective(x, f.approximation(), cfg.beta)
            if not np.isfinite(loss):
                raise NumericalDomainError(f"non-finite loss at iteration {it}")
            trace.losses.append(loss)
            if (last_eval - loss) / max(last_eval, _TINY) < cfg.rel_tol:
                trace.converged_at = it
                break
            last_eval = loss
    return f, trace
