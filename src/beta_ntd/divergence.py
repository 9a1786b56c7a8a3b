"""
Beta-divergence kernels, the aggregate objective over tensors, and the
exponent applied to multiplicative-update ratios.

The divergence family covers half squared Euclidean distance (beta = 2),
Kullback-Leibler (beta = 1) and Itakura-Saito (beta = 0); the branch
formulas are selected by exact equality on beta.
"""

import numpy as np

from .errors import NumericalDomainError

_TINY = np.finfo(np.float64).tiny


def gamma_exponent(beta):
    """Exponent applied to the multiplicative-update ratio: 1/(2-beta) for
    beta < 1, 1 on [1, 2], 1/(beta-1) above 2."""
    beta = float(beta)
    if beta < 1.0:
        return 1.0 / (2.0 - beta)
    if beta <= 2.0:
        return 1.0
    return 1.0 / (beta - 1.0)


def beta_div(x, y, beta):
    """
    Beta-divergence d_beta(x|y) between two scalars.

    Parameters
    ----------
    x : float
        Nonnegative. For beta = 0 it must be strictly positive (the
        Itakura-Saito divergence diverges at x = 0).
    y : float
        Strictly positive.
    beta : float

    Returns
    -------
    float
        Nonnegative, zero iff x == y.
    """
    y = float(y)
    if y <= 0.0:
        raise NumericalDomainError(f"beta_div requires y > 0, got y={y}")
    return objective(np.float64(x), np.float64(y), beta)


def objective(x, approx, beta):
    """
    Sum of the elementwise beta-divergence between two same-shaped
    nonnegative tensors.

    The inputs must pass :func:`check_domain`, whose error names the
    offending index.
    """
    x = np.asarray(x, dtype=np.float64)
    approx = np.asarray(approx, dtype=np.float64)
    beta = float(beta)
    if x.shape != approx.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {approx.shape}")
    check_domain(x, approx, beta)
    return unchecked_objective(x, approx, beta)


def check_domain(x, approx, beta):
    """Raise NumericalDomainError at the first index where the divergence of
    `x` from `approx` (None: `x` alone) is undefined: `x` not finite or
    negative, `x` zero where beta <= 0, `approx` <= 0 where beta <= 1."""
    for bad, what in (
        (~np.isfinite(x), "non-finite data entry"),
        (x < 0, "negative data entry"),
        (x == 0 if beta <= 0 else None, f"data entry 0 (undefined at beta={beta:g})"),
        (approx <= 0 if approx is not None and beta <= 1 else None,
         f"approximation entry <= 0 with beta={beta:g}"),
    ):
        if bad is not None and bad.any():
            idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
            raise NumericalDomainError(f"{what} at index {idx}")


def data_term(x, beta, out=None):
    """The objective's sum over `x` alone (None at beta=0); `out` takes x**beta."""
    if beta == 0.0:
        return None
    return np.sum(x) if beta == 1.0 else np.sum(np.power(x, beta, out=out))


def unchecked_objective(x, approx, beta, out=None, x_term=None, ratio_in_out=False):
    """:func:`objective` without its checks, for callers that checked once
    that `x` is finite and nonnegative (positive at beta=0), `approx`
    positive where beta <= 1, and both are same-shaped float arrays; the
    scratch `out` and ``x_term = data_term(x, beta)`` are made if omitted.
    At beta=1, `ratio_in_out` says that `out` already holds x/approx, which
    is the loss's max(x, tiny)/approx where every x is at least tiny."""
    # one scratch array: a fresh large temporary costs more in page faults
    # than the arithmetic done in it
    r = np.empty(np.shape(x)) if out is None else out
    if beta == 0.0:
        np.divide(x, approx, out=r)
        total = np.add.reduce(r, axis=None)
        return float(total - np.add.reduce(np.log(r, out=r), axis=None) - x.size)
    x_term = data_term(x, beta, r) if x_term is None else x_term
    if beta == 1.0:
        # 0 * log(0) = 0: zero entries enter the logarithm as the smallest
        # normal float, which their zero weight cancels
        if not ratio_in_out:
            np.divide(np.maximum(x, _TINY, out=r), approx, out=r)
        return float(np.vdot(x, np.log(r, out=r)) + np.add.reduce(approx, axis=None) - x_term)
    power = approx if beta == 2.0 else np.power(approx, beta - 1.0, out=r)
    return float(
        (x_term + (beta - 1.0) * np.vdot(power, approx) - beta * np.vdot(x, power))
        / (beta * (beta - 1.0))
    )
