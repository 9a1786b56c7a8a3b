"""
Beta-divergence kernels, the aggregate objective over tensors, and the
exponent applied to multiplicative-update ratios.

The divergence family covers half squared Euclidean distance (beta = 2),
Kullback-Leibler (beta = 1) and Itakura-Saito (beta = 0); the branch
formulas are selected by exact equality on beta.
"""

import numpy as np

from .errors import NumericalDomainError


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

    For beta <= 1 every entry of `approx` must be strictly positive, and
    for beta = 0 every entry of `x` as well; offending indices are
    reported in the error.
    """
    x = np.asarray(x, dtype=np.float64)
    approx = np.asarray(approx, dtype=np.float64)
    beta = float(beta)
    if x.shape != approx.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {approx.shape}")
    if np.any(x < 0):
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(x)), x.shape))
        raise NumericalDomainError(f"negative data entry at index {idx}")
    if beta <= 1.0 and np.any(approx <= 0):
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(approx)), approx.shape))
        raise NumericalDomainError(
            f"approximation entry <= 0 at index {idx} with beta={beta}"
        )
    if beta == 0.0:
        if np.any(x == 0):
            idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(x == 0)), x.shape))
            raise NumericalDomainError(
                f"data entry 0 at index {idx}: beta=0 divergence undefined"
            )
        r = x / approx
        return float(np.sum(r) - np.sum(np.log(r)) - x.size)
    if beta == 1.0:
        # 0 * log(0) = 0 convention for zero data entries
        xlog = x * np.log(np.where(x > 0, x, 1.0) / approx)
        return float(np.sum(np.where(x > 0, xlog, 0.0)) + np.sum(approx - x))
    return float(
        np.sum(
            x ** beta
            + (beta - 1.0) * approx ** beta
            - beta * x * approx ** (beta - 1.0)
        )
        / (beta * (beta - 1.0))
    )
