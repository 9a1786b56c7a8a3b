"""
Dense third-order tensor operations: matricization, folding, mode-n
products, contracted unfoldings, and the tensor and matrix file formats.

Tensors are plain numpy arrays with ``ndim == 3`` and matrices are 2D
arrays. Data is stored in C order, i.e. the mode-1 index varies slowest.
Unfoldings follow the convention where the column index of the mode-n
unfolding runs over the remaining modes with the lower-numbered mode
varying fastest; that order is not the C layout's in any mode,
so :func:`matricize` copies. The solver does not unfold: it works on
C-order reshapes of the data with bases built in the same column order
(see :mod:`beta_ntd.solver`).

Kronecker products are never formed here; the contracted-unfolding route
replaces them.
"""

import numpy as np

from . import textio
from .errors import NumericalDomainError

_MODES = (1, 2, 3)


def _check_mode(mode):
    if mode not in _MODES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")


def _as_tensor3(t):
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    return t


def _as_matrix(m):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


def matricize(t, mode):
    """
    Mode-`mode` unfolding of a third-order tensor.

    Parameters
    ----------
    t : ndarray, shape (J, K, L)
    mode : int
        Mode to unfold along, 1-based.

    Returns
    -------
    ndarray
        Matrix of shape ``(t.shape[mode-1], prod of other dims)``. Columns
        enumerate the remaining modes with the lower-numbered mode varying
        fastest.
    """
    _check_mode(mode)
    t = _as_tensor3(t)
    axis = mode - 1
    return np.reshape(np.moveaxis(t, axis, 0), (t.shape[axis], -1), order="F")


def fold(m, mode, dims):
    """
    Inverse of :func:`matricize`: refold a mode-`mode` unfolding into a
    tensor of shape `dims`.

    Parameters
    ----------
    m : ndarray
        Mode-`mode` unfolding, shape ``(dims[mode-1], prod of other dims)``.
    mode : int
    dims : tuple of int
        Target tensor shape (J, K, L).

    Returns
    -------
    ndarray, shape `dims`
    """
    _check_mode(mode)
    m = _as_matrix(m)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ValueError(f"dims must be three positive integers, got {dims}")
    axis = mode - 1
    other = [d for i, d in enumerate(dims) if i != axis]
    if m.shape != (dims[axis], other[0] * other[1]):
        raise ValueError(
            f"matrix shape {m.shape} does not match mode-{mode} unfolding "
            f"of dims {dims}"
        )
    t = np.reshape(m, (dims[axis], other[0], other[1]), order="F")
    return np.moveaxis(t, 0, axis)


def mode_product(t, m, mode):
    """
    Mode-`mode` product of a tensor with a matrix.

    Equivalent to refolding ``m @ matricize(t, mode)``; the output replaces
    ``t.shape[mode-1]`` with ``m.shape[0]``.
    """
    _check_mode(mode)
    t = _as_tensor3(t)
    m = _as_matrix(m)
    axis = mode - 1
    if m.shape[1] != t.shape[axis]:
        raise ValueError(
            f"inner dimension mismatch: matrix has {m.shape[1]} columns, "
            f"tensor mode {mode} has size {t.shape[axis]}"
        )
    out = np.tensordot(m, t, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def multiway_product(g, w, h, q):
    """
    Product of a core tensor with one matrix per mode,
    ``g x_1 w x_2 h x_3 q``, applying the mode products in increasing
    mode order.
    """
    g = _as_tensor3(g)
    for mat, mode in ((w, 1), (h, 2), (q, 3)):
        g = mode_product(g, mat, mode)
    return g


def contracted_unfolding(g, a, b, mode):
    """
    Mode-`mode` unfolding of `g` with the two other modes contracted by
    `a` and `b`.

    `a` acts on the lower-numbered and `b` on the higher-numbered of the
    two remaining modes. For mode 1 this computes
    ``matricize(g x_2 a x_3 b, 1)``, which equals the unfolded-times-
    Kronecker-transpose matrix without ever materializing the Kronecker
    product.
    """
    _check_mode(mode)
    g = _as_tensor3(g)
    # (mode, lower, higher) @ b.T, then (mode, higher, lower) @ a.T: the
    # lower mode ends up fastest, so a C-order reshape gives the unfolding
    # without copying
    t = np.moveaxis(g, mode - 1, 0) @ _as_matrix(b).T
    t = np.swapaxes(t, 1, 2) @ _as_matrix(a).T
    return t.reshape(t.shape[0], -1)


def ew_power(x, p):
    """Elementwise power with the removable singularities taken out:
    ``p == 0`` yields ones without evaluating ``0**0``, ``p == 1`` is the
    identity."""
    x = np.asarray(x, dtype=np.float64)
    if p == 0:
        return np.ones_like(x)
    if p == 1:
        return x
    if p < 0 and np.any(x <= 0):
        raise NumericalDomainError(
            f"elementwise power {p} requires strictly positive input"
        )
    return x ** p


def clamp_min(x, eps):
    """Elementwise maximum with `eps`; every output entry is >= eps."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return np.maximum(np.asarray(x, dtype=np.float64), eps)


# ---------------------------------------------------------------------------
# File formats


def write_tensor(path, t):
    """Write a tensor in the NTD-T3 v1 text format: a header line
    ``ntd-t3 J K L`` followed by the entries in C order (mode-1 index
    slowest), one (j, k) fibre per line."""
    t = _as_tensor3(t)
    j, k, l = t.shape
    textio.write_rows(path, f"ntd-t3 {j} {k} {l}", t.reshape(j * k, l))


def read_tensor(path):
    """Read an NTD-T3 v1 file. Rejects NaN, infinities and negatives."""
    return textio.read_array(path, ("ntd-t3",), 3, "ntd-t3 J K L")[0]


def write_matrix(path, m):
    """Write a matrix as ``ntd-mat rows cols`` plus one row per line."""
    m = _as_matrix(m)
    textio.write_rows(path, f"ntd-mat {m.shape[0]} {m.shape[1]}", m)


def read_matrix(path):
    """Read a matrix written by :func:`write_matrix`. Rejects NaN,
    infinities and negatives."""
    return textio.read_array(path, ("ntd-mat",), 2, "ntd-mat rows cols")[0]
