import re
import tracemalloc
import warnings

import numpy as np
import pytest

from beta_ntd.errors import NumericalDomainError, ParseError
from beta_ntd.tensor_ops import (
    clamp_min,
    contracted_unfolding,
    ew_power,
    matricize,
    mode_product,
    multiway_product,
    read_matrix,
    read_tensor,
    write_matrix,
    write_tensor,
)
from beta_ntd.segmentation import BoundarySet, write_boundaries
from beta_ntd.tfb import BarGrid, Spectrogram, write_bars, write_spectrogram

from oracles import (
    kron_contracted_unfolding,
    kron_multiway,
    loop_matricize,
    loop_mode_product,
)


def test_matricize_mode1_known_values():
    # t[j,k,l] = 4j + 2k + l
    t = np.arange(8.0).reshape(2, 2, 2)
    expected = np.array([[0.0, 2.0, 1.0, 3.0], [4.0, 6.0, 5.0, 7.0]])
    np.testing.assert_array_equal(matricize(t, 1), expected)


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_matricize_matches_index_loop_oracle(mode):
    rng = np.random.default_rng(7)
    t = rng.standard_normal((3, 4, 5))
    np.testing.assert_array_equal(matricize(t, mode), loop_matricize(t, mode))


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_degenerate_1x1x1(mode):
    t = np.array([[[3.5]]])
    np.testing.assert_array_equal(matricize(t, mode), [[3.5]])


def test_matricize_invalid_mode():
    with pytest.raises(ValueError):
        matricize(np.zeros((2, 2, 2)), 0)
    with pytest.raises(ValueError):
        matricize(np.zeros((2, 2, 2)), 4)


def test_mode_product_identity():
    rng = np.random.default_rng(3)
    t = rng.random((3, 4, 5))
    np.testing.assert_array_equal(mode_product(t, np.eye(3), 1), t)


def test_mode_product_scalar_scaling():
    t = np.array([[[2.0]]])
    m = np.array([[3.0], [5.0]])
    out = mode_product(t, m, 1)
    np.testing.assert_array_equal(out, np.array([6.0, 10.0]).reshape(2, 1, 1))


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_mode_product_matches_loop_oracle(mode):
    rng = np.random.default_rng(5)
    t = rng.random((3, 4, 5))
    m = rng.random((2, t.shape[mode - 1]))
    np.testing.assert_allclose(
        mode_product(t, m, mode), loop_mode_product(t, m, mode), rtol=1e-13
    )


def test_mode_product_matches_matricized_form():
    rng = np.random.default_rng(6)
    t = rng.random((3, 4, 5))
    for mode in (1, 2, 3):
        m = rng.random((2, t.shape[mode - 1]))
        np.testing.assert_array_equal(
            matricize(mode_product(t, m, mode), mode), m @ matricize(t, mode)
        )


def test_mode_product_dim_mismatch():
    with pytest.raises(ValueError):
        mode_product(np.zeros((2, 3, 4)), np.zeros((5, 9)), 2)


def test_multiway_identity():
    rng = np.random.default_rng(8)
    g = rng.random((2, 3, 4))
    out = multiway_product(g, np.eye(2), np.eye(3), np.eye(4))
    np.testing.assert_allclose(out, g, rtol=1e-15)


def test_multiway_rank1_scalar():
    g = np.ones((1, 1, 1))
    out = multiway_product(g, [[2.0]], [[3.0]], [[5.0]])
    np.testing.assert_allclose(out, [[[30.0]]])


def test_multiway_matches_kron_oracle():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = rng.random((2, 3, 2))
        w = rng.random((4, 2))
        h = rng.random((5, 3))
        q = rng.random((6, 2))
        out = multiway_product(g, w, h, q)
        oracle = kron_multiway(g, w, h, q)
        np.testing.assert_allclose(out, oracle, rtol=1e-12)


def test_multiway_dim_mismatch():
    g = np.zeros((2, 3, 4))
    with pytest.raises(ValueError):
        multiway_product(g, np.zeros((4, 3)), np.eye(3), np.eye(4))


def test_contracted_unfolding_identity():
    rng = np.random.default_rng(10)
    g = rng.random((3, 4, 5))
    out = contracted_unfolding(g, np.eye(4), np.eye(5), 1)
    np.testing.assert_allclose(out, matricize(g, 1), rtol=1e-15)


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_contracted_unfolding_matches_kron_oracle(mode):
    rng = np.random.default_rng(12)
    g = rng.random((2, 2, 2))
    sizes = {1: (3, 4), 2: (3, 4), 3: (3, 4)}[mode]
    a = rng.random((sizes[0], 2))
    b = rng.random((sizes[1], 2))
    out = contracted_unfolding(g, a, b, mode)
    oracle = kron_contracted_unfolding(g, a, b, mode)
    np.testing.assert_allclose(out, oracle, rtol=1e-12)


def test_contracted_unfolding_scalar():
    g = np.array([[[4.0]]])
    out = contracted_unfolding(g, [[2.0]], [[3.0]], 1)
    np.testing.assert_allclose(out, [[24.0]])


def test_contracted_unfolding_scales_linearly():
    # wall time roughly doubles when one data dimension doubles; the naive
    # Kronecker route would grow quadratically
    import time

    rng = np.random.default_rng(13)
    g = rng.random((8, 8, 8))

    def timed(k):
        a = rng.random((k, 8))
        b = rng.random((400, 8))
        best = np.inf
        for _ in range(7):
            t0 = time.perf_counter()
            contracted_unfolding(g, a, b, 1)
            best = min(best, time.perf_counter() - t0)
        return best

    timed(400)  # warm up
    t1 = timed(400)
    t2 = timed(800)
    assert t2 / t1 < 3.5  # 2x +- 50%, with headroom for timer noise


def test_ew_power_identity_and_zero():
    x = np.array([0.0, 1.0, 2.0])
    np.testing.assert_array_equal(ew_power(x, 1), x)
    np.testing.assert_array_equal(ew_power(x, 0), np.ones(3))


def test_ew_power_negative_requires_positive():
    with pytest.raises(NumericalDomainError):
        ew_power(np.array([0.0, 1.0]), -2)


def test_clamp_min():
    out = clamp_min(np.zeros((3, 3)), 1e-12)
    np.testing.assert_array_equal(out, np.full((3, 3), 1e-12))


@pytest.mark.parametrize("eps", [0.0, -1e-12])
def test_clamp_min_rejects_eps_that_is_not_positive(eps):
    with pytest.raises(ValueError, match=f"^eps must be positive, got {eps}$"):
        clamp_min(np.ones((2, 2)), eps)


@pytest.mark.parametrize("write, data, message", [
    (write_tensor, np.ones((2, 3)), "^expected a third-order tensor, got ndim=2$"),
    (write_matrix, np.ones((2, 3, 4)), "^expected a matrix, got ndim=3$"),
], ids=["tensor-given-a-matrix", "matrix-given-a-tensor"])
def test_writers_reject_the_wrong_order(write, data, message, tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError, match=message):
        write(path, data)
    assert not path.exists()


class TestTensorFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        t = rng.random((3, 4, 2))
        # zero, the smallest subnormal, the smallest normal and the largest float
        t[0, 0] = [0.0, 5e-324]
        t[0, 1] = [2.2250738585072014e-308, 1.7976931348623157e308]
        path = tmp_path / "t.txt"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.shape == t.shape
        assert back.tobytes() == t.tobytes()

    @pytest.mark.parametrize("body", [
        "1.0 2.0\n3.0\n4.0 5.0 6.0\n",
        "1.0 2.0 3.0\n4.0 5.0 # 6.0\n",
        "1.0 2.0 3.0\n4.0 x 6.0\n",
    ], ids=["ragged-rows", "comment-marker", "not-a-number"])
    def test_rejects_malformed_data_naming_file(self, tmp_path, body):
        path = tmp_path / "t.txt"
        path.write_text("ntd-t3 1 2 3\n" + body)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: malformed numeric data: .*row"):
            read_tensor(path)

    @pytest.mark.parametrize("body", ["", "\n", "\n  \n"], ids=["empty", "newline", "blank-lines"])
    def test_header_only_file_is_a_parse_error_without_warning(self, tmp_path, body):
        path = tmp_path / "t.txt"
        path.write_text("ntd-t3 1 2 3\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: expected 6 values, found 0"):
                read_tensor(path)

    def test_peak_memory_is_near_the_array_size(self, tmp_path):
        # the parse holds no Python object per value, only the array and its growth
        t = np.random.default_rng(16).random((40, 48, 50))
        path = tmp_path / "t.txt"
        write_tensor(path, t)
        tracemalloc.start()
        try:
            back = read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back, t)
        assert peak <= 2 * t.nbytes, f"peak {peak / t.nbytes:.2f}x the array's bytes"

    def test_rejects_negative(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("ntd-t3 1 1 2\n1.0 -2.0\n")
        with pytest.raises(ParseError):
            read_tensor(path)

    def test_rejects_nan_inf(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("ntd-t3 1 1 2\nnan 1.0\n")
        with pytest.raises(ParseError):
            read_tensor(path)
        path.write_text("ntd-t3 1 1 2\ninf 1.0\n")
        with pytest.raises(ParseError):
            read_tensor(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("bogus 1 1 2\n1.0 1.0\n")
        with pytest.raises(ParseError):
            read_tensor(path)

    @pytest.mark.parametrize("read, header, message", [
        (read_tensor, "ntd-t3 1 2.5 1", "non-integer dimensions in header"),
        (read_matrix, "ntd-mat 0 2", "dimensions must be positive"),
    ], ids=["non-integer", "zero"])
    def test_rejects_bad_header_dimensions(self, tmp_path, read, header, message):
        path = tmp_path / "t.txt"
        path.write_text(header + "\n1.0 1.0\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:1: {message}$"):
            read(path)

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("ntd-t3 1 1 3\n1.0 1.0\n")
        with pytest.raises(ParseError):
            read_tensor(path)


def test_text_byte_format(tmp_path):
    # header line, then .17g values separated by single spaces, one row per
    # line; times one per line
    third = 1 / 3
    cases = [
        (write_tensor, np.array([[[0.1, 1e-12], [third, 2.0]]]),
         "ntd-t3 1 2 2\n"
         "0.10000000000000001 9.9999999999999998e-13\n"
         "0.33333333333333331 2\n"),
        (write_matrix, np.array([[0.1, 1e-12, third], [0.0, 1.0, 2.5]]),
         "ntd-mat 2 3\n"
         "0.10000000000000001 9.9999999999999998e-13 0.33333333333333331\n"
         "0 1 2.5\n"),
        (write_spectrogram, Spectrogram(np.array([[0.1, 1e-12], [third, 0.0]]), 0.1),
         "ntd-spec v1 2 2 0.10000000000000001\n"
         "0.10000000000000001 9.9999999999999998e-13\n"
         "0.33333333333333331 0\n"),
        (write_bars, BarGrid([0.1, third, 2.0]),
         "0.10000000000000001\n0.33333333333333331\n2\n"),
        (write_boundaries, BoundarySet([0.1, third, 2.0]),
         "0.10000000000000001\n0.33333333333333331\n2\n"),
    ]
    for i, (write, value, expected) in enumerate(cases):
        path = tmp_path / f"{i}.txt"
        write(path, value)
        assert path.read_text() == expected, write.__name__
