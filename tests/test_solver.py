import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beta_ntd.solver
from beta_ntd.divergence import objective
from beta_ntd.errors import NumericalDomainError
from beta_ntd.solver import (
    FactorSet,
    SolverConfig,
    init_factors,
    iterate,
    solve,
    update_core,
    update_mode_factor,
)

from oracles import kron_multiway, kron_update_core, kron_update_factor, loop_matricize


def planted_instance(dims, core_dims, seed):
    f = init_factors(dims, SolverConfig(core_dims=core_dims, seed=seed))
    return f, f.approximation()


class TestInit:
    def test_deterministic(self):
        cfg = SolverConfig(core_dims=(2, 3, 2), seed=42)
        a = init_factors((4, 5, 6), cfg)
        b = init_factors((4, 5, 6), cfg)
        for x, y in [(a.w, b.w), (a.h, b.h), (a.q, b.q), (a.core, b.core)]:
            np.testing.assert_array_equal(x, y)

    def test_entries_at_least_epsilon(self):
        cfg = SolverConfig(core_dims=(2, 2, 2), epsilon=1e-6, seed=0)
        f = init_factors((3, 3, 3), cfg)
        for arr in (f.w, f.h, f.q, f.core):
            assert arr.min() >= cfg.epsilon

    def test_distinct_seeds_differ(self):
        a = init_factors((4, 5, 6), SolverConfig(core_dims=(2, 2, 2), seed=0))
        b = init_factors((4, 5, 6), SolverConfig(core_dims=(2, 2, 2), seed=1))
        assert not np.array_equal(a.w, b.w)


class TestFactorUpdate:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_exact_fit_is_fixed_point(self, beta):
        f, x = planted_instance((5, 4, 6), (2, 2, 2), seed=3)
        cfg = SolverConfig(beta=beta, core_dims=(2, 2, 2))
        for mode in (1, 2, 3):
            updated = update_mode_factor(x, f, mode, cfg)
            current = (f.w, f.h, f.q)[mode - 1]
            np.testing.assert_allclose(updated, current, rtol=1e-12)

    @pytest.mark.parametrize("mode", [0, 4])
    def test_rejects_unknown_mode(self, mode):
        f, x = planted_instance((5, 4, 6), (2, 2, 2), seed=3)
        with pytest.raises(ValueError, match=f"^mode must be 1, 2 or 3, got {mode}$"):
            update_mode_factor(x, f, mode, SolverConfig(core_dims=(2, 2, 2)))

    def test_rank1_reduces_to_nmf_step(self):
        # J'=K'=L'=1 with beta=2 on a 2x2x1 instance: the W update is the
        # scalar-basis NMF MU rule, hand-rolled here
        rng = np.random.default_rng(8)
        x = rng.uniform(0.1, 1.0, (2, 2, 1))
        f = init_factors((2, 2, 1), SolverConfig(core_dims=(1, 1, 1), seed=5))
        cfg = SolverConfig(beta=2.0, core_dims=(1, 1, 1))
        updated = update_mode_factor(x, f, 1, cfg)

        g = f.core[0, 0, 0]
        q = f.q[0, 0]
        v = g * q * f.h.T.reshape(1, 2)  # basis row of the rank-1 NMF
        m = loop_matricize(x, 1)
        u = f.w
        expected = np.maximum(u * (m @ v.T) / (u @ v @ v.T), cfg.epsilon)
        np.testing.assert_allclose(updated, expected, rtol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_single_update_never_increases_objective(self, beta):
        rng = np.random.default_rng(9)
        cfg = SolverConfig(beta=beta, core_dims=(2, 2, 2))
        for trial in range(50):
            x = rng.uniform(0.05, 1.0, (6, 5, 4))
            f = init_factors(x.shape, replace(cfg, seed=trial))
            before = objective(x, f.approximation(), beta)
            mode = trial % 3 + 1
            updated = update_mode_factor(x, f, mode, cfg)
            f2 = FactorSet(
                *(updated if m == mode else (f.w, f.h, f.q)[m - 1] for m in (1, 2, 3)),
                f.core,
            )
            after = objective(x, f2.approximation(), beta)
            assert after <= before * (1 + 1e-10) + 1e-12

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
    def test_matches_kron_oracle(self, beta):
        f, _ = planted_instance((4, 3, 5), (2, 2, 2), seed=11)
        rng = np.random.default_rng(12)
        x = rng.uniform(0.05, 1.0, (4, 3, 5))
        cfg = SolverConfig(beta=beta, core_dims=(2, 2, 2))
        for mode in (1, 2, 3):
            ours = update_mode_factor(x, f, mode, cfg)
            oracle = kron_update_factor(x, f, mode, beta, cfg.epsilon)
            np.testing.assert_allclose(ours, oracle, rtol=1e-12)


class TestCoreUpdate:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_exact_fit_is_fixed_point(self, beta):
        f, x = planted_instance((5, 4, 6), (2, 2, 2), seed=13)
        cfg = SolverConfig(beta=beta, core_dims=(2, 2, 2))
        np.testing.assert_allclose(update_core(x, f, cfg), f.core, rtol=1e-12)

    def test_scalar_closed_form(self):
        # everything 1x1x1, beta=2: g <- max(x / (w h q), eps)
        x = np.full((1, 1, 1), 0.7)
        f = FactorSet(
            w=np.array([[0.5]]),
            h=np.array([[0.8]]),
            q=np.array([[0.9]]),
            core=np.array([[[0.3]]]),
        )
        cfg = SolverConfig(beta=2.0, core_dims=(1, 1, 1))
        expected = 0.7 / (0.5 * 0.8 * 0.9)
        np.testing.assert_allclose(update_core(x, f, cfg)[0, 0, 0], expected, rtol=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
    def test_matches_kron_oracle(self, beta):
        f, _ = planted_instance((3, 3, 3), (2, 2, 2), seed=14)
        rng = np.random.default_rng(15)
        x = rng.uniform(0.05, 1.0, (3, 3, 3))
        cfg = SolverConfig(beta=beta, core_dims=(2, 2, 2))
        ours = update_core(x, f, cfg)
        oracle = kron_update_core(x, f, beta, cfg.epsilon)
        np.testing.assert_allclose(ours, oracle, rtol=1e-12)


class TestIterate:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_objective_non_increasing(self, beta):
        rng = np.random.default_rng(16)
        cfg = SolverConfig(beta=beta, core_dims=(2, 2, 2))
        for trial in range(30):
            x = rng.uniform(0.05, 1.0, (6, 5, 4))
            f = init_factors(x.shape, replace(cfg, seed=trial))
            before = objective(x, f.approximation(), beta)
            f = iterate(x, f, cfg)
            after = objective(x, f.approximation(), beta)
            assert after <= before * (1 + 1e-10)

    def test_exact_fit_is_fixed_point(self):
        f, x = planted_instance((5, 4, 6), (2, 2, 2), seed=17)
        cfg = SolverConfig(beta=1.0, core_dims=(2, 2, 2))
        f2 = iterate(x, f, cfg)
        np.testing.assert_allclose(f2.w, f.w, rtol=1e-11)
        np.testing.assert_allclose(f2.h, f.h, rtol=1e-11)
        np.testing.assert_allclose(f2.q, f.q, rtol=1e-11)
        np.testing.assert_allclose(f2.core, f.core, rtol=1e-11)

    def test_entries_stay_above_epsilon(self):
        rng = np.random.default_rng(18)
        x = rng.uniform(0.0, 1.0, (6, 5, 4))
        cfg = SolverConfig(beta=2.0, core_dims=(2, 2, 2), epsilon=1e-9, seed=4)
        f = init_factors(x.shape, cfg)
        for _ in range(20):
            f = iterate(x, f, cfg)
            for arr in (f.w, f.h, f.q, f.core):
                assert arr.min() >= cfg.epsilon


def _no_iterate(*args):
    raise AssertionError("solve iterated on data outside the domain")


def _no_scan(*args):
    raise AssertionError("solve scanned data that its minimum and maximum pass")


# entries set in 0.5-filled 3 x 4 x 2 data (None: zero-size data), the error and its text
_DOMAIN_CASES = {
    "nan": ({(1, 2, 0): np.nan}, NumericalDomainError, r"non-finite data entry at index \(1, 2, 0\)"),
    "inf": ({(2, 3, 1): np.inf}, NumericalDomainError, r"non-finite data entry at index \(2, 3, 1\)"),
    "-inf": ({(0, 1, 1): -np.inf}, ValueError, r"^data tensor must be nonnegative$"),
    "negative": ({(2, 0, 0): -0.25}, ValueError, r"^data tensor must be nonnegative$"),
    "nan-and-negative": ({(0, 0, 1): np.nan, (1, 1, 1): -1.0}, ValueError,
                         r"^data tensor must be nonnegative$"),
    "empty": (None, ValueError, r"^data tensor must not be empty"),
}


class TestSolve:
    def test_planted_recovery(self):
        planted, x = planted_instance((8, 7, 6), (2, 2, 2), seed=19)
        rng = np.random.default_rng(20)
        init = FactorSet(
            w=planted.w * (1 + 0.01 * rng.random(planted.w.shape)),
            h=planted.h * (1 + 0.01 * rng.random(planted.h.shape)),
            q=planted.q * (1 + 0.01 * rng.random(planted.q.shape)),
            core=planted.core * (1 + 0.01 * rng.random(planted.core.shape)),
        )
        cfg = SolverConfig(beta=2.0, core_dims=(2, 2, 2), max_iters=500, rel_tol=0.0)
        f, trace = solve(x, cfg, init=init)
        assert trace.losses[-1] <= 1e-4 * trace.losses[0]

    def test_max_iters_zero_returns_init(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(0.1, 1.0, (4, 4, 4))
        cfg = SolverConfig(beta=2.0, core_dims=(2, 2, 2), max_iters=0, seed=7)
        init = init_factors(x.shape, cfg)
        f, trace = solve(x, cfg, init=init)
        np.testing.assert_array_equal(f.w, init.w)
        np.testing.assert_array_equal(f.core, init.core)
        assert len(trace.losses) == 1
        assert trace.iter_times == []

    def test_determinism(self):
        rng = np.random.default_rng(22)
        x = rng.uniform(0.1, 1.0, (5, 4, 3))
        cfg = SolverConfig(beta=1.0, core_dims=(2, 2, 2), max_iters=30, seed=9)
        f1, t1 = solve(x, cfg)
        f2, t2 = solve(x, cfg)
        assert t1.losses == t2.losses
        np.testing.assert_array_equal(f1.w, f2.w)
        np.testing.assert_array_equal(f1.core, f2.core)

    @pytest.mark.parametrize("name, shape, entry, message", [
        ("core", (3, 3, 3), 1.0, r"shape \(3, 3, 3\) does not match \(2, 2, 2\)"),
        ("w", (6, 2), 1.0, r"shape \(6, 2\) does not match \(5, 2\)"),
        ("w", (5, 2), -0.5, "entries must be finite and >= 0"),
        ("q", (3, 2), np.inf, "entries must be finite and >= 0"),
        ("core", (2, 2, 2), np.nan, "entries must be finite and >= 0"),
    ], ids=["core-shape", "w-rows", "negative-w", "inf-q", "nan-core"])
    def test_rejects_bad_init_before_iterating(self, name, shape, entry, message, monkeypatch):
        monkeypatch.setattr(beta_ntd.solver, "iterate", _no_iterate)
        x = np.ones((5, 4, 3))
        cfg = SolverConfig(beta=2.0, core_dims=(2, 2, 2))
        part = np.ones(shape)
        part.flat[1] = entry
        init = replace(init_factors(x.shape, cfg), **{name: part})
        with pytest.raises(ValueError, match=f"^init.{name}: {message}"):
            solve(x, cfg, init=init)

    @pytest.mark.parametrize("beta", [2.0, 3.0])
    def test_overflowing_start_raises_without_a_warning(self, beta):
        # finite data whose starting loss overflows: the error, not numpy's warning
        x = np.full((3, 3, 3), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDomainError, match="^non-finite loss at the starting point$"):
                solve(x, SolverConfig(beta=beta, core_dims=(2, 2, 2)))

    def test_underflowing_start_raises_without_a_warning(self):
        # a start of the smallest normal floats: its model underflows to 0, and 1/m divides by 0
        tiny = np.finfo(np.float64).tiny
        x = np.random.default_rng(0).uniform(0.1, 1.0, (4, 3, 2))
        init = FactorSet(*(np.full(s, tiny) for s in ((4, 2), (3, 2), (2, 1), (2, 2, 1))))
        cfg = SolverConfig(beta=0.0, epsilon=tiny, core_dims=(2, 2, 1), max_iters=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDomainError, match="^non-finite loss at the starting point$"):
                solve(x, cfg, init=init)

    def test_overflowing_iteration_raises_without_a_warning(self):
        # a finite start whose first update overflows: the error, not numpy's warning
        x = np.random.default_rng(1).uniform(0.1, 1.0, (5, 4, 3))
        cfg = SolverConfig(beta=300.0, core_dims=(2, 2, 2), max_iters=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDomainError, match="^non-finite loss at iteration 1$"):
                solve(x, cfg)

    def test_rejects_data_that_is_not_third_order(self):
        with pytest.raises(ValueError, match=r"^expected a third-order tensor, got ndim=2$"):
            solve(np.ones((3, 4)), SolverConfig(core_dims=(1, 1, 1)))

    @pytest.mark.parametrize("core_dims", [(4, 4, 2), (3, 5, 2), (3, 4, 3), (1, 1, 100000)])
    def test_rejects_core_dims_above_the_datas_before_drawing(self, core_dims, monkeypatch):
        def no_draw(*args):
            raise AssertionError("solve drew a start for core dimensions above the data's")

        monkeypatch.setattr(beta_ntd.solver, "init_factors", no_draw)
        cfg = SolverConfig(core_dims=core_dims)
        message = rf"^core_dims \({', '.join(map(str, core_dims))}\) exceed the data's shape \(3, 4, 2\)$"
        with pytest.raises(ValueError, match=message):
            solve(np.ones((3, 4, 2)), cfg)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 3.0])
    def test_non_finite_loss_mid_run_raises(self, beta, monkeypatch):
        # the loss passes at the start and after iteration 1 are finite; the
        # one after iteration 2 reads inf
        make = beta_ntd.solver.objective
        x = np.random.default_rng(24).uniform(0.1, 1.0, (5, 4, 3))
        assert len(beta_ntd.solver._slabs(x.shape, beta_ntd.solver._SLAB_ENTRIES)) == 1
        calls = []

        def third_is_inf(*args, **kwargs):
            calls.append(None)
            return math.inf if len(calls) == 3 else make(*args, **kwargs)

        monkeypatch.setattr(beta_ntd.solver, "objective", third_is_inf)
        cfg = SolverConfig(beta=beta, core_dims=(2, 2, 2), max_iters=5, rel_tol=0.0)
        with pytest.raises(NumericalDomainError, match="^non-finite loss at iteration 2$"):
            solve(x, cfg)
        assert len(calls) == 3

    def test_rejects_negative_data(self):
        x = -np.ones((2, 2, 2))
        with pytest.raises(ValueError):
            solve(x, SolverConfig(core_dims=(1, 1, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_data_before_iterating(self, bad, monkeypatch):
        monkeypatch.setattr(beta_ntd.solver, "iterate", _no_iterate)
        x = np.ones((3, 4, 2))
        x[1, 2, 0] = bad
        with pytest.raises(NumericalDomainError, match=r"non-finite data entry at index \(1, 2, 0\)"):
            solve(x, SolverConfig(core_dims=(1, 1, 1)))

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("case", sorted(_DOMAIN_CASES))
    def test_domain_errors_keep_type_and_index(self, case, beta, monkeypatch):
        monkeypatch.setattr(beta_ntd.solver, "iterate", _no_iterate)
        entries, error, match = _DOMAIN_CASES[case]
        if entries is None:
            x = np.ones((3, 0, 2))
        else:
            x = np.full((3, 4, 2), 0.5)
            x[0, 0, 0] = 0.0  # clamped at beta <= 1, before the check
            for index, value in entries.items():
                x[index] = value
        with pytest.raises(error, match=match):
            solve(x, SolverConfig(beta=beta, core_dims=(1, 1, 1)))

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("low", [0.0, -0.0, 0.6e-12, 0.5])
    def test_clamps_below_epsilon_without_naming_scan(self, beta, low, monkeypatch):
        # good data: the bounds alone pass it, and solving it at beta <= 1 is
        # solving the data clamped beforehand
        monkeypatch.setattr(beta_ntd.solver, "check_domain", _no_scan)
        x = np.random.default_rng(26).uniform(0.1, 1.0, (5, 4, 3))
        x[1, 2, 0] = low
        cfg = SolverConfig(beta=beta, core_dims=(2, 2, 2), max_iters=4, rel_tol=0.0)
        f, trace = solve(x, cfg)
        clamped = np.maximum(x, cfg.epsilon) if beta <= 1 else x
        f0, trace0 = solve(clamped, cfg)
        assert trace.losses == trace0.losses
        np.testing.assert_array_equal(f.core, f0.core)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_peak_memory_on_data_above_epsilon(self, beta):
        # the peak stays near the data's size: no clamp copy of data that is >= epsilon
        x = np.random.default_rng(25).uniform(0.1, 1.0, (40, 48, 50))
        cfg = SolverConfig(beta=beta, core_dims=(8, 6, 4), max_iters=2, rel_tol=0.0)
        tracemalloc.start()
        try:
            solve(x, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the data's bytes"

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, 2.0])
    def test_peak_memory_below_half_the_data(self, beta):
        # slabs of whole mode-1 slices: nothing of the data's size is made
        x = np.random.default_rng(27).uniform(0.1, 1.0, (64, 48, 100))
        assert len(beta_ntd.solver._slabs(x.shape, beta_ntd.solver._SLAB_ENTRIES)) >= 8
        cfg = SolverConfig(beta=beta, core_dims=(8, 6, 4), max_iters=2, rel_tol=0.0)
        tracemalloc.start()
        try:
            solve(x, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the data's bytes"

    def test_beta_le_one_clamps_zero_data_by_default(self):
        x = np.zeros((3, 3, 3))
        x[0, 0, 0] = 1.0
        cfg = SolverConfig(beta=1.0, core_dims=(1, 1, 1), max_iters=5)
        f, trace = solve(x, cfg)
        assert np.all(np.isfinite(trace.losses))

    def test_converges_and_records_iteration(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(0.1, 1.0, (6, 5, 4))
        cfg = SolverConfig(
            beta=2.0, core_dims=(2, 2, 2), max_iters=5000, rel_tol=1e-6, seed=1
        )
        f, trace = solve(x, cfg)
        assert trace.converged_at is not None
        assert trace.converged_at == len(trace.iter_times)

    def test_loss_eval_period(self):
        rng = np.random.default_rng(24)
        x = rng.uniform(0.1, 1.0, (4, 4, 4))
        cfg = SolverConfig(
            beta=2.0, core_dims=(2, 2, 2), max_iters=10, rel_tol=0.0,
            loss_eval_period=5, seed=2,
        )
        f, trace = solve(x, cfg)
        assert len(trace.iter_times) == 10
        assert len(trace.losses) == 3  # initial + iterations 5 and 10

    # the sleeps in each iteration: one per loss pass, which runs after
    # every iteration at period 1 and after the third at period 3
    @pytest.mark.parametrize("period, sleeps", [(1, [1, 1, 1]), (3, [0, 0, 1])])
    def test_iteration_time_includes_its_loss_pass(self, period, sleeps, monkeypatch):
        make = beta_ntd.solver._pass

        def slow(*args, **kwargs):
            if kwargs.get("losses"):
                time.sleep(0.01)
            return make(*args, **kwargs)

        monkeypatch.setattr(beta_ntd.solver, "_pass", slow)
        x = np.random.default_rng(26).uniform(0.1, 1.0, (4, 4, 4))
        cfg = SolverConfig(core_dims=(2, 2, 2), max_iters=3, rel_tol=0.0, loss_eval_period=period)
        times = solve(x, cfg)[1].iter_times
        assert all(t >= 0.01 * n for t, n in zip(times, sleeps, strict=True)), times


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    # a subnormal epsilon would let clamped data fall below the smallest normal float
    tiny = np.finfo(np.float64).tiny
    for epsilon in (5e-324, 1e-310, np.nextafter(tiny, 0)):
        with pytest.raises(ValueError, match="^epsilon must be"):
            SolverConfig(epsilon=epsilon)
    assert SolverConfig(epsilon=tiny).epsilon == tiny
    with pytest.raises(ValueError):
        SolverConfig(core_dims=(0, 1, 1))
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(loss_eval_period=0)
    # counts must be whole numbers, not silently truncated or failing later
    for field, value in [("core_dims", (2.5, 2, 2)), ("core_dims", (2, float("nan"), 2)),
                         ("max_iters", 2.5), ("max_iters", float("inf")),
                         ("loss_eval_period", 1.5), ("loss_eval_period", float("nan")),
                         ("seed", -1), ("seed", 1.5), ("seed", float("inf"))]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SolverConfig(**{field: value})
    cfg = SolverConfig(core_dims=(2.0, np.int64(3), 4), max_iters=5.0, loss_eval_period=np.int64(2),
                       seed=7.0)
    assert (cfg.core_dims, cfg.max_iters, cfg.loss_eval_period, cfg.seed) == ((2, 3, 4), 5, 2, 7)
    assert all(type(n) is int for n in (*cfg.core_dims, cfg.max_iters, cfg.loss_eval_period, cfg.seed))
    big = SolverConfig(max_iters=10**400, seed=10**400)  # whole numbers past float's range
    assert big.max_iters == big.seed == 10**400


BETAS = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]


@st.composite
def instances(draw):
    """Data dims 1-7 per mode, core dims from 1 up to the data dims, a
    beta, seeded data and factors."""
    dims = tuple(draw(st.integers(1, 7)) for _ in range(3))
    core_dims = tuple(draw(st.integers(1, d)) for d in dims)
    beta = draw(st.sampled_from(BETAS))
    seed = draw(st.integers(0, 2**32 - 1))
    cfg = SolverConfig(beta=beta, core_dims=core_dims, seed=seed)
    x = np.random.default_rng(seed).uniform(0.05, 1.0, dims)
    return x, init_factors(dims, cfg), cfg


def _instance(dims, core_dims, beta, seed=0):
    cfg = SolverConfig(beta=beta, core_dims=core_dims, seed=seed)
    return np.random.default_rng(seed).uniform(0.05, 1.0, dims), init_factors(dims, cfg), cfg


@settings(max_examples=150, deadline=None)
@given(instances())
@example(_instance((1, 5, 1), (1, 3, 1), 1.0))
@example(_instance((4, 3, 5), (4, 3, 5), 0.0))
@example(_instance((7, 1, 6), (7, 1, 6), 3.0))
def test_updates_match_kron_oracle_property(inst):
    x, f, cfg = inst
    for mode in (1, 2, 3):
        ours = update_mode_factor(x, f, mode, cfg)
        oracle = kron_update_factor(x, f, mode, cfg.beta, cfg.epsilon)
        np.testing.assert_allclose(ours, oracle, rtol=1e-12, atol=0)
    np.testing.assert_allclose(
        update_core(x, f, cfg), kron_update_core(x, f, cfg.beta, cfg.epsilon),
        rtol=1e-12, atol=0,
    )
    np.testing.assert_allclose(
        f.approximation(), kron_multiway(f.core, f.w, f.h, f.q), rtol=1e-12, atol=0
    )


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(1, 6))
@example(_instance((1, 1, 1), (1, 1, 1), 0.0), 3)
@example(_instance((6, 2, 7), (6, 2, 7), 1.0), 5)
@example(_instance((1, 1, 2), (1, 1, 2), 1.5, seed=1), 1)  # an exact fit: the loss is 0
def test_solve_last_loss_matches_public_objective(inst, iters):
    x, init, cfg = inst
    cfg = replace(cfg, max_iters=iters, rel_tol=0.0)
    f, trace = solve(x, cfg, init=init)
    x_used = np.maximum(x, cfg.epsilon) if cfg.beta <= 1 else x
    expected = objective(x_used, f.approximation(), cfg.beta)
    assert trace.losses[-1] == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("period", [1, 3])
@pytest.mark.parametrize("beta", BETAS)
def test_solve_bit_identical_to_repeated_iterate(beta, period):
    # the mode-1 products that solve's loss pass hands to the next iterate
    # and the mode-3 basis shared by mode 3 and the core must not change
    # one bit of the iterates
    x, init, cfg = _instance((7, 6, 5), (3, 2, 4), beta, seed=5)
    cfg = replace(cfg, max_iters=7, rel_tol=0.0, loss_eval_period=period)
    f, _ = solve(x, cfg, init=init)
    g = init
    for _ in range(cfg.max_iters):
        g = iterate(x, g, cfg)
    for ours, public in zip((f.w, f.h, f.q, f.core), (g.w, g.h, g.q, g.core)):
        np.testing.assert_array_equal(ours, public)


class _Counted:
    """A plan's slabs, iterated as they are, that note each slab read in `read`."""

    def __init__(self, slabs, read):
        self.slabs, self.read = slabs, read

    def __iter__(self):
        for slab in self.slabs:
            self.read.append(slab)
            yield slab


class TestSlabs:
    """Data cut into several slabs, the last one thinner: 7 mode-1 slices of
    3 x 4 entries in slabs of 2 slices."""

    @pytest.fixture(autouse=True)
    def four_slabs(self, monkeypatch):
        monkeypatch.setattr(beta_ntd.solver, "_SLAB_ENTRIES", 24)
        x, f, _ = _instance((7, 3, 4), (3, 2, 2), 1.0)
        assert [len(x[r]) for r, _ in beta_ntd.solver._slabs(x.shape, 24)] == [2, 2, 2, 1]

    @pytest.mark.parametrize("beta", BETAS)
    def test_updates_match_kron_oracle(self, beta):
        x, f, cfg = _instance((7, 3, 4), (3, 2, 2), beta, seed=28)
        for mode in (1, 2, 3):
            ours = update_mode_factor(x, f, mode, cfg)
            oracle = kron_update_factor(x, f, mode, beta, cfg.epsilon)
            np.testing.assert_allclose(ours, oracle, rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            update_core(x, f, cfg), kron_update_core(x, f, beta, cfg.epsilon), rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("period", [1, 3])
    @pytest.mark.parametrize("beta", BETAS)
    def test_solve_bit_identical_to_repeated_iterate(self, beta, period):
        x, init, cfg = _instance((7, 3, 4), (3, 2, 2), beta, seed=29)
        cfg = replace(cfg, max_iters=7, rel_tol=0.0, loss_eval_period=period)
        f, _ = solve(x, cfg, init=init)
        g = init
        for _ in range(cfg.max_iters):
            g = iterate(x, g, cfg)
        for ours, public in zip((f.w, f.h, f.q, f.core), (g.w, g.h, g.q, g.core)):
            np.testing.assert_array_equal(ours, public)

    @pytest.mark.parametrize("beta", BETAS)
    def test_one_slice_per_slab(self, beta, monkeypatch):
        # 17 slabs: each writes its own row of T Q, and each of mode 3's
        # shares after the first is added into the first, so a slab that is
        # dropped, added twice or placed in the wrong rows shows
        monkeypatch.setattr(beta_ntd.solver, "_SLAB_ENTRIES", 12)
        x, init, cfg = _instance((17, 3, 4), (3, 2, 2), beta, seed=38)
        assert [len(x[r]) for r, _ in beta_ntd.solver._slabs(x.shape, 12)] == [1] * 17
        for mode in (1, 2, 3):
            oracle = kron_update_factor(x, init, mode, beta, cfg.epsilon)
            np.testing.assert_allclose(update_mode_factor(x, init, mode, cfg), oracle, rtol=1e-12, atol=0)
        oracle = kron_update_core(x, init, beta, cfg.epsilon)
        np.testing.assert_allclose(update_core(x, init, cfg), oracle, rtol=1e-12, atol=0)
        cfg = replace(cfg, max_iters=5, rel_tol=0.0)
        f, trace = solve(x, cfg, init=init)
        g = init
        for _ in range(cfg.max_iters):
            g = iterate(x, g, cfg)
        for ours, public in zip((f.w, f.h, f.q, f.core), (g.w, g.h, g.q, g.core)):
            np.testing.assert_array_equal(ours, public)
        assert trace.losses[-1] == pytest.approx(objective(x, f.approximation(), beta), rel=1e-12, abs=0)

    @pytest.mark.parametrize("beta", BETAS)
    def test_passes_leave_the_kept_products_unchanged(self, beta):
        # each pass below reads what the loss pass at f left in the step
        # state: H x_2 G, the mode-3 basis, Q^T, Q's statistic (beta 1 and
        # 2) and the T Q buffer, which mode 1 at f reads and which is X Q at
        # beta=2; a pass that wrote its T Q, or added mode 3's shares, into
        # one of them, or into the data, would change it
        x, f, cfg = _instance((7, 3, 4), (3, 2, 2), beta, seed=39)
        plan = beta_ntd.solver._Plan(x, f, cfg, losses=True)
        beta_ntd.solver._pass(plan, f, losses=True)

        def kept():
            return [a for a in (plan.hg, plan.basis, plan.qt, plan.stat, plan.tq, x) if a is not None]

        assert plan.at is f and plan.xq == (beta == 2.0)
        stat = {1.0: np.add.reduce(f.q), 2.0: f.q.T @ f.q}.get(beta)
        assert (plan.stat is None) == (stat is None)
        if stat is not None:
            np.testing.assert_array_equal(plan.stat, stat)
        made, before = kept(), [a.tobytes() for a in kept()]
        for mode in (1, 2, 3):
            update_mode_factor(x, f, mode, cfg, plan)
        update_core(x, f, cfg, plan)
        assert all(a is b for a, b in zip(kept(), made, strict=True))  # read, not made again
        assert [a.tobytes() for a in made] == before

    def test_beta_two_mode2_after_the_loss_pass_reads_no_slab(self):
        # the loss pass at f makes X Q at f's Q, which mode 2 at that Q reads
        # without a pass over the data; at another Q, mode 2 makes its own
        x, f, cfg = _instance((7, 3, 4), (3, 2, 2), 2.0, seed=40)
        plan = beta_ntd.solver._Plan(x, f, cfg, losses=True)
        read = []
        plan.slabs = _Counted(plan.slabs, read)
        beta_ntd.solver._pass(plan, f, losses=True)
        assert len(read) == 4
        ours = update_mode_factor(x, f, 2, cfg, plan)
        assert len(read) == 4
        np.testing.assert_array_equal(ours, update_mode_factor(x, f, 2, cfg))
        q = init_factors(x.shape, replace(cfg, seed=41)).q
        update_mode_factor(x, FactorSet(f.w, f.h, q, f.core), 2, cfg, plan)
        assert len(read) == 8

    @pytest.mark.parametrize("period", [1, 3])
    @pytest.mark.parametrize("beta", BETAS)
    def test_a_solve_reads_the_data_once_per_pass_it_needs(self, beta, period, monkeypatch):
        # 6 iterations after the first loss pass: at beta != 2 mode 2, mode 3
        # and the core each read the data, and so does either the loss pass
        # before mode 1 or mode 1 itself, 1 + 4 * 6 passes; at beta=2 mode 1
        # and mode 2 read the X Q that the loss pass or the core's pass left,
        # so mode 3, the core and each loss pass read it, 1 + 6 * 2 + losses
        read = []

        class Plan(beta_ntd.solver._Plan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.slabs = _Counted(self.slabs, read)

        monkeypatch.setattr(beta_ntd.solver, "_Plan", Plan)
        x, init, cfg = _instance((7, 3, 4), (3, 2, 2), beta, seed=43)
        solve(x, replace(cfg, max_iters=6, rel_tol=0.0, loss_eval_period=period), init=init)
        budget = 25 if beta != 2.0 else 19 if period == 1 else 15
        assert len(read) == 4 * budget  # a pass reads all 4 slabs

    @pytest.mark.parametrize("beta", BETAS)
    def test_last_loss_matches_public_objective(self, beta):
        x, init, cfg = _instance((7, 3, 4), (3, 2, 2), beta, seed=30)
        f, trace = solve(x, replace(cfg, max_iters=4, rel_tol=0.0), init=init)
        expected = objective(np.maximum(x, cfg.epsilon) if beta <= 1 else x, f.approximation(), beta)
        assert trace.losses[-1] == pytest.approx(expected, rel=1e-12, abs=0)

    @staticmethod
    def _separate_updates(x, g, cfg):
        """cfg.max_iters outer loops of public update calls, none of them
        given a plan or the loss pass's terms."""
        for _ in range(cfg.max_iters):
            g = FactorSet(update_mode_factor(x, g, 1, cfg), g.h, g.q, g.core)
            g = FactorSet(g.w, update_mode_factor(x, g, 2, cfg), g.q, g.core)
            g = FactorSet(g.w, g.h, update_mode_factor(x, g, 3, cfg), g.core)
            g = FactorSet(g.w, g.h, g.q, update_core(x, g, cfg))
        return g

    @pytest.mark.parametrize("period", [1, 3])
    @pytest.mark.parametrize("beta", BETAS)
    def test_solve_bit_identical_to_separate_updates(self, beta, period):
        # what solve hands from one pass to the next (mode 1's products, the
        # beta=1 quotient, the beta=2 X Q) must not change one bit
        x, init, cfg = _instance((7, 3, 4), (3, 2, 2), beta, seed=31)
        cfg = replace(cfg, max_iters=7, rel_tol=0.0, loss_eval_period=period)
        f, _ = solve(x, cfg, init=init)
        g = self._separate_updates(x, init, cfg)
        for ours, public in zip((f.w, f.h, f.q, f.core), (g.w, g.h, g.q, g.core)):
            np.testing.assert_array_equal(ours, public)

    @pytest.mark.parametrize("beta", BETAS)
    def test_slot_serves_only_the_factors_it_was_made_at(self, beta, monkeypatch):
        # a loss pass at f leaves its T Q in the plan: mode 1 at f reads it
        # without a pass, and an update at other factors, or mode 2 at
        # another Q, makes its own pass at its own factors and equals a plan-less one
        make = beta_ntd.solver._pass
        x, f, cfg = _instance((7, 3, 4), (3, 2, 2), beta, seed=33)
        g = init_factors(x.shape, replace(cfg, seed=34))
        plan = beta_ntd.solver._Plan(x, f, cfg, losses=True)
        made_at = []  # the step state's factors at each update's pass with `plan`

        def counted(p, *args, **kwargs):
            out = make(p, *args, **kwargs)
            if p is plan and not kwargs.get("losses"):
                made_at.append((p.w, p.h, p.q, p.core))
            return out

        monkeypatch.setattr(beta_ntd.solver, "_pass", counted)
        make(plan, f, losses=True)
        update_mode_factor(x, f, 1, cfg, plan)
        assert made_at == []
        mixes = (1, g), (2, g), (2, FactorSet(g.w, f.h, g.q, f.core))
        for mode, h in mixes:
            make(plan, f, losses=True)
            ours = update_mode_factor(x, h, mode, cfg, plan)
            np.testing.assert_array_equal(ours, update_mode_factor(x, h, mode, cfg))
        assert len(made_at) == 3
        for at, (_, h) in zip(made_at, mixes):
            assert all(a is b for a, b in zip(at, (h.w, h.h, h.q, h.core)))

    @pytest.mark.parametrize("beta", BETAS)
    def test_products_serve_only_the_factors_they_were_made_at(self, beta):
        # a loss pass at f leaves H x_2 G, the mode-3 basis, Q^T, (beta=2)
        # X Q and Q's statistic in the step state, and a core pass moves it to
        # its Q: an update at factors that share some of f's, and at none,
        # equals a plan-less one bit for bit, and so does mode 1 at f once
        # the state has moved to another Q
        x, f, cfg = _instance((7, 3, 4), (3, 2, 2), beta, seed=35)
        g = init_factors(x.shape, replace(cfg, seed=36))
        plan = beta_ntd.solver._Plan(x, f, cfg, losses=True)
        mixes = [FactorSet(g.w, f.h, f.q, f.core), FactorSet(f.w, g.h, f.q, f.core),
                 FactorSet(f.w, f.h, g.q, f.core), FactorSet(f.w, f.h, f.q, g.core), g]
        for h in mixes:
            for update in (1, 2, 3, "core", 3, 2):
                beta_ntd.solver._pass(plan, f, losses=True)
                if update == "core":
                    update_core(x, FactorSet(f.w, f.h, h.q, f.core), cfg, plan)
                    np.testing.assert_array_equal(update_core(x, h, cfg, plan), update_core(x, h, cfg))
                else:
                    ours = update_mode_factor(x, h, update, cfg, plan)
                    np.testing.assert_array_equal(ours, update_mode_factor(x, h, update, cfg))
            beta_ntd.solver._pass(plan, f, losses=True)
            for update in (3, 2):  # mode 2 right after mode 3, both at h
                ours = update_mode_factor(x, h, update, cfg, plan)
                np.testing.assert_array_equal(ours, update_mode_factor(x, h, update, cfg))
        beta_ntd.solver._pass(plan, f, losses=True)
        update_core(x, FactorSet(f.w, f.h, g.q, f.core), cfg, plan)
        assert plan.q is g.q and plan.at is None
        np.testing.assert_array_equal(update_mode_factor(x, f, 1, cfg, plan), update_mode_factor(x, f, 1, cfg))

    @pytest.mark.parametrize("beta", BETAS)
    def test_one_iterate_makes_the_q_statistic_once(self, beta, monkeypatch):
        # after the loss pass at f, Q's column sums (beta=1) or Q^T Q (beta=2)
        # are made once, for mode 3's new Q, and read by the core; none at other beta
        make = beta_ntd.solver._pass
        x, f, cfg = _instance((7, 3, 4), (3, 2, 2), beta, seed=42)
        plan = beta_ntd.solver._Plan(x, f, cfg, losses=True)
        beta_ntd.solver._pass(plan, f, losses=True)
        seen = [(plan.q, plan.stat)]  # each Q of the step state and its statistic

        def counted(p, *args, **kwargs):
            out = make(p, *args, **kwargs)
            if p.q is not seen[-1][0] or p.stat is not seen[-1][1]:
                seen.append((p.q, p.stat))
            return out

        monkeypatch.setattr(beta_ntd.solver, "_pass", counted)
        g = iterate(x, f, cfg, plan)
        assert len(seen) == 2 and seen[0][0] is f.q and seen[1][0] is g.q
        stat = {1.0: np.add.reduce, 2.0: lambda q: q.T @ q}.get(beta)
        for q, made in seen:
            if stat is None:
                assert made is None
            else:
                np.testing.assert_array_equal(made, stat(q))

    @pytest.mark.parametrize("beta", BETAS)
    def test_one_iterate_builds_the_mode3_basis_per_new_factors(self, beta, monkeypatch):
        # after the loss pass at f, mode 2 builds the basis for its model
        # (none at beta=2) and mode 3 for its products; the core pass reuses mode 3's
        make = beta_ntd.solver._pass
        x, f, cfg = _instance((7, 3, 4), (3, 2, 2), beta, seed=37)
        plan = beta_ntd.solver._Plan(x, f, cfg, losses=True)
        bases, built = [None], []  # each basis in the step state, and its factors

        def counted(p, *args, **kwargs):
            out = make(p, *args, **kwargs)
            if p.basis is not None and p.basis is not bases[-1]:
                bases.append(p.basis)
                built.append((p.w, p.h, p.core))
            return out

        monkeypatch.setattr(beta_ntd.solver, "_pass", counted)
        beta_ntd.solver._pass(plan, f, losses=True)
        assert len(built) == 1
        g = iterate(x, f, cfg, plan)
        mode3 = (g.w, g.h, f.core)
        expected = [mode3] if beta == 2.0 else [(g.w, f.h, f.core), mode3]
        assert len(built) == 1 + len(expected)
        assert all(all(a is b for a, b in zip(made, want)) for made, want in zip(built[1:], expected))
        beta_ntd.solver._pass(plan, g, losses=True)
        assert len(built) == 2 + len(expected)

    def test_unclamped_beta_one_with_zeros_and_a_subnormal(self):
        # data below the smallest normal float is clamped to epsilon, so the
        # loss's logarithm of mode 1's x/m is the public objective's
        x, init, cfg = _instance((7, 3, 4), (3, 2, 2), 1.0, seed=32)
        x[0, 1, 2] = x[3, 0, 0] = x[6, 2, 3] = 0.0
        x[4, 2, 1] = 5e-320
        cfg = replace(cfg, max_iters=5, rel_tol=0.0)
        f, trace = solve(x, cfg, init=init)
        clamped = np.maximum(x, cfg.epsilon)
        assert trace.losses[-1] == pytest.approx(
            objective(clamped, f.approximation(), 1.0), rel=1e-12, abs=0
        )
        g = self._separate_updates(clamped, init, cfg)
        for ours, public in zip((f.w, f.h, f.q, f.core), (g.w, g.h, g.q, g.core)):
            np.testing.assert_array_equal(ours, public)
