import json

import numpy as np
import pytest

from beta_ntd.errors import ParseError
from beta_ntd.segmentation import (
    BoundarySet,
    EvalReport,
    bar_autosimilarity,
    bars_to_seconds,
    evaluate_boundaries,
    read_boundaries,
    segment_bars,
    write_boundaries,
    write_report,
)
from beta_ntd.tfb import BarGrid

from oracles import optimal_hits


class TestAutosimilarity:
    def test_identical_rows_all_ones(self):
        q = np.tile([1.0, 2.0, 3.0], (5, 1))
        np.testing.assert_allclose(bar_autosimilarity(q), np.ones((5, 5)), rtol=1e-12)

    def test_orthogonal_rows_identity(self):
        q = np.eye(4)
        np.testing.assert_allclose(bar_autosimilarity(q), np.eye(4), atol=1e-15)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(0)
        q = rng.random((10, 3))
        sim = bar_autosimilarity(q)
        np.testing.assert_allclose(sim, sim.T, rtol=1e-12)
        np.testing.assert_allclose(np.diag(sim), np.ones(10), rtol=1e-12)

    def test_zero_rows_give_zero_similarity(self):
        q = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        sim = bar_autosimilarity(q)
        assert np.all(sim[1, :] == 0)
        assert np.all(sim[:, 1] == 0)


class TestSegmentBars:
    def block_sim(self, sizes):
        n = sum(sizes)
        sim = np.zeros((n, n))
        start = 0
        for s in sizes:
            sim[start : start + s, start : start + s] = 1.0
            start += s
        return sim

    def test_two_equal_blocks(self):
        cuts = segment_bars(self.block_sim([8, 8]), kernel_half_width=4)
        np.testing.assert_array_equal(cuts, [0, 8, 16])

    def test_all_ones_no_novelty(self):
        cuts = segment_bars(np.ones((12, 12)), kernel_half_width=3)
        np.testing.assert_array_equal(cuts, [0, 12])

    def test_scaling_invariance(self):
        sim = self.block_sim([8, 6, 8])
        a = segment_bars(sim, kernel_half_width=3)
        b = segment_bars(123.4 * sim, kernel_half_width=3)
        np.testing.assert_array_equal(a, b)

    def test_recovers_planted_blocks(self):
        # blocks at least twice the kernel half-width
        sizes = [8, 10, 6, 12]
        cuts = segment_bars(self.block_sim(sizes), kernel_half_width=3)
        np.testing.assert_array_equal(cuts, [0, 8, 18, 24, 36])

    def test_kernel_too_wide(self):
        with pytest.raises(ValueError):
            segment_bars(np.ones((4, 4)), kernel_half_width=3)
        for hw in (2.5, np.inf, np.nan, 0):
            with pytest.raises(ValueError, match=r"kernel_half_width must be an integer >= 1"):
                segment_bars(np.ones((8, 8)), kernel_half_width=hw)

    def test_whole_number_kernel_accepted(self):
        sim = self.block_sim([4, 4])
        for hw in (2.0, np.int64(2)):
            np.testing.assert_array_equal(segment_bars(sim, kernel_half_width=hw), [0, 4, 8])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            segment_bars(np.ones((4, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_names_first_entry(self, bad):
        sim = self.block_sim([4, 4])
        sim[5, 2] = sim[6, 1] = bad
        with pytest.raises(ValueError, match=r"entry \(5, 2\) is not finite"):
            segment_bars(sim, kernel_half_width=2)
        with pytest.raises(ValueError, match=r"entry \(0, 0\) is not finite"):
            segment_bars(np.full((8, 8), np.nan), kernel_half_width=2)


class TestBarsToSeconds:
    def test_index_zero(self):
        bars = BarGrid([0.5, 1.5, 2.5])
        out = bars_to_seconds([0, 2], bars)
        np.testing.assert_array_equal(out.times, [0.5, 2.5])

    def test_full_index_set_is_grid(self):
        bars = BarGrid([0.0, 1.0, 2.0, 3.0])
        out = bars_to_seconds([0, 1, 2, 3], bars)
        np.testing.assert_array_equal(out.times, bars.boundaries)

    def test_mixed_set_lookup(self):
        bars = BarGrid(np.arange(7.0) * 1.5)
        out = bars_to_seconds([0, 3, 5], bars)
        np.testing.assert_array_equal(out.times, [0.0, 4.5, 7.5])

    def test_out_of_range(self):
        bars = BarGrid([0.0, 1.0])
        with pytest.raises(ValueError):
            bars_to_seconds([0, 2], bars)
        for bad in (0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="indices must be whole numbers|out of range"):
                bars_to_seconds([0, bad], bars)

    def test_whole_number_floats_accepted(self):
        bars = BarGrid([0.0, 1.0, 2.5])
        out = bars_to_seconds(np.array([0.0, 2.0]), bars)
        np.testing.assert_array_equal(out.times, [0.0, 2.5])
        np.testing.assert_array_equal(bars_to_seconds(np.int64([0, 1]), bars).times, [0.0, 1.0])


class TestEvaluate:
    def test_perfect_match(self):
        b = BoundarySet([0.0, 10.0, 20.0, 30.0])
        rep = evaluate_boundaries(b, b, 0.5)
        assert rep.precision == rep.recall == rep.f_measure == 1.0

    def test_hand_worked_pair_tol_half_second(self):
        est = BoundarySet([0.0, 10.0, 20.0, 30.0])
        ref = BoundarySet([0.0, 10.4, 25.0, 30.0])
        rep = evaluate_boundaries(est, ref, 0.5)
        assert rep.hits == 1
        assert rep.precision == 0.5
        assert rep.recall == 0.5
        assert rep.f_measure == 0.5

    def test_hand_worked_pair_tol_three_seconds(self):
        est = BoundarySet([0.0, 10.0, 20.0, 30.0])
        ref = BoundarySet([0.0, 10.4, 25.0, 30.0])
        rep = evaluate_boundaries(est, ref, 3.0)
        assert rep.hits == 1
        assert rep.f_measure == 0.5

    def test_symmetry_swaps_precision_recall(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            est = BoundarySet(np.sort(rng.choice(np.arange(0.0, 60.0, 0.7), 6, replace=False)))
            ref = BoundarySet(np.sort(rng.choice(np.arange(0.0, 60.0, 1.1), 5, replace=False)))
            a = evaluate_boundaries(est, ref, 2.0)
            b = evaluate_boundaries(ref, est, 2.0)
            assert a.hits == b.hits
            assert a.precision == b.recall
            assert a.recall == b.precision

    def test_tolerance_monotonicity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            est = BoundarySet(np.sort(rng.uniform(0, 50, 6)))
            ref = BoundarySet(np.sort(rng.uniform(0, 50, 6)))
            prev = None
            for tol in (0.25, 0.5, 1.0, 3.0, 8.0):
                rep = evaluate_boundaries(est, ref, tol)
                if prev is not None:
                    assert rep.hits >= prev.hits
                    assert rep.f_measure >= prev.f_measure - 1e-12
                prev = rep

    def test_one_to_one(self):
        est = BoundarySet([0.0, 10.0, 30.0])
        ref = BoundarySet([0.0, 9.9, 10.1, 10.2, 30.0])
        rep = evaluate_boundaries(est, ref, 1.0)
        assert rep.hits == 1  # single interior est boundary
        assert rep.hits <= min(rep.est_count, rep.ref_count)

    def test_matches_optimal_matching_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            ne, nr = rng.integers(2, 8, 2)
            est = BoundarySet(np.sort(rng.uniform(0, 30, ne)))
            ref = BoundarySet(np.sort(rng.uniform(0, 30, nr)))
            for tol in (0.5, 3.0):
                rep = evaluate_boundaries(est, ref, tol, exclude_endpoints=False)
                assert rep.hits == optimal_hits(est.times, ref.times, tol)

    def test_empty_after_exclusion_warns(self):
        est = BoundarySet([0.0, 30.0])
        ref = BoundarySet([0.0, 15.0, 30.0])
        rep = evaluate_boundaries(est, ref, 0.5)
        assert rep.precision == 0.0
        assert rep.recall == 0.0
        assert rep.f_measure == 0.0
        assert rep.empty_warning

    def test_include_endpoints_flag(self):
        est = BoundarySet([0.0, 30.0])
        ref = BoundarySet([0.0, 30.0])
        rep = evaluate_boundaries(est, ref, 0.5, exclude_endpoints=False)
        assert rep.f_measure == 1.0

    def test_invalid_tolerance(self):
        b = BoundarySet([0.0, 1.0])
        with pytest.raises(ValueError):
            evaluate_boundaries(b, b, 0.0)


class TestFiles:
    def test_roundtrip(self, tmp_path):
        b = BoundarySet([0.0, 1.25, 7.5])
        path = tmp_path / "b.txt"
        write_boundaries(path, b)
        np.testing.assert_array_equal(read_boundaries(path).times, b.times)

    def test_unsorted_names_line(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0.0\n5.0\n3.0\n")
        with pytest.raises(ParseError, match=":3:"):
            read_boundaries(path)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_names_line(self, tmp_path, bad):
        path = tmp_path / "b.txt"
        path.write_text(f"{bad}\n5.0\n")
        with pytest.raises(ParseError, match=f"b.txt:1: non-finite time '{bad}'"):
            read_boundaries(path)
        with pytest.raises(ValueError, match="times must be finite"):
            BoundarySet([0.0, float(bad)])

    def test_report_files(self, tmp_path):
        est = BoundarySet([0.0, 10.0, 20.0, 30.0])
        rep = evaluate_boundaries(est, est, 0.5)
        txt, js = tmp_path / "r.txt", tmp_path / "r.json"
        write_report(txt, js, rep)
        loaded = json.loads(js.read_text())
        assert loaded["f_measure"] == 1.0
        assert loaded["tolerance"] == 0.5
        assert "precision 1.0" in txt.read_text()

    def test_report_bytes(self, tmp_path):
        rep = EvalReport(precision=0.5, recall=1.0, f_measure=2 / 3, tolerance=0.5,
                         hits=1, est_count=2, ref_count=1)
        txt, js = tmp_path / "r.txt", tmp_path / "r.json"
        write_report(txt, js, rep)
        assert txt.read_text() == (
            "precision 0.5\nrecall 1.0\nf_measure 0.6666666666666666\ntolerance 0.5\n"
            "hits 1\nest_count 2\nref_count 1\nempty_warning False\n"
        )
        assert js.read_text() == (
            '{\n  "precision": 0.5,\n  "recall": 1.0,\n  "f_measure": 0.6666666666666666,\n'
            '  "tolerance": 0.5,\n  "hits": 1,\n  "est_count": 2,\n  "ref_count": 1,\n'
            '  "empty_warning": false\n}\n'
        )
