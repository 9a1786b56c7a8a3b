import ctypes
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beta_ntd
import beta_ntd.cli
from beta_ntd.cli import (
    EXIT_ARGUMENT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    build_parser,
    main,
)
from beta_ntd.errors import NumericalDomainError
from beta_ntd.solver import SolverConfig, init_factors, solve
from beta_ntd.tensor_ops import read_matrix, read_tensor, write_matrix, write_tensor
from beta_ntd.tfb import BarGrid, Spectrogram, write_bars, write_spectrogram


SET_THREADS = beta_ntd.cli._openblas("scipy_openblas_set_num_threads64_", None, ctypes.c_int)


def as_json(cfg):
    """A SolverConfig as its manifest records it."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


@pytest.fixture
def small_tensor(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "x.txt"
    write_tensor(path, rng.uniform(0.1, 1.0, (5, 4, 3)))
    return path


@pytest.fixture
def init_dir(small_tensor, tmp_path):
    """A decompose run's output directory at core 2,2,2, usable as --init."""
    out = tmp_path / "init"
    assert main([
        "decompose", str(small_tensor), "--core-dims", "2,2,2",
        "--max-iters", "2", "--out", str(out),
    ]) == EXIT_OK
    return out


class TestDecompose:
    def test_writes_all_outputs(self, small_tensor, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "decompose", str(small_tensor), "--beta", "1", "--core-dims", "2,2,2",
            "--max-iters", "20", "--out", str(out),
        ])
        assert rc == EXIT_OK
        for name in ("factor_w.txt", "factor_h.txt", "factor_q.txt", "core.txt",
                     "loss_trace.txt", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "decompose"
        assert manifest["config"]["beta"] == 1.0
        trace = (out / "loss_trace.txt").read_text().splitlines()
        losses = [float(line.split()[1]) for line in trace]
        assert all(b <= a * (1 + 1e-10) for a, b in zip(losses, losses[1:]))
        cfg = SolverConfig(beta=1.0, core_dims=(2, 2, 2), max_iters=20)
        expected = solve(read_tensor(small_tensor), cfg)[1].losses
        assert (out / "loss_trace.txt").read_text() == "".join(
            f"{i} {loss:.17g}\n" for i, loss in enumerate(expected))

    @pytest.mark.parametrize("rel_tol, reason", [("0", "budget"), ("0.5", "tolerance")])
    def test_manifest_stop_reason(self, small_tensor, tmp_path, rel_tol, reason):
        out = tmp_path / "out"
        rc = main([
            "decompose", str(small_tensor), "--core-dims", "2,2,2",
            "--max-iters", "50", "--rel-tol", rel_tol, "--out", str(out),
        ])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == reason
        assert (manifest["converged_at"] is None) == (reason == "budget")

    def test_manifest_stop_reason_loss_increase(self, small_tensor, tmp_path, monkeypatch):
        # multiplicative updates do not raise the loss in exact arithmetic,
        # so the solve's trace is made to end on a rise that stopped it
        def rising(x, cfg, **kwargs):
            f, trace = solve(x, cfg, **kwargs)
            trace.losses[-1] = 2 * trace.losses[-2]
            trace.converged_at = len(trace.iter_times)
            return f, trace

        monkeypatch.setattr(beta_ntd.cli, "solve", rising)
        out = tmp_path / "out"
        rc = main([
            "decompose", str(small_tensor), "--core-dims", "2,2,2",
            "--max-iters", "3", "--rel-tol", "0", "--out", str(out),
        ])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == "loss-increase"
        assert manifest["converged_at"] == 3

    def test_manifest_environment(self, small_tensor, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "out"
        rc = main([
            "decompose", str(small_tensor), "--core-dims", "2,2,2",
            "--max-iters", "1", "--out", str(out),
        ])
        assert rc == EXIT_OK
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["python"] == "%d.%d.%d" % sys.version_info[:3]
        assert env["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert env["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}
        assert isinstance(env["cpu"], str) and env["cpu"]

    def test_manifest_version_and_blas_threads(self, small_tensor, tmp_path):
        out = tmp_path / "out"
        rc = main(["decompose", str(small_tensor), "--core-dims", "2,2,2",
                   "--max-iters", "1", "--out", str(out)])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == beta_ntd.__version__
        threads = manifest["environment"]["blas_threads"]
        assert threads is None or type(threads) is int and threads >= 1

    def test_max_iters_zero_equals_init(self, small_tensor, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "decompose", str(small_tensor), "--core-dims", "2,2,2",
            "--max-iters", "0", "--seed", "5", "--out", str(out),
        ])
        assert rc == EXIT_OK
        init = init_factors((5, 4, 3), SolverConfig(core_dims=(2, 2, 2), seed=5))
        np.testing.assert_array_equal(read_matrix(out / "factor_w.txt"), init.w)
        np.testing.assert_array_equal(read_tensor(out / "core.txt"), init.core)
        assert len((out / "loss_trace.txt").read_text().splitlines()) == 1

    def test_rerun_bit_identical(self, small_tensor, tmp_path):
        args = [
            "decompose", str(small_tensor), "--beta", "1", "--core-dims", "2,2,2",
            "--max-iters", "15", "--seed", "3",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        for name in ("factor_w.txt", "factor_h.txt", "factor_q.txt", "core.txt",
                     "loss_trace.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_planted_init_recovery(self, tmp_path):
        planted = init_factors((6, 5, 4), SolverConfig(core_dims=(2, 2, 2), seed=11))
        x_path = tmp_path / "x.txt"
        write_tensor(x_path, planted.approximation())
        init_dir = tmp_path / "init"
        init_dir.mkdir()
        rng = np.random.default_rng(12)
        write_matrix(init_dir / "factor_w.txt", planted.w * (1 + 0.01 * rng.random(planted.w.shape)))
        write_matrix(init_dir / "factor_h.txt", planted.h * (1 + 0.01 * rng.random(planted.h.shape)))
        write_matrix(init_dir / "factor_q.txt", planted.q * (1 + 0.01 * rng.random(planted.q.shape)))
        write_tensor(init_dir / "core.txt", planted.core * (1 + 0.01 * rng.random(planted.core.shape)))
        out = tmp_path / "out"
        rc = main([
            "decompose", str(x_path), "--beta", "2", "--core-dims", "2,2,2",
            "--max-iters", "500", "--rel-tol", "0", "--init", str(init_dir),
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        lines = (out / "loss_trace.txt").read_text().splitlines()
        first = float(lines[0].split()[1])
        last = float(lines[-1].split()[1])
        assert last <= 1e-4 * first

    @pytest.mark.parametrize("dims, core_dims, bad_file", [
        ((6, 4, 3), "2,2,2", "factor_w.txt"),
        ((5, 4, 3), "2,2,3", "factor_q.txt"),
    ])
    def test_init_shape_mismatch_names_file(
        self, init_dir, tmp_path, capsys, dims, core_dims, bad_file
    ):
        x_path = tmp_path / "x2.txt"
        write_tensor(x_path, np.ones(dims))
        capsys.readouterr()
        rc = main([
            "decompose", str(x_path), "--core-dims", core_dims,
            "--init", str(init_dir), "--out", str(tmp_path / "o"),
        ])
        assert rc == EXIT_ARGUMENT
        err = capsys.readouterr().err
        assert "--init" in err and bad_file in err

    def test_manifest_core_dims_match_init(self, small_tensor, init_dir, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "decompose", str(small_tensor), "--core-dims", "2,2,2",
            "--max-iters", "3", "--init", str(init_dir), "--out", str(out),
        ])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["core_dims"] == list(read_tensor(init_dir / "core.txt").shape)
        assert main([
            "decompose", str(small_tensor), "--init", str(init_dir),
            "--out", str(tmp_path / "o"),
        ]) == EXIT_ARGUMENT

    def test_init_negative_factor_rejected(self, small_tensor, init_dir, tmp_path):
        w = read_matrix(init_dir / "factor_w.txt")
        w[0, 0] = -w[0, 0]
        write_matrix(init_dir / "factor_w.txt", w)
        rc = main([
            "decompose", str(small_tensor), "--core-dims", "2,2,2",
            "--init", str(init_dir), "--out", str(tmp_path / "o"),
        ])
        assert rc == EXIT_PARSE

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a tensor\n")
        rc = main(["decompose", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_PARSE

    def test_negative_data_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("ntd-t3 1 1 2\n1.0 -1.0\n")
        rc = main(["decompose", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_PARSE

    @pytest.mark.parametrize("flag, value", [
        ("--beta", "nan"), ("--beta", "inf"), ("--epsilon", "nan"), ("--epsilon", "inf"),
        ("--rel-tol", "nan"), ("--rel-tol", "inf"),
    ])
    def test_non_finite_solver_setting_rejected(self, small_tensor, tmp_path, capsys,
                                                flag, value):
        out = tmp_path / "o"
        rc = main(["decompose", str(small_tensor), "--core-dims", "2,2,2", flag, value,
                   "--out", str(out)])
        assert rc == EXIT_ARGUMENT
        assert f"{flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("core_dims", ["2,5,2", "8,8,8"])
    def test_core_dims_above_the_datas_exit_2(self, small_tensor, tmp_path, capsys, core_dims):
        out = tmp_path / "o"
        rc = main(["decompose", str(small_tensor), "--core-dims", core_dims, "--out", str(out)])
        assert rc == EXIT_ARGUMENT
        dims = core_dims.replace(",", ", ")
        assert capsys.readouterr().err == f"error: core_dims ({dims}) exceed the data's shape (5, 4, 3)\n"
        assert list(out.iterdir()) == []

    def test_non_finite_loss_mid_run_exit_4(self, small_tensor, tmp_path, capsys, monkeypatch):
        # the third loss pass (after iteration 2) reads inf; the data is one slab
        make, calls = beta_ntd.solver.objective, []

        def third_is_inf(*args, **kwargs):
            calls.append(None)
            return np.inf if len(calls) == 3 else make(*args, **kwargs)

        monkeypatch.setattr(beta_ntd.solver, "objective", third_is_inf)
        out = tmp_path / "o"
        rc = main(["decompose", str(small_tensor), "--core-dims", "2,2,2", "--max-iters", "5",
                   "--rel-tol", "0", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err == "error: non-finite loss at iteration 2\n"
        assert list(out.iterdir()) == []

    def test_bad_core_dims_flag(self, small_tensor, tmp_path):
        rc = main([
            "decompose", str(small_tensor), "--core-dims", "2,2",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == EXIT_ARGUMENT

    def test_manifest_config_is_the_solver_config(self, small_tensor, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "decompose", str(small_tensor), "--beta", "0.5", "--core-dims", "2,3,2",
            "--epsilon", "1e-9", "--max-iters", "4", "--rel-tol", "1e-6",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == EXIT_OK
        cfg = SolverConfig(beta=0.5, epsilon=1e-9, core_dims=(2, 3, 2), max_iters=4,
                           rel_tol=1e-6, seed=3)
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == as_json(cfg)
        assert config["loss_eval_period"] == 1

    def test_flag_defaults_are_the_solver_defaults(self, tmp_path):
        # data no smaller than the default core in any mode
        x_path = tmp_path / "x8.txt"
        write_tensor(x_path, np.random.default_rng(0).uniform(0.1, 1.0, (8, 9, 8)))
        out = tmp_path / "out"
        assert main(["decompose", str(x_path), "--out", str(out)]) == EXIT_OK
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == as_json(SolverConfig())


def synthetic_song(tmp_path, seed=0, nbars=16, seam_every=8):
    rng = np.random.default_rng(seed)
    bands, frames_per_bar = 10, 20
    hop, bar_dur = 0.1, 2.0
    a = rng.uniform(0, 2, (bands, frames_per_bar))
    b = rng.uniform(0, 2, (bands, frames_per_bar))
    cols = [a if (i // seam_every) % 2 == 0 else b for i in range(nbars)]
    data = np.concatenate(cols, axis=1)
    data = np.clip(data * (1 + 0.01 * rng.standard_normal(data.shape)), 0, None)
    spec_path = tmp_path / "spec.txt"
    bars_path = tmp_path / "bars.txt"
    write_spectrogram(spec_path, Spectrogram(data, hop))
    write_bars(bars_path, BarGrid(np.arange(nbars + 1) * bar_dur))
    return spec_path, bars_path


class TestPipeline:
    @pytest.mark.parametrize("hop", ["nan", "inf"])
    def test_non_finite_hop_exit_code(self, tmp_path, hop, capsys):
        spec_path, bars_path = synthetic_song(tmp_path)
        lines = spec_path.read_text().split("\n", 1)
        header = lines[0].rsplit(" ", 1)[0]
        spec_path.write_text(f"{header} {hop}\n{lines[1]}")
        rc = main(["pipeline", str(spec_path), str(bars_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_PARSE
        assert f"{spec_path}:1:" in capsys.readouterr().err

    def test_planted_seam_found(self, tmp_path):
        spec_path, bars_path = synthetic_song(tmp_path, seed=1)
        out = tmp_path / "out"
        rc = main([
            "pipeline", str(spec_path), str(bars_path), "--feature", "nnlms",
            "--beta", "1", "--core-dims", "4,8,2", "--max-iters", "500",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == EXIT_OK
        times = [float(t) for t in (out / "boundaries.txt").read_text().split()]
        assert any(abs(t - 16.0) <= 2.0 for t in times)  # seam at bar 8
        assert (out / "tfb.txt").exists()
        assert (out / "manifest.json").exists()

    def test_core_dims_above_the_tfbs_exit_2(self, tmp_path, capsys):
        spec_path, bars_path = synthetic_song(tmp_path)  # TFB 10 x 20 x 16
        out = tmp_path / "out"
        rc = main(["pipeline", str(spec_path), str(bars_path), "--frames-per-bar", "20",
                   "--core-dims", "11,2,2", "--out", str(out)])
        assert rc == EXIT_ARGUMENT
        assert capsys.readouterr().err == "error: core_dims (11, 2, 2) exceed the data's shape (10, 20, 16)\n"
        assert list(out.iterdir()) == []

    def test_constant_spectrogram_no_interior_boundaries(self, tmp_path):
        spec_path = tmp_path / "spec.txt"
        bars_path = tmp_path / "bars.txt"
        write_spectrogram(spec_path, Spectrogram(np.full((6, 320), 3.0), 0.1))
        write_bars(bars_path, BarGrid(np.arange(17.0) * 2.0))
        out = tmp_path / "out"
        rc = main([
            "pipeline", str(spec_path), str(bars_path), "--feature", "mel",
            "--beta", "2", "--core-dims", "2,2,1", "--max-iters", "50",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        times = [float(t) for t in (out / "boundaries.txt").read_text().split()]
        assert times == [0.0, 32.0]

    def test_all_zero_nnlms_rejected(self, tmp_path, capsys):
        # 10 bars, so the default kernel (width 8) fits and the all-zero check is reached
        spec_path = tmp_path / "spec.txt"
        bars_path = tmp_path / "bars.txt"
        out = tmp_path / "o"
        write_spectrogram(spec_path, Spectrogram(np.zeros((4, 100)), 0.1))
        write_bars(bars_path, BarGrid(np.arange(11.0)))
        rc = main([
            "pipeline", str(spec_path), str(bars_path), "--feature", "nnlms",
            "--beta", "1", "--out", str(out),
        ])
        assert rc == EXIT_ARGUMENT
        assert "all-zero over the bar grid" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("flag, value, message", [
        ("--kernel-half-width", "6", "kernel width 12 exceeds the 10 bars"),
        ("--peak-threshold", "nan", "peak_threshold must be finite"),
    ], ids=["too-wide", "nan-threshold"])
    def test_bad_kernel_fails_before_solving(self, tmp_path, capsys, flag, value, message):
        spec_path, bars_path = synthetic_song(tmp_path, nbars=10, seam_every=5)
        out = tmp_path / "o"
        rc = main(["pipeline", str(spec_path), str(bars_path), "--core-dims", "2,2,2",
                   flag, value, "--out", str(out)])
        assert rc == EXIT_ARGUMENT
        assert message in capsys.readouterr().err
        assert not (out / "tfb.txt").exists()

    def test_records_how_the_solve_ended(self, tmp_path):
        spec_path, bars_path = synthetic_song(tmp_path)
        out = tmp_path / "out"
        rc = main(["pipeline", str(spec_path), str(bars_path), "--core-dims", "2,2,2",
                   "--max-iters", "4", "--rel-tol", "0", "--out", str(out)])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        last = (out / "loss_trace.txt").read_text().splitlines()[-1]
        assert manifest["iterations"] == 4
        assert manifest["converged_at"] is None
        assert manifest["stop_reason"] == "budget"
        assert manifest["final_loss"] == float(last.split()[1])

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_bar_exit_code(self, tmp_path, capsys, bad):
        spec_path, bars_path = synthetic_song(tmp_path)
        lines = bars_path.read_text().splitlines()
        lines[2] = bad
        bars_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        rc = main(["pipeline", str(spec_path), str(bars_path), "--out", str(out)])
        assert rc == EXIT_PARSE
        assert f"{bars_path}:3: non-finite time" in capsys.readouterr().err
        assert not (out / "boundaries.txt").exists()

    @pytest.mark.parametrize("bad", ["1_5", "\u0661\u0662"])
    def test_bar_number_the_array_reader_rejects_exit_code(self, tmp_path, capsys, bad):
        spec_path, bars_path = synthetic_song(tmp_path)
        lines = bars_path.read_text().splitlines()
        lines[2] = bad
        bars_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        rc = main(["pipeline", str(spec_path), str(bars_path), "--out", str(out)])
        assert rc == EXIT_PARSE
        assert f"{bars_path}:3: not a number" in capsys.readouterr().err
        assert not (out / "boundaries.txt").exists()

    def test_bar_span_mismatch(self, tmp_path):
        spec_path = tmp_path / "spec.txt"
        bars_path = tmp_path / "bars.txt"
        write_spectrogram(spec_path, Spectrogram(np.ones((4, 10)), 0.1))
        write_bars(bars_path, BarGrid([0.0, 100.0]))
        rc = main([
            "pipeline", str(spec_path), str(bars_path),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == EXIT_ARGUMENT


class TestEval:
    def write_bounds(self, path, times):
        path.write_text("".join(f"{t}\n" for t in times))

    def reports(self, out):
        """The manifest's reports, once the manifest is known to be the only output."""
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        return json.loads((out / "manifest.json").read_text())["reports"]

    def test_identical_files_f1(self, tmp_path):
        est = tmp_path / "est.txt"
        self.write_bounds(est, [0.0, 10.0, 20.0, 30.0])
        out = tmp_path / "out"
        rc = main(["eval", str(est), str(est), "--out", str(out)])
        assert rc == EXIT_OK
        reports = self.reports(out)
        assert [rep["tolerance"] for rep in reports] == [0.5, 3.0]
        assert [rep["f_measure"] for rep in reports] == [1.0, 1.0]

    def test_hand_worked_pair(self, tmp_path):
        est = tmp_path / "est.txt"
        ref = tmp_path / "ref.txt"
        self.write_bounds(est, [0.0, 10.0, 20.0, 30.0])
        self.write_bounds(ref, [0.0, 10.4, 25.0, 30.0])
        out = tmp_path / "out"
        rc = main(["eval", str(est), str(ref), "--out", str(out)])
        assert rc == EXIT_OK
        reports = self.reports(out)
        # every EvalReport field, in order
        assert [list(rep.items()) for rep in reports] == [[
            ("precision", 0.5), ("recall", 0.5), ("f_measure", 0.5), ("tolerance", tol),
            ("hits", 1), ("est_count", 2), ("ref_count", 2), ("empty_warning", False),
        ] for tol in (0.5, 3.0)]

    def test_empty_est_warns(self, tmp_path):
        est = tmp_path / "est.txt"
        ref = tmp_path / "ref.txt"
        self.write_bounds(est, [0.0, 30.0])
        self.write_bounds(ref, [0.0, 15.0, 30.0])
        out = tmp_path / "out"
        rc = main(["eval", str(est), str(ref), "--out", str(out)])
        assert rc == EXIT_OK
        rep = self.reports(out)[0]
        assert rep["tolerance"] == 0.5
        assert rep["precision"] == 0.0
        assert rep["empty_warning"] is True

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0"])
    def test_bad_tolerance_writes_no_report(self, tmp_path, capsys, tolerance):
        est = tmp_path / "est.txt"
        self.write_bounds(est, [0.0, 10.0, 20.0, 30.0])
        out = tmp_path / "out"
        rc = main(["eval", str(est), str(est), "--tolerances", f"0.5,{tolerance}",
                   "--out", str(out)])
        assert rc == EXIT_ARGUMENT
        assert "tolerance must be finite and positive" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("tolerances, expected", [
        ("0.5,0.5000001", [0.5, 0.5000001]),
        ("3,0.5,3.0", [3.0, 0.5, 3.0]),
    ])
    def test_one_report_per_tolerance_as_given(self, tmp_path, tolerances, expected):
        # tolerances equal to six digits, or equal, each keep their own report
        est = tmp_path / "est.txt"
        self.write_bounds(est, [0.0, 10.0, 20.0, 30.0])
        out = tmp_path / "out"
        rc = main(["eval", str(est), str(est), "--tolerances", tolerances, "--out", str(out)])
        assert rc == EXIT_OK
        assert [rep["tolerance"] for rep in self.reports(out)] == expected

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_time_exit_code(self, tmp_path, capsys, bad):
        est = tmp_path / "est.txt"
        self.write_bounds(est, [0.0, 10.0, bad])
        out = tmp_path / "out"
        rc = main(["eval", str(est), str(est), "--out", str(out)])
        assert rc == EXIT_PARSE
        assert f"{est}:3: non-finite time" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("bad", ["1_5", "\u0661\u0662"])
    def test_number_the_array_reader_rejects_exit_code(self, tmp_path, capsys, bad):
        est = tmp_path / "est.txt"
        est.write_text(f"0.0\n10.0\n{bad}\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["eval", str(est), str(est), "--out", str(out)])
        assert rc == EXIT_PARSE
        assert f"{est}:3: not a number" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_unsorted_file_exit_code(self, tmp_path):
        est = tmp_path / "est.txt"
        est.write_text("0.0\n5.0\n2.0\n")
        rc = main(["eval", str(est), str(est), "--out", str(tmp_path / "o")])
        assert rc == EXIT_PARSE


class TestBench:
    def test_bench_without_naive(self, tmp_path):
        threads = beta_ntd.cli._blas_threads()
        out = tmp_path / "out"
        rc = main([
            "bench", "--dims", "10,10,10", "--core-dims", "3,3,3",
            "--betas", "0", "--iters", "3", "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        (row,) = manifest["results"]
        assert list(row) == ["beta", "mean_seconds", "min_seconds", "iterations"]
        assert row["beta"] == 0.0
        assert row["mean_seconds"] >= row["min_seconds"] > 0
        # timed on one BLAS thread where the setter resolves, and the count is restored
        assert manifest["timed_blas_threads"] == (1 if SET_THREADS else threads)
        assert beta_ntd.cli._blas_threads() == threads
        # every row is timed by solve, over the whole budget
        assert row["iterations"] == 3
        assert manifest["stop_reason"] == "budget"
        cfg = SolverConfig(beta=0.0, core_dims=(3, 3, 3), max_iters=3, rel_tol=0.0)
        assert manifest["config"] == as_json(cfg)
        assert manifest["config"]["loss_eval_period"] == 1

    @pytest.fixture
    def two_threads(self):
        """The process's BLAS thread count set to 2 for the test, then put back."""
        threads = beta_ntd.cli._blas_threads()
        SET_THREADS(2)
        yield beta_ntd.cli._blas_threads()
        SET_THREADS(threads)

    @pytest.mark.skipif(SET_THREADS is None or beta_ntd.cli._blas_threads() is None,
                        reason="numpy's bundled OpenBLAS thread setter does not resolve")
    @pytest.mark.parametrize("raises", [False, True], ids=["solves", "solve-raises"])
    def test_solves_on_one_thread_and_restores_the_count(self, tmp_path, monkeypatch,
                                                         two_threads, raises):
        seen = []

        def counting_solve(x, cfg):
            seen.append(beta_ntd.cli._blas_threads())
            if raises:
                raise NumericalDomainError("non-finite loss at the starting point")
            return solve(x, cfg)

        monkeypatch.setattr(beta_ntd.cli, "solve", counting_solve)
        out = tmp_path / "out"
        rc = main(["bench", "--dims", "6,5,4", "--core-dims", "2,2,2", "--betas", "0,1",
                   "--iters", "2", "--out", str(out)])
        assert beta_ntd.cli._blas_threads() == two_threads
        if raises:
            assert (rc, seen) == (EXIT_NUMERICAL, [1])
            assert list(out.iterdir()) == []
        else:
            assert (rc, seen) == (EXIT_OK, [1, 1])
            assert json.loads((out / "manifest.json").read_text())["timed_blas_threads"] == 1

    def test_refused_allocation_exits_2(self, tmp_path, capsys):
        # 196 TiB is more than the x86-64 user address space, so no page is touched
        threads = beta_ntd.cli._blas_threads()
        out = tmp_path / "out"
        rc = main(["bench", "--dims", "30000,30000,30000", "--core-dims", "2,2,2",
                   "--iters", "1", "--out", str(out)])
        assert rc == EXIT_ARGUMENT
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate 196. TiB")
        assert list(out.iterdir()) == []
        assert beta_ntd.cli._blas_threads() == threads

    def test_core_dims_above_the_dims_exit_2(self, tmp_path, capsys):
        threads = beta_ntd.cli._blas_threads()
        out = tmp_path / "out"
        rc = main(["bench", "--dims", "4,4,4", "--core-dims", "2,2,5", "--iters", "1",
                   "--out", str(out)])
        assert rc == EXIT_ARGUMENT
        assert capsys.readouterr().err == "error: core_dims (2, 2, 5) exceed the data's shape (4, 4, 4)\n"
        assert list(out.iterdir()) == []
        assert beta_ntd.cli._blas_threads() == threads

    def test_zero_iters_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["bench", "--dims", "4,4,4", "--core-dims", "2,2,2", "--iters", "0",
                   "--out", str(out)])
        assert rc == EXIT_ARGUMENT
        assert "--iters must be >= 1, got 0" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestNonUtf8Input:
    """A byte that is not UTF-8, wherever it lies in an input file, is a
    parse error that names the file."""

    def check(self, argv, path, at, tmp_path, capsys):
        data = bytearray(path.read_bytes())
        data[at] = 0xFF  # starts no UTF-8 character
        path.write_bytes(bytes(data))
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"
        assert list(out.iterdir()) == []

    # text is decoded 8 KB at a time: a byte in the first chunk fails in the
    # header read, one in a later chunk inside np.loadtxt
    @pytest.mark.parametrize("at", [15, -10], ids=["first-chunk", "past-8kb"])
    def test_tensor(self, tmp_path, capsys, at):
        path = tmp_path / "x.txt"
        write_tensor(path, np.random.default_rng(0).uniform(0.1, 1.0, (10, 10, 10)))
        assert path.stat().st_size > 2 * 8192
        self.check(["decompose", str(path)], path, at, tmp_path, capsys)

    def test_init_matrix(self, small_tensor, init_dir, tmp_path, capsys):
        argv = ["decompose", str(small_tensor), "--core-dims", "2,2,2", "--init", str(init_dir)]
        self.check(argv, init_dir / "factor_h.txt", 20, tmp_path, capsys)

    @pytest.mark.parametrize("name, at", [("spec.txt", 30), ("bars.txt", 2)])
    def test_pipeline_inputs(self, tmp_path, capsys, name, at):
        spec_path, bars_path = synthetic_song(tmp_path)
        argv = ["pipeline", str(spec_path), str(bars_path)]
        self.check(argv, tmp_path / name, at, tmp_path, capsys)

    def test_boundaries(self, tmp_path, capsys):
        est = tmp_path / "est.txt"
        est.write_text("0.0\n10.0\n20.0\n")
        self.check(["eval", str(est), str(est)], est, 5, tmp_path, capsys)


def short_run(command, tmp_path):
    """The arguments of a short run of `command` on inputs made in
    `tmp_path`, without --out."""
    if command == "decompose":
        path = tmp_path / "x.txt"
        write_tensor(path, np.random.default_rng(0).uniform(0.1, 1.0, (5, 4, 3)))
        return ["decompose", str(path), "--core-dims", "2,2,2", "--max-iters", "3"]
    if command == "pipeline":
        spec_path, bars_path = synthetic_song(tmp_path)
        return ["pipeline", str(spec_path), str(bars_path), "--feature", "mel",
                "--core-dims", "2,3,2", "--max-iters", "3", "--kernel-half-width", "2"]
    if command == "eval":
        est = tmp_path / "est.txt"
        est.write_text("0.0\n10.0\n20.0\n")
        return ["eval", str(est), str(est), "--tolerances", "1,2", "--include-endpoints"]
    return ["bench", "--dims", "4,4,4", "--core-dims", "2,2,2", "--betas", "0,2",
            "--iters", "2"]


@pytest.mark.parametrize("command, flag, value, message", [
    ("decompose", "--core-dims", "2,0,2", "--core-dims expects 3 integers >= 1"),
    ("bench", "--dims", "-1,2,2", "--dims expects 3 integers >= 1"),
    ("bench", "--betas", "one", "--betas expects numbers"),
    ("eval", "--tolerances", "0.5,", "--tolerances expects numbers"),
], ids=["core-dims", "dims", "betas", "tolerances"])
def test_list_flag_errors_name_the_flag(tmp_path, capsys, command, flag, value, message):
    out = tmp_path / "out"
    assert main(short_run(command, tmp_path) + [f"{flag}={value}", "--out", str(out)]) == EXIT_ARGUMENT
    assert f"error: {message}, separated by commas, got {value!r}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["decompose", "pipeline", "bench"])
@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be an integer >= 0, got -1"),
    ("--epsilon", "1e-310", "epsilon must be finite and at least 2.2250738585072014e-308"),
], ids=["seed", "epsilon"])
def test_solver_flag_errors_name_the_field(tmp_path, capsys, command, flag, value, message):
    out = tmp_path / "out"
    assert main(short_run(command, tmp_path) + [f"{flag}={value}", "--out", str(out)]) == EXIT_ARGUMENT
    assert f"error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


class TestManifest:
    @pytest.mark.parametrize("command", ["decompose", "pipeline", "eval", "bench"])
    def test_args_are_the_parsed_arguments(self, tmp_path, command):
        out = tmp_path / "out"
        argv = short_run(command, tmp_path) + ["--out", str(out)]
        assert main(argv) == EXIT_OK
        text = (out / "manifest.json").read_text()
        manifest = json.loads(text)
        parsed = vars(build_parser().parse_args(argv))
        assert manifest["command"] == command
        assert manifest["args"] == {
            k: v for k, v in parsed.items() if k not in ("out", "func", "command")
        }
        assert str(out) not in text

    @pytest.mark.parametrize("command", ["decompose", "pipeline", "eval"])
    def test_equal_apart_from_wall_time_wherever_written(self, tmp_path, command):
        argv = short_run(command, tmp_path)
        manifests = []
        for out in (tmp_path / "a", tmp_path / "b" / "c"):
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest.pop("wall_seconds") > 0
            manifests.append(manifest)
        assert manifests[0] == manifests[1]


class TestModuleEntry:
    """``python -m beta_ntd.cli`` runs the same commands as ``main``."""

    def python(self, *args, cwd, **env):
        src = str(Path(beta_ntd.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, **env}
        return subprocess.run([sys.executable, *args], cwd=cwd,
                              env=env, capture_output=True, text=True)

    def run(self, *args, cwd, **env):
        return self.python("-m", "beta_ntd.cli", *args, cwd=cwd, **env)

    def test_domain_error_exit_code(self, tmp_path):
        # finite data whose loss overflows at the starting point
        write_tensor(tmp_path / "huge.txt", np.full((3, 3, 3), 1e200))
        done = self.run("decompose", "huge.txt", "--beta", "2",
                        "--core-dims", "2,2,2", "--out", "o", cwd=tmp_path)
        assert done.returncode == EXIT_NUMERICAL, done.stderr
        assert done.stderr == "error: non-finite loss at the starting point\n"

    def test_import_leaves_package_metadata_out(self, tmp_path):
        code = "import sys, beta_ntd.cli; print('importlib.metadata' in sys.modules)"
        done = self.python("-c", code, cwd=tmp_path)
        assert done.stdout == "False\n", done.stderr

    @pytest.mark.skipif(beta_ntd.cli._blas_threads() is None,
                        reason="numpy's bundled OpenBLAS thread getter does not resolve")
    def test_manifest_reads_blas_threads_in_use(self, tmp_path):
        write_tensor(tmp_path / "x.txt", np.ones((3, 3, 3)))
        done = self.run("decompose", "x.txt", "--core-dims", "2,2,2", "--max-iters", "1",
                        "--out", "o", cwd=tmp_path, OPENBLAS_NUM_THREADS="1")
        assert done.returncode == EXIT_OK, done.stderr
        assert json.loads((tmp_path / "o" / "manifest.json").read_text())["environment"][
            "blas_threads"] == 1

    def test_bench_writes_manifest(self, tmp_path):
        done = self.run("bench", "--dims", "4,4,4", "--core-dims", "2,2,2",
                        "--iters", "2", "--out", "b", cwd=tmp_path)
        assert done.returncode == EXIT_OK, done.stderr
        assert json.loads((tmp_path / "b" / "manifest.json").read_text())["command"] == "bench"
