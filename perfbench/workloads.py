"""The three workloads as lists of operations.

An operation runs one ``pipeline`` or ``decompose`` (in-process, through
``beta_ntd.cli.main``) or one library ``solve``, and has a check that
judges its outputs against the generated ground truth. Every solve uses a
fixed iteration budget with rel-tol 0, so two versions of the program do
the same work.
"""

from collections import namedtuple

import numpy as np

import beta_ntd.cli
import beta_ntd.solver
import checks
import gen

Op = namedtuple("Op", "name run check")

CORE = (32, 12, 4)
SONG_ITERS = 30
DECOMPOSE_ITERS = 12
TINY_ITERS = 20
TINY_BETAS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
SEAM_TOLERANCES = (0.5, 3.0)


def _cli(argv, out):
    rc = beta_ntd.cli.main(argv + ["--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"beta-ntd {argv[0]} exited with {rc}")
    return out


def _check_solver_outputs(out, x, beta, iters):
    """Factors, loss trace and final loss of a CLI solve in `out`."""
    factors = checks.read_factors(out)
    checks.check_factors(factors, x.shape, CORE)
    losses = checks.read_loss_trace(out / "loss_trace.txt")
    if losses.size != iters + 1:
        raise checks.CheckFailed(f"{losses.size - 1} iterations, budget {iters}")
    checks.check_monotone(losses)
    checks.check_loss(x, beta, factors, losses[-1])


def song_kl(inputs):
    ops = []
    for i, song in enumerate(inputs["songs"]):
        argv = ["pipeline", str(song["spec"]), str(song["bars"]), "--feature", "nnlms",
                "--beta", "1", "--core-dims", ",".join(map(str, CORE)),
                "--frames-per-bar", str(gen.FRAMES_PER_BAR), "--max-iters", str(SONG_ITERS),
                "--rel-tol", "0", "--seed", "0"]

        def check(out, song=song):
            truth = np.load(song["truth"])
            data, bars, seams = truth["data"], truth["boundaries"], truth["seams"]
            checks.check_tfb(checks.read_tensor(out / "tfb.txt"), data, bars, gen.HOP,
                             gen.FRAMES_PER_BAR)
            x = checks.expected_tfb(data, bars, gen.HOP, gen.FRAMES_PER_BAR)
            _check_solver_outputs(out, x, 1.0, SONG_ITERS)
            est = checks.read_times(out / "boundaries.txt")[1:-1]
            scores = " ".join(f"F@{tol:g}s {checks.f_measure(est, seams, tol):.3f}"
                              for tol in SEAM_TOLERANCES)
            return [f"{len(est)} boundaries for {len(seams)} seams, {scores}"]

        ops.append(Op(f"pipeline song {i}", lambda out, argv=argv: _cli(argv, out), check))
    return ops


def decompose_is_euc(inputs):
    ops = []
    for beta in (0.0, 2.0):
        argv = ["decompose", str(inputs["tensor"]), "--beta", repr(beta),
                "--core-dims", ",".join(map(str, CORE)), "--max-iters", str(DECOMPOSE_ITERS),
                "--rel-tol", "0", "--seed", "0"]

        def check(out, beta=beta):
            _check_solver_outputs(out, np.load(inputs["truth"]), beta, DECOMPOSE_ITERS)
            return []

        ops.append(Op(f"decompose beta={beta:g}", lambda out, argv=argv: _cli(argv, out), check))
    return ops


def small_sweep(inputs):
    tensors = np.load(inputs["tensors"])
    ops = []
    for beta in TINY_BETAS:
        for seed, x in enumerate(tensors):
            cfg = beta_ntd.solver.SolverConfig(beta=beta, core_dims=gen.TINY_CORE,
                                               max_iters=TINY_ITERS, rel_tol=0.0, seed=seed)

            def run(out, x=x, cfg=cfg):
                f, trace = beta_ntd.solver.solve(x, cfg)
                return f.w, f.h, f.q, f.core, np.array(trace.losses)

            def check(result, x=x, beta=beta):
                *factors, losses = result
                checks.check_factors(factors, x.shape, gen.TINY_CORE)
                if losses.size != TINY_ITERS + 1:
                    raise checks.CheckFailed(f"{losses.size - 1} iterations, budget {TINY_ITERS}")
                checks.check_monotone(losses)
                checks.check_loss(x, beta, factors, losses[-1])
                return []

            ops.append(Op(f"solve beta={beta:g} tensor {seed}", run, check))
    return ops


WORKLOADS = {"song_kl": song_kl, "decompose_is_euc": decompose_is_euc, "small_sweep": small_sweep}
