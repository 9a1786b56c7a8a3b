"""
Command-line front end: decompose a tensor file, run the spectrogram ->
TFB -> decomposition -> segmentation pipeline, evaluate boundary files,
or benchmark iteration timings.

`main` makes the output directory, runs the command there and writes a
manifest.json recording every parsed argument but the output directory
and the solver config, so a run is reproducible from its manifest alone.
Each `cmd_*` returns its solver config (or None) and its results.
Exit codes: 0 success, 2 argument error, 3 parse error, 4 numerical
domain error.
"""

import argparse
import ctypes
import json
import os
import platform
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import segmentation as seg
from . import tfb as tfb_mod
from .errors import NumericalDomainError, ParseError
from .solver import FactorSet, SolverConfig, solve
from .tensor_ops import read_matrix, read_tensor, write_matrix, write_tensor
from .textio import write_rows

EXIT_OK = 0
EXIT_ARGUMENT = 2
EXIT_PARSE = 3
EXIT_NUMERICAL = 4

def _parse_list(text, flag, dims=False):
    """The numbers of `flag`'s comma-separated list `text`, or with `dims`
    its three integers >= 1; a ValueError names `flag`."""
    try:
        values = tuple((int if dims else float)(p) for p in text.split(","))
    except ValueError:
        values = ()
    if not values or dims and (len(values) != 3 or min(values) < 1):
        what = "3 integers >= 1" if dims else "numbers"
        raise ValueError(f"{flag} expects {what}, separated by commas, got {text!r}")
    return values


SOLVER_FLAGS = ("beta", "core_dims", "epsilon", "max_iters", "rel_tol", "seed")


def _solver_config(args, **fixed):
    """The SolverConfig of the solver flags `args` holds, with the `fixed` fields."""
    given = {name: getattr(args, name) for name in SOLVER_FLAGS if name in vars(args)}
    given["core_dims"] = _parse_list(given["core_dims"], "--core-dims", dims=True)
    return SolverConfig(**given, **fixed)


def _add_solver_flags(p, names=SOLVER_FLAGS):
    """One flag per named SolverConfig field, defaulting to the field's default."""
    for name in names:
        default = getattr(SolverConfig(), name)
        if name == "core_dims":
            p.add_argument("--core-dims", default=",".join(map(str, default)), metavar="J,K,L")
        else:
            p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)


def _openblas(symbol, restype, *argtypes):
    """C function `symbol` of numpy's bundled OpenBLAS, typed; None where missing."""
    try:
        lib = next((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*"))
        fn = getattr(ctypes.CDLL(str(lib)), symbol)
    except (StopIteration, OSError, AttributeError):
        return None
    fn.restype, fn.argtypes = restype, argtypes
    return fn


def _blas_threads():
    """The thread count of numpy's bundled OpenBLAS, or None where its getter is missing."""
    getter = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return None if getter is None else getter()


def _environment():
    """Interpreter, numpy and BLAS versions, the BLAS thread settings and
    count, and the CPU model; nothing that changes between reruns on one machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.machine()
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "blas_threads": _blas_threads(),
        "cpu": cpu,
    }


def _solve_record(trace):
    """How a solve ended: its last loss, iteration count and stopping rule."""
    stopped = trace.converged_at
    return {
        "final_loss": trace.losses[-1],
        "iterations": len(trace.iter_times),
        "converged_at": stopped,
        "stop_reason": "budget" if stopped is None
        else "loss-increase" if trace.losses[-1] > trace.losses[-2] else "tolerance",
    }


def _write_manifest(out_dir, args, cfg, results, elapsed):
    manifest = {
        "command": args.command,
        # out is left out: runs that differ only in where they write match
        "args": {k: v for k, v in vars(args).items() if k not in ("out", "func", "command")},
        "config": asdict(cfg) if cfg is not None else None,
        "wall_seconds": elapsed,
        "version": __version__,
        "environment": _environment(),
        **results,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _write_solution(out_dir, f, trace):
    write_matrix(out_dir / "factor_w.txt", f.w)
    write_matrix(out_dir / "factor_h.txt", f.h)
    write_matrix(out_dir / "factor_q.txt", f.q)
    write_tensor(out_dir / "core.txt", f.core)
    losses = trace.losses
    write_rows(out_dir / "loss_trace.txt", None, np.column_stack([np.arange(len(losses)), losses]))


def _read_init(init_dir, data_dims, core_dims):
    """Read a starting point and check every shape against the data and
    --core-dims, so a mismatch fails before solving and names its file."""
    init_dir = Path(init_dir)
    parts = []
    for name, read, shape in (
        ("factor_w.txt", read_matrix, (data_dims[0], core_dims[0])),
        ("factor_h.txt", read_matrix, (data_dims[1], core_dims[1])),
        ("factor_q.txt", read_matrix, (data_dims[2], core_dims[2])),
        ("core.txt", read_tensor, tuple(core_dims)),
    ):
        path = init_dir / name
        part = read(path)
        if part.shape != shape:
            raise ValueError(
                f"--init {path}: shape {part.shape} does not match {shape} "
                "from the data and --core-dims"
            )
        parts.append(part)
    return FactorSet(*parts)


def cmd_decompose(args, out_dir):
    x = read_tensor(args.tensor)
    cfg = _solver_config(args)
    init = _read_init(args.init, x.shape, cfg.core_dims) if args.init else None
    factors, trace = solve(x, cfg, init=init)
    _write_solution(out_dir, factors, trace)
    return cfg, _solve_record(trace)


def cmd_pipeline(args, out_dir):
    spec = tfb_mod.read_spectrogram(args.spectrogram)
    bars = tfb_mod.read_bars(args.bars)
    seg.check_kernel(bars.bar_count, args.kernel_half_width, args.peak_threshold)
    if args.feature == "nnlms":
        spec = tfb_mod.nnlms(spec)
    tensor = tfb_mod.build_tfb(spec, bars, frames_per_bar=args.frames_per_bar)
    if tensor.max() == 0:
        raise ValueError(
            "input spectrogram is all-zero over the bar grid; a constant-"
            "epsilon tensor gives a degenerate fit (especially for beta <= 1)"
        )
    cfg = _solver_config(args)
    factors, trace = solve(tensor, cfg)
    write_tensor(out_dir / "tfb.txt", tensor)
    _write_solution(out_dir, factors, trace)
    sim = seg.bar_autosimilarity(factors.q)
    cuts = seg.segment_bars(
        sim,
        kernel_half_width=args.kernel_half_width,
        peak_threshold=args.peak_threshold,
    )
    boundaries = seg.bars_to_seconds(cuts, bars)
    seg.write_boundaries(out_dir / "boundaries.txt", boundaries)
    return cfg, {**_solve_record(trace), "boundary_count": int(boundaries.times.size)}


def cmd_eval(args, out_dir):
    est = seg.read_boundaries(args.est)
    ref = seg.read_boundaries(args.ref)
    reports = [
        seg.evaluate_boundaries(est, ref, t, exclude_endpoints=not args.include_endpoints)
        for t in _parse_list(args.tolerances, "--tolerances")
    ]
    return None, {"reports": [asdict(r) for r in reports]}


def cmd_bench(args, out_dir):
    if args.iters < 1:
        raise ValueError(f"--iters must be >= 1, got {args.iters}")
    dims = _parse_list(args.dims, "--dims", dims=True)
    base = _solver_config(args, max_iters=args.iters, rel_tol=0.0)  # checks --seed
    cfgs = [replace(base, beta=beta) for beta in _parse_list(args.betas, "--betas")]
    x = np.random.default_rng(base.seed).uniform(0.1, 1.0, dims)
    # timed on one BLAS thread: on two, a large iteration's cost depends on what ran before
    threads = _blas_threads()
    pin = _openblas("scipy_openblas_set_num_threads64_", None, ctypes.c_int) or (lambda n: None)
    try:
        pin(1)
        timed_threads, rows = _blas_threads(), []
        for cfg in cfgs:  # the times solve records around each of its iterations
            t = solve(x, cfg)[1].iter_times
            rows.append({"beta": cfg.beta, "mean_seconds": float(np.mean(t)),
                         "min_seconds": float(np.min(t)), "iterations": len(t)})
    finally:
        pin(threads)
    # at rel_tol 0 a solve stops early only on a rise in the loss
    stop = "budget" if all(r["iterations"] == args.iters for r in rows) else "loss-increase"
    return cfgs[0], {"timed_blas_threads": timed_threads, "results": rows, "stop_reason": stop}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beta-ntd",
        description="Nonnegative Tucker decomposition under the beta-divergence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose an NTD-T3 tensor file")
    p.add_argument("tensor")
    _add_solver_flags(p)
    p.add_argument("--init", default=None, metavar="DIR",
                   help="directory with factor_w/h/q.txt and core.txt to start from")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("pipeline", help="spectrogram + bars -> TFB -> NTD -> boundaries")
    p.add_argument("spectrogram")
    p.add_argument("bars")
    p.add_argument("--feature", choices=["mel", "nnlms"], default="nnlms",
                   help="nnlms: apply log(x + 1); mel: the input is already "
                   "mel-scaled and is used as is")
    p.add_argument("--frames-per-bar", type=int, default=96)
    p.add_argument("--kernel-half-width", type=int, default=4)
    p.add_argument("--peak-threshold", type=float, default=1.0)
    _add_solver_flags(p)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("eval", help="score estimated against reference boundaries")
    p.add_argument("est")
    p.add_argument("ref")
    p.add_argument("--tolerances", default="0.5,3.0")
    p.add_argument("--include-endpoints", action="store_true")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time solver iterations on seeded random data")
    p.add_argument("--dims", required=True, metavar="J,K,L")
    _add_solver_flags(p, ("core_dims", "epsilon", "seed"))
    p.add_argument("--betas", default="1")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        t0 = time.perf_counter()
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg, results = args.func(args, out_dir)
        _write_manifest(out_dir, args, cfg, results, time.perf_counter() - t0)
        return EXIT_OK
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericalDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
