"""One workload in one fresh process: import, warm up, time whole rounds
of operations for the requested seconds, check every output, print the
metrics as one JSON line.

Started by run.py with BLAS held to one thread and PYTHONPATH set to the
checkout's src/. setup_s is the CPU time a process has used when
``import beta_ntd.cli`` returns: interpreter start-up plus the import,
the median of this process and four fresh interpreters. run_s and
iters_per_s are CPU seconds scaled to a nominal host speed by the
reference kernel of speed.py, timed between operations.
"""

import resource

import beta_ntd.cli

_usage = resource.getrusage(resource.RUSAGE_SELF)
SETUP_S = _usage.ru_utime + _usage.ru_stime

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import beta_ntd.solver  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


ROOT = Path(__file__).resolve().parent.parent
if Path(beta_ntd.cli.__file__).resolve().parent != ROOT / "src" / "beta_ntd":
    raise SystemExit(f"beta_ntd imported from {beta_ntd.cli.__file__}, not from {ROOT / 'src'}")


SETUP_PROBE = ("import resource, beta_ntd.cli; "
               "u = resource.getrusage(resource.RUSAGE_SELF); print(u.ru_utime + u.ru_stime)")


def setup_seconds():
    """Median cold set-up CPU time over this process and four fresh ones;
    one sample alone spread 22% from run to run."""
    samples = [SETUP_S]
    for _ in range(4):
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True,
                               text=True, check=True, timeout=60)
        samples.append(float(probe.stdout))
    return float(np.median(samples))


class SolveRecorder:
    """Stands in for ``solve`` where callers look it up and records the
    CPU seconds, iterations and first/last loss of every call."""

    def __init__(self):
        self.calls = []
        for module in (beta_ntd.cli, beta_ntd.solver):
            module.solve = self._wrap(module.solve)

    def _wrap(self, fn):
        def solve(*args, **kwargs):
            t0 = time.process_time()
            result = fn(*args, **kwargs)
            trace = result[1]
            self.calls.append((time.process_time() - t0, len(trace.iter_times),
                               trace.losses[0], trace.losses[-1]))
            return result
        return solve


def run(args):
    work = Path(args.workdir)
    ops = workloads.WORKLOADS[args.workload](json.loads((work / "inputs.json").read_text()))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorder = SolveRecorder()
    out_root = work / "out"

    def call(op, out):
        """Run one operation; returns (CPU seconds, wall seconds, result or
        None, solve record)."""
        before = len(recorder.calls)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = op.run(out)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            result = None
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        solved = recorder.calls[before:]
        return cpu, wall, result, solved[-1] if len(solved) == 1 else None

    # warm-up: the first operation, untraced; its outputs must equal the
    # first timed repeat, which in traced mode also proves that tracing
    # leaves the outputs unchanged
    _, _, warm, _ = call(ops[0], out_root / "warmup")
    warm_digest = checks.digest(warm) if warm is not None else None
    # the peak of a fresh process after one operation, as a CLI user sees
    # it; later in-process repeats only add heap fragmentation, which lands
    # differently from run to run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gauge = speed.Gauge(args.workload)   # after the peak is read: its arrays stay out of it
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    first = {}          # op index -> result of round 0 (kept for the checks)
    digests = {}        # op index -> digest of round 0
    mismatched = []
    timed = []          # per operation: round, stretch, CPU s, solve CPU s, iterations
    round_wall, ratios, op_spans = [], [], []
    attempted = failed = rounds = 0
    t_start = time.perf_counter()
    gauge.sample()
    while not rounds or time.perf_counter() - t_start < args.seconds:
        r = rounds
        total_wall = 0.0
        for i, op in enumerate(ops):
            out = out_root / f"r{r}-{i}"
            lo = len(tracer.code) if tracer else 0
            cpu, wall, result, solved = call(op, out)
            stretch = gauge.stretch(cpu)
            attempted += 1
            total_wall += wall
            if result is None or solved is None:
                failed += 1
                timed.append((r, stretch, cpu, 0.0, 0))
                continue
            timed.append((r, stretch, cpu, solved[0], solved[1]))
            if tracer:
                op_spans.append((lo, len(tracer.code), solved[1]))
            ratios.append(solved[3] / solved[2])
            d = checks.digest(result)
            if r == 0:
                first[i], digests[i] = result, d
            else:
                if d != digests.get(i, d):
                    mismatched.append(f"{op.name} round {r}")
                if isinstance(result, Path):
                    shutil.rmtree(result)
        rounds += 1
        round_wall.append(total_wall)
    if tracer:
        tracer.uninstall()
    # CPU seconds scaled to the nominal host speed (see speed.py), per round
    scale = gauge.scales()
    t = np.array(timed, dtype=np.float64)
    r_of, f_of = t[:, 0].astype(int), scale[t[:, 1].astype(int)]
    round_raw = np.bincount(r_of, t[:, 2], rounds)
    round_s = np.bincount(r_of, t[:, 2] * f_of, rounds)
    solve_s = np.bincount(r_of, t[:, 3] * f_of, rounds)
    iters = np.bincount(r_of, t[:, 4], rounds)
    round_rate = np.divide(iters, solve_s, out=np.zeros(rounds), where=solve_s > 0)

    problems = []
    if warm_digest is not None and 0 in digests and warm_digest != digests[0]:
        mismatched.append(f"{ops[0].name} warm-up")
    problems += [f"{m}: outputs differ from the first run of the operation" for m in mismatched]
    for i, result in first.items():
        try:
            for note in ops[i].check(result):
                print(f"{ops[i].name}: {note}", file=sys.stderr)
        except (checks.CheckFailed, OSError, ValueError) as exc:  # e.g. a missing or garbled file
            problems.append(f"{ops[i].name}: {type(exc).__name__}: {exc}")
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)

    run_s = float(np.median(round_s))
    print(f"{args.workload}: {rounds} rounds of {len(ops)} operations, run_s {run_s:.4f}, "
          f"unscaled CPU {np.median(round_raw):.4f}, wall {np.median(round_wall):.4f}, "
          f"host speed {np.median(scale):.3f} of nominal (traced={args.trace})", file=sys.stderr)
    if tracer:
        tracer.write(work.parent / f"spans-{args.workload}.npz")
        values = spans.per_layer(tracer, op_spans)
        wanted = declared["per_layer"]
    else:
        values = {
            "setup_s": setup_seconds(),
            "run_s": run_s,
            "iters_per_s": float(np.median(round_rate)),
            "loss_ratio": float(np.exp(np.mean(np.log(ratios)))) if ratios else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = declared["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(p.parse_args())


if __name__ == "__main__":
    main()
