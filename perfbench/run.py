"""Benchmark of beta-ntd: one workload per call, in its own process.

    python3 perfbench/run.py --workload song_kl --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Generates the workload's inputs from
--seed under perfbench/out/, starts perfbench/worker.py on the checkout's
src/ with BLAS held to one thread, relays its result (the last stdout
line, one JSON object) and removes the inputs and outputs. --trace 1
prints the per-layer metrics instead of the end-to-end ones. The exit
code is not 0 when the program's sources are missing or the worker fails.
"""

import os

# set before numpy loads: one BLAS thread here and in the worker, whose
# timings spread several times wider with two
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    started = time.monotonic()

    src = ROOT / "src"
    if not (src / "beta_ntd" / "cli.py").is_file():
        print(f"error: no beta_ntd sources under {src}", file=sys.stderr)
        return 2

    work = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "inputs").mkdir(parents=True)
    try:
        inputs = gen.generate(args.workload, args.seed, work / "inputs")
        (work / "inputs.json").write_text(json.dumps(inputs))
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--workdir", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (time.monotonic() - started),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    print(proc.stdout.strip().splitlines()[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
