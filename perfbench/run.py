"""circledual benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload transport --seed 1 --seconds 24 --trace 0

Run from the root of a checkout (the directory holding ``src/circledual``).
With ``--trace 0`` it measures set-up time (median of fresh-process launches
of ``python -m circledual --version``), then runs the workload in a fresh
worker process and reports the end-to-end metrics; with ``--trace 1`` the
worker also runs traced passes and reports the per-layer metrics instead.
Readable lines go first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 7
RUN_TIMEOUT_S = 170.0
# BLAS and OpenMP pools would otherwise take every core of the machine.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: "1" for name in PINNED})
    return env


def measure_setup(env: dict[str, str], deadline: float) -> float:
    """Median wall time of a fresh ``python -m circledual --version``."""
    argv = [sys.executable, "-m", "circledual", "--version"]
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        elapsed = time.perf_counter() - start
        if done.returncode != 0 or not done.stdout.startswith("circledual "):
            raise RuntimeError(f"--version failed ({done.returncode}): {done.stderr[-500:]}")
        if i:  # the first launch writes the bytecode cache
            times.append(elapsed)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "circledual", "__init__.py")):
        print(f"no src/circledual under {root}: run from the root of a circledual checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = child_env(root)

    setup_s = None if args.trace else measure_setup(env, deadline)
    worker = [sys.executable, os.path.join(HERE, "worker.py"),
              f"--workload={args.workload}", f"--seed={args.seed}",
              f"--seconds={args.seconds}", f"--trace={args.trace}", f"--root={root}"]
    done = subprocess.run(worker, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"worker failed with exit code {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    info = result.pop("info")
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}

    print(json.dumps({"info": info}))
    for name, metric in sorted(result["metrics"].items()):
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"verification: {'all outputs correct' if result['correct'] else 'FAILED'}; "
          f"{result['failed']} of {result['attempted']} ops failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
