"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh process per run, so that ``ru_maxrss`` is this
workload's peak alone.  Closed loop: a single caller issues each
``circledual.cli.main(argv)`` op only after the previous one returned.  The
op list is run in whole passes until ``--seconds`` of op time have been
measured.  Each op is timed end to end (argv parsing, compute, in-program
checks, writing the artifact); the artifacts are verified outside the timer,
in full the first time an op runs and by hash against that first artifact
after.  An op's latency is the median of its executions, which keeps
short bursts of load from other processes out of the figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import verify  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, REPORTED, TERMS, Tracer  # noqa: E402

MIN_PASSES = 3  # so that each op's latency is a median


class Op:
    def __init__(self, index: int, argv: list[str]):
        self.index = index
        self.argv = argv
        fmt = next((t.split("=", 1)[1] for t in argv if t.startswith("--format=")), None)
        default_json = argv[0] in ("duality-check", "zeros")
        self.ext = fmt or ("json" if default_json else "csv")
        self.digest: str | None = None
        self.failed = False
        self.times: list[float] = []  # untraced executions, seconds


class Runner:
    def __init__(self, cli, out_dir: str):
        self.cli = cli
        self.out_dir = out_dir
        self.executions = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.estimate_misses = 0
        self.tracer: Tracer | None = None

    def execute(self, op: Op, path: str) -> tuple[float, str]:
        """Run one op under the timer; (seconds, failure reason or "")."""
        if os.path.exists(path):
            os.remove(path)
        argv = op.argv + [f"--out={path}"]
        if self.tracer is not None:
            self.tracer.op_id = self.executions
        self.executions += 1
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
                reason = "" if code == 0 else f"exit {code}"
            except SystemExit as exc:
                reason = f"SystemExit({exc.code})"
            except Exception as exc:  # any escape from the CLI is a failed op
                reason = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if reason:
            sink_text = sink.getvalue().strip().splitlines()
            if sink_text:
                reason += f" | {sink_text[-1][:200]}"
        return elapsed, reason

    def run_pass(self, ops: list[Op], record: bool = True) -> float:
        """One pass over the list; returns the summed op time."""
        total = 0.0
        for op in ops:
            path = os.path.join(self.out_dir, f"op{op.index}.{op.ext}")
            elapsed, reason = self.execute(op, path)
            total += elapsed
            if record:
                op.times.append(elapsed)
            reason = reason or self.confirm(op, path)
            if reason:
                op.failed = True
                self.failed += 1
                self.failures.append({"op": op.index, "argv": op.argv, "reason": reason})
            if os.path.exists(path):
                os.remove(path)
        return total

    def confirm(self, op: Op, path: str) -> str:
        """Full verification the first time, hash comparison after (untimed).

        Returns the failure reason, or "" when the artifact is correct.
        """
        try:
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            return f"no artifact: {exc}"
        if op.digest is None:
            verdict = verify.check(op.argv, path)
            self.estimate_misses += verdict.estimate_misses
            if not verdict.ok:
                return f"verification: {verdict.detail}"
            op.digest = digest
        elif digest != op.digest:
            return "artifact bytes differ from the verified first run"
        return ""


def percentile(sorted_values: list[float], q: int) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def run_probes(cli, argvs, out_dir) -> list[dict]:
    report = []
    runner = Runner(cli, out_dir)
    for i, argv in enumerate(argvs):
        op = Op(i, argv)
        path = os.path.join(out_dir, f"probe{i}.{op.ext}")
        _, reason = runner.execute(op, path)
        reason = reason or runner.confirm(op, path)
        report.append({"argv": argv, "ok": not reason, "reason": reason})
        if os.path.exists(path):
            os.remove(path)
    return report


def environment(args) -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": threads,
        "workload": args.workload,
        "seed": args.seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import circledual
    from circledual import cli

    if not os.path.abspath(circledual.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"circledual imported from {circledual.__file__}, not {src}", file=sys.stderr)
        return 2

    out_dir = os.path.join(args.root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    try:
        return measure(args, cli, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(args, cli, out_dir) -> int:
    ops = [Op(i, argv) for i, argv in enumerate(workloads.make_ops(args.workload, args.seed))]
    warm = Runner(cli, out_dir)
    warm.execute(Op(-1, workloads.WARMUP[args.workload]),
                 os.path.join(out_dir, "warmup.out"))

    runner = Runner(cli, out_dir)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes: list[float] = []
    while sum(passes) < budget or len(passes) < (1 if args.trace else MIN_PASSES):
        passes.append(runner.run_pass(ops))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    info = environment(args)
    metrics: dict[str, dict] = {}
    traced_passes: list[float] = []
    if args.trace:
        tracer = runner.tracer = Tracer()
        tracer.install()
        try:
            while sum(traced_passes) < budget or not traced_passes:
                traced_passes.append(runner.run_pass(ops, record=False))
        finally:
            tracer.uninstall()
            runner.tracer = None
        metrics = layer_metrics(tracer, traced_passes, passes)
        metrics["auxfun.error_estimate_misses"] = {"value": runner.estimate_misses,
                                                   "unit": "count"}
        spans_dir = os.path.join(args.root, ".perfbench_out")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"spans-{args.workload}.jsonl")
        tracer.write(spans_path)
        info["spans_file"] = os.path.relpath(spans_path, args.root)

    probes = run_probes(cli, workloads.PROBES[args.workload], out_dir)
    if args.trace:
        metrics["probe.failed_ops"] = {"value": sum(not p["ok"] for p in probes),
                                       "unit": "count"}

    # An op's latency is the median of its untraced executions.  A failed op
    # ranks as slower than every success: it takes the slowest latency, so
    # turning a failure into a success cannot raise a percentile.
    latency = [statistics.median(op.times) for op in ops]
    slowest = max(latency)
    ranked = sorted(slowest if op.failed else t for op, t in zip(ops, latency))
    p90 = percentile(ranked, 90)
    if not args.trace:
        metrics = {
            "wall_s": {"value": sum(latency), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * percentile(ranked, 50), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * p90, "unit": "ms"},
            # add-one estimate over the op list: never 0, doubles at the first failing op
            "error_rate": {"value": (sum(op.failed for op in ops) + 1) / (len(ops) + 1),
                           "unit": "ratio"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    info.update({
        "ops_in_list": len(ops),
        "pass_s": passes,
        "traced_pass_s": traced_passes,
        "executions": runner.executions,
        "ops_beyond_p90": sum(t > p90 for t in ranked),
        "failures": runner.failures[:20],
        "probes": probes,
    })
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.executions,
                      "failed": runner.failed,
                      "metrics": metrics, "info": info}))
    return 0


def layer_metrics(tracer: Tracer, traced_passes: list[float],
                  untraced_passes: list[float]) -> dict[str, dict]:
    """Per-pass averages of the traced passes, named <layer>.<function>.<quantity>."""
    self_s, calls = tracer.self_times()
    n_passes = len(traced_passes)
    untraced_wall = statistics.median(untraced_passes)
    traced_wall = statistics.median(traced_passes)
    out: dict[str, dict] = {}
    for layer in LAYERS:
        for name in REPORTED[layer]:
            key = f"{layer}.{name}"
            out[f"{key}.self_s"] = {"value": self_s.get(key, 0.0) / n_passes, "unit": "s"}
            out[f"{key}.calls"] = {"value": calls.get(key, 0) / n_passes, "unit": "count"}
    for name in TERMS:
        key = f"auxfun.{name}"
        out[f"{key}.terms"] = {"value": tracer.terms.get(key, 0) / n_passes, "unit": "count"}
    out["figdata.bytes_written"] = {"value": tracer.bytes_written / n_passes, "unit": "B"}
    out["figdata.cells_written"] = {"value": tracer.cells_written / n_passes, "unit": "count"}
    for layer in LAYERS:
        total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = {"value": total / n_passes, "unit": "s"}
        out[f"{layer}.errors"] = {"value": tracer.errors.get(layer, 0) / n_passes,
                                  "unit": "count"}
    out["trace.overhead_frac"] = {"value": (traced_wall - untraced_wall) / untraced_wall,
                                  "unit": "ratio"}
    # summed self time over all layers against the op time the runner measured
    # around the traced ops: 1 when every traced second lands in exactly one layer
    out["trace.coverage"] = {"value": sum(self_s.values()) / sum(traced_passes),
                             "unit": "ratio"}
    return out


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
