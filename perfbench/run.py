"""Benchmark of the `dhardy` command line, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_dense --seed 1 --seconds 40 --trace 0

Each op is one `dhardy` command run in this process through
`dirichlet_hardy.cli.main(argv)` with `--out` in a temporary directory, so
interpreter start-up stays out of op time. One client runs ops back to back
(a closed loop) with `--threads 1`; BLAS keeps its default thread count.

--trace 0 measures the end-to-end metrics: set-up (the median of five fresh
interpreters, each importing the package and running one warm-up op), then
whole blocks of ops (see workloads.py) until `--seconds` have passed.
--trace 1 runs the first ops of the same stream twice each, plain and with
every layer's public functions wrapped (see tracing.py), and reports
per-layer metrics; the op count is fixed per workload so that the
exact counts repeat for a seed. Every op's output is checked after the timed
phase (see checks.py). The last line of standard output is the JSON result;
a fuller report and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_PROBES = 5
THREAD_RERUNS = 2  # mc_dense ops rerun at --threads 2 for the byte-for-byte check
CALIBRATION_ITERS = 2_000_000
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def calibration_s() -> float:
    """A fixed pure-Python loop; its time shows how fast the host ran this run."""
    started = perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - started


def machine_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def metric_units() -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json gives it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_op(main, op, path: Path) -> dict:
    """Run one op; an op that raises counts as failed and the loop goes on."""
    error = None
    started = perf_counter()
    try:
        code = main([*op.argv, "--out", str(path)])
    except Exception as exc:  # noqa: BLE001 - the benchmark reports any failure of an op
        code = None
        error = f"{type(exc).__name__}: {exc}"
    return {"seconds": perf_counter() - started, "exit_code": code, "error": error, "path": path}


def output_text(result: dict) -> str | None:
    return result["path"].read_text() if result["exit_code"] == 0 else None


def verify(workload, ops, results, main, tmp: Path, baseline=None) -> list[dict]:
    """Check every op's output; returns one entry per failed op."""
    from checks import Checker, records_text

    checker = Checker(workload, ops)
    failures = []
    for i, (op, result) in enumerate(zip(ops, results)):
        text = output_text(result)
        reason = result["error"] or checker.check(op, result["exit_code"], text)
        if reason is None and baseline is not None:
            plain = output_text(baseline[i])
            if plain is None or records_text(plain) != records_text(text):
                reason = "traced records differ from the untraced run"
        if reason is None and workload == "mc_dense" and i < THREAD_RERUNS:
            argv = list(op.argv)
            argv[argv.index("--threads") + 1] = "2"
            rerun = run_op(main, replace(op, argv=argv), tmp / f"threads2-{i}.json")
            if rerun["exit_code"] != 0 or records_text(output_text(rerun)) != records_text(text):
                reason = "records at --threads 2 differ from --threads 1"
        if reason is not None:
            failures.append({"op": i, "argv": op.argv, "reason": reason})
    return failures


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten ops above it (nearest rank).

    Returns (latency, percentile, ops beyond). With ten ops or fewer it is the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    q = (100 * (n - 10)) // n
    rank = -(-q * n // 100)  # ceil(q n / 100)
    return ordered[rank - 1], q, n - rank


def setup_probe(argv: list[str]) -> float:
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    done = subprocess.run([sys.executable, str(probe), str(SRC), *argv],
                          capture_output=True, text=True, timeout=150, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["exit_code"] != 0:
        raise RuntimeError(f"warm-up op exited {result['exit_code']}: {done.stderr}")
    return result["setup_s"]


def end_to_end(workload: str, seed: int, seconds: float, tmp: Path, report: dict):
    from workloads import blocks, warmup_op

    warmup = warmup_op(workload)
    setups = [setup_probe([*warmup.argv, "--out", str(tmp / f"setup-{j}.json")])
              for j in range(SETUP_PROBES)]
    from dirichlet_hardy import cli

    warm = run_op(cli.main, warmup, tmp / "warmup.json")
    if warm["exit_code"] != 0:
        raise RuntimeError(f"warm-up op failed: {warm}")

    ops, results = [], []
    source = blocks(workload, seed)
    started = perf_counter()
    deadline = started + seconds
    while perf_counter() < deadline:
        for op in next(source):
            ops.append(op)
            results.append(run_op(cli.main, op, tmp / f"op-{len(ops)}.json"))
    elapsed = perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = verify(workload, ops, results, cli.main, tmp)
    report["check_s"] = perf_counter() - started - elapsed
    latencies = [r["seconds"] for r in results]
    tail_s, tail_pct, beyond = tail(latencies)
    report.update({
        "setup_samples_s": setups,
        "timed_s": elapsed,
        "ops": len(ops),
        "op_tail_percentile": tail_pct,
        "op_tail_ops_beyond": beyond,
        "failures": failures,
        "op_seconds": [[op.kind, op.params, r["seconds"]] for op, r in zip(ops, results)],
    })
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / elapsed,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - len(failures) / len(ops),
    }
    return metrics, len(ops), len(failures)


def per_layer(workload: str, seed: int, tmp: Path, report: dict):
    from tracing import Tracer
    from workloads import TRACE_OPS, first_ops, warmup_op

    from dirichlet_hardy import cli

    warm = run_op(cli.main, warmup_op(workload), tmp / "warmup.json")
    if warm["exit_code"] != 0:
        raise RuntimeError(f"warm-up op failed: {warm}")
    ops = first_ops(workload, seed, TRACE_OPS[workload])
    plain, traced = [], []
    tracer = Tracer()
    # each op runs plain and traced back to back, alternating which goes first,
    # so that drift in host speed cancels out of the overhead ratio
    for i, op in enumerate(ops):
        tracer.current_op = i
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.install()
                try:
                    traced.append(run_op(cli.main, op, tmp / f"traced-{i}.json"))
                finally:
                    tracer.remove()
            else:
                plain.append(run_op(cli.main, op, tmp / f"plain-{i}.json"))
    failures = verify(workload, ops, traced, cli.main, tmp, baseline=plain)
    layer = tracer.metrics()
    plain_s = sum(r["seconds"] for r in plain)
    traced_s = sum(r["seconds"] for r in traced)
    layer["trace.overhead_frac"] = traced_s / plain_s - 1.0
    layer["trace.spans"] = len(tracer.fn)
    tracer.dump(OUT / f"spans-{workload}.npz")
    report.update({"ops": len(ops), "plain_s": plain_s, "traced_s": traced_s,
                   "failures": failures})
    return layer, len(ops), len(failures)


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dirichlet_hardy" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    units = metric_units()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_block()}
    report["calibration_start_s"] = calibration_s()
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="ops-", dir=OUT))
    try:
        if args.trace:
            metrics, attempted, failed = per_layer(args.workload, args.seed, tmp, report)
        else:
            metrics, attempted, failed = end_to_end(
                args.workload, args.seed, args.seconds, tmp, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report["calibration_end_s"] = calibration_s()
    report["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")

    print(json.dumps({"machine": report["machine"],
                      "calibration_s": [report["calibration_start_s"], report["calibration_end_s"]]}))
    detail = {k: v for k, v in report.items() if k not in (
        "machine", "metrics", "calibration_start_s", "calibration_end_s", "op_seconds")}
    print(json.dumps(detail, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
