#!/usr/bin/env python3
"""Benchmark of the amner toolkit: four closed-loop workloads.

    python3 perfbench/run.py --workload train-open-vocab --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                # every workload, seed 0, untraced

For each workload this script generates inputs from the seed into a
scratch directory inside the checkout, starts ``child.py`` in a fresh
process with one BLAS thread, and prints every end-to-end metric by name
with its unit.  ``--trace 1`` runs the workload twice, untraced and
traced, and reports per-layer self times and call counts plus the
tracing overhead.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md for why
each workload exists and which layer it stresses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import workloads
from child import BENCHMARK, OUT, REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1

END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
RATE_UNITS = {"train_tok_s": "tok/s", "tag_tok_s": "tok/s", "eval_tok_s": "tok/s", "smote_rows_s": "rows/s"}
# which per-operation rate is the workload's ``throughput``
THROUGHPUT = {
    "train-closed-vocab": "train_tok_s",
    "train-open-vocab": "train_tok_s",
    "tag-eval": "tag_tok_s",
    "smote-balance": "smote_rows_s",
}


def run_record(seed: int) -> dict:
    """Machine and software facts stored with every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_name = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_sha": sha,
        "seed": seed,
    }


def run_child(workload: str, inputs: Path, args, trace: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    result_path = inputs / f"result-trace{trace}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--inputs", str(inputs), "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--result", str(result_path),
    ]
    # set-up, the forced prefix of operations and the output checks come on top of --seconds
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=2 * args.seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def show(workload: str, name: str, value, unit: str) -> None:
    print(f"{workload} {name} {value!r} {unit}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:  # no operation, or a single one, succeeded
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def rates(ops: list, scaled: bool = True) -> list[float]:
    """Per-operation rates from timed operations [units, wall_s, cpu_s, reference_s],
    scaled to reference speed unless ``scaled`` is false."""
    return [units / wall * (ref / REF_S if scaled else 1.0) for units, wall, _, ref in ops]


def cpu_share(ops: list) -> float:
    """CPU time over wall time of the operations; below 1 if the process waited."""
    return sum(op[2] for op in ops) / sum(op[1] for op in ops)


def throughput(workload: str, result: dict) -> float:
    """Median of the workload's main per-operation rate, at reference speed."""
    return quartiles(rates(result["ops"][THROUGHPUT[workload]]))[1]


def setup_s(result: dict, scaled: bool = True) -> float:
    """Median set-up time, at reference speed unless ``scaled`` is false."""
    return statistics.median(wall * (REF_S / ref if scaled else 1.0) for wall, ref in result["setup"])


def end_to_end(workload: str, result: dict) -> dict:
    """Print the workload's metrics and return the JSON end-to-end ones."""
    values = {
        "setup_s": setup_s(result),
        "throughput": throughput(workload, result),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    show(workload, "setup_s", setup_s(result, scaled=False), "s")
    print(f"{workload} setup_s at reference speed {values['setup_s']:.6g} s")
    for name, ops in result["ops"].items():
        show(workload, name, quartiles(rates(ops, scaled=False))[1], RATE_UNITS[name])
        for label, scaled in (("", False), (" at reference speed", True)):
            q1, q2, q3 = quartiles(rates(ops, scaled))
            print(f"{workload} {name}{label} quartiles {q1:.6g} {q2:.6g} {q3:.6g} over {len(ops)} operations")
        q1, q2, q3 = quartiles([1e3 * op[3] for op in ops])
        print(f"{workload} {name} reference_ms quartiles {q1:.4g} {q2:.4g} {q3:.4g}, "
              f"cpu/wall {cpu_share(ops):.4f}")
    if "dev_f1" in result:
        show(workload, "dev_f1", result["dev_f1"], "F1")
    show(workload, "peak_rss_mb", values["peak_rss_mb"], "MB")
    show(workload, "setup_rss_mb", result["setup_rss_mb"], "MB")
    show(workload, "fail_frac", len(result["failures"]) / result["attempted"], "ratio")
    for failure in result["failures"]:
        print(f"{workload} FAILED {failure}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_workload(workload: str, args) -> dict:
    inputs = OUT / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        workloads.generate(workload, args.seed, inputs)
        plain = run_child(workload, inputs, args, trace=0)
        metrics = end_to_end(workload, plain)
        results = [plain]
        problems = []
        if args.trace:
            traced = run_child(workload, inputs, args, trace=1)
            results.append(traced)
            print(f"{workload} traced run:")
            end_to_end(workload, traced)
            if traced.get("dev_f1") != plain.get("dev_f1"):
                problems.append(f"dev_f1 differs: {plain.get('dev_f1')!r} untraced, "
                                f"{traced.get('dev_f1')!r} traced")
            if traced["missing_spans"]:
                problems.append(f"predicted spans with no calls: {traced['missing_spans']}")
            layer = dict(traced["per_layer"])
            layer["trace.overhead_pct"] = 100.0 * (
                1.0 - throughput(workload, traced) / throughput(workload, plain)
            )
            layer["trace.setup_overhead_pct"] = 100.0 * (setup_s(traced) / setup_s(plain) - 1.0)
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
            for name, entry in metrics.items():
                show(workload, name, entry["value"], entry["unit"])
            for problem in problems:
                print(f"{workload} FAILED {problem}")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    checks = 2 if args.trace else 0  # dev_f1 equality and span coverage
    failed = sum(len(r["failures"]) for r in results) + len(problems)
    record = dict(run_record(args.seed), workload=workload, trace=args.trace,
                  seconds=args.seconds, metrics=metrics, failed=failed,
                  runs=[{k: r[k] for k in ("setup", "ops", "failures")} for r in results])
    (OUT / f"result-{workload}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"{workload} record {json.dumps({k: v for k, v in record.items() if k not in ('metrics', 'runs')})}")
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results) + checks,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="amner benchmark")
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "amner" / "__init__.py").is_file():
        print(f"error: no toolkit source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
