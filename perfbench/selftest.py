#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

For each workload it runs run.py --tiny untraced and traced and checks that
every metric BENCHMARK.json lists is printed with its unit, that the traced
run prints every per-layer name, including the layer times kept out of the
JSON, and that no operation failed.  It then checks that the runs wrote
nothing under src/ or tests/, and that run.py fails without printing a
result in a directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
WORKLOADS = ("bound_sweep", "mc_iid", "mc_martingale")
CELLS = ("rademacher-lp", "uniform-mixed", "weibull-lp")
REPORT_ONLY = (
    "entropy_ct.nu_envelope_s", "cli.bound_s", "cli.self_s",
    "simulate.empirical_Q_s", "simulate.dominance_s",
) + tuple(f"simulate.sim_s.{cell}" for cell in CELLS)
_VIEW = ("wall_s", "work_per_cpu_s", "ref_kernel_s", "mean_log10_bound")
_MC_VIEW = _VIEW + ("trial_steps_per_s", "sim_batch_s_p50", "sim_batch_s_p75", "informative_points_with_q_hat")
WORKLOAD_VIEW = {
    "bound_sweep": _VIEW + ("bound_points_per_s", "bound_point_s_p50", "bound_point_s_p75"),
    "mc_iid": _MC_VIEW,
    "mc_martingale": _MC_VIEW,
}


def snapshot(*dirs) -> dict:
    state = {}
    for top in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                path = os.path.join(base, name)
                with open(path, "rb") as handle:
                    state[path] = hashlib.sha256(handle.read()).hexdigest()
            state[base] = "dir"
    return state


def run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, RUN if cwd == ROOT else os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int, spec: dict, errors: list) -> None:
    done = run(workload, trace)
    tag = f"{workload} --trace {trace}"
    if done.returncode != 0:
        errors.append(f"{tag}: exit {done.returncode}: {done.stderr[-400:]}")
        return
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{tag}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{tag}: {result['failed']}/{result['attempted']} operations failed")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        errors.append(f"{tag}: metric names differ from BENCHMARK.json")
    text = "\n".join(lines[:-1])
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        if got.get("unit") != metric["unit"]:
            errors.append(f"{tag}: {metric['name']} unit {got.get('unit')!r} != {metric['unit']!r}")
        if not _has_unit(text, metric):
            errors.append(f"{tag}: report line for {metric['name']} with unit {metric['unit']} missing")
    extra = REPORT_ONLY + ("tracing overhead",) if trace else WORKLOAD_VIEW[workload] + ("failed_ops_ratio",)
    for name in extra + ("provenance",):
        if name not in text:
            errors.append(f"{tag}: {name} not printed")


def _has_unit(text: str, metric: dict) -> bool:
    prefix = f"{metric['name']} = "
    return any(line.startswith(prefix) and line.endswith(" " + metric["unit"]) for line in text.splitlines())


def check_bare_directory(errors: list) -> None:
    """Only BENCHMARK.json and perfbench/: run.py must fail and print no result."""
    os.makedirs(os.path.join(BENCH_DIR, ".out"), exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=os.path.join(BENCH_DIR, ".out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".out", "__pycache__"))
        done = run("bound_sweep", 0, cwd=bare)
        if done.returncode == 0 or '"correct"' in done.stdout:
            errors.append("bare directory: run.py exited 0 or printed a result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    before = snapshot("src", "tests")
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, spec, errors)
            print(f"ran {workload} --trace {trace}", flush=True)
    if snapshot("src", "tests") != before:
        errors.append("the benchmark wrote under src/ or tests/")
    check_bare_directory(errors)
    for err in errors:
        print("FAIL", err)
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
