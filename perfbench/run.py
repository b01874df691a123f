#!/usr/bin/env python3
"""Benchmark for lilbound: bound sweeps and Monte Carlo dominance checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bound_sweep --seed 1 --seconds 30 --trace 0

Workloads: bound_sweep, mc_iid, mc_martingale (see workloads.py).  The run
imports lilbound from the checkout's src/, repeats the workload's fixed pass
for --seconds, checks every output, and prints a human-readable report, a
provenance line, and, last, one JSON line with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 runs one untraced and one traced pass and reports
the per-layer metrics instead.  Spans of a traced run are written under
perfbench/.out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

sys.dont_write_bytecode = True  # leave nothing behind under src/

from tracing import NullTracer, Tracer  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, ".out")
SETUP_REPEATS = 3
MAX_THREADS = 2

CELL_NAMES = ("rademacher-lp", "uniform-mixed", "weibull-lp")


def _import_lilbound():
    if not os.path.isfile(os.path.join(SRC, "lilbound", "__init__.py")):
        raise SystemExit(f"error: no lilbound package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import lilbound

    if not os.path.abspath(lilbound.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported lilbound from {lilbound.__file__}, not from {SRC}")
    return lilbound


def _check_threads() -> int:
    """The most threads the benchmark uses: min(2, usable CPUs)."""
    return min(MAX_THREADS, len(os.sched_getaffinity(0)))


def measure_setup(args) -> list:
    """Seconds from spawning a fresh interpreter to its 'ready' line, SETUP_REPEATS times."""
    cmd = [sys.executable, "-B", os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up child exited {code} without becoming ready")
        times.append(elapsed)
    return times


def provenance(args, inp, lilbound) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lilbound": getattr(lilbound, "__version__", ""),
        "threads": inp.threads,
        "check_threads": inp.check_threads,
        "LIL_THREADS": os.environ.get("LIL_THREADS"),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def closed_loop(wl, inp, seconds: float, workdir: str) -> list:
    """Repeat passes while another pass of median length still fits in `seconds`."""
    tracer = NullTracer()
    results = []
    used = 0.0
    while True:
        res = wl.run_pass(inp, len(results), tracer, workdir)
        res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results.append(res)
        used += res.seconds
        if used + statistics.median(r.seconds for r in results) > seconds:
            return results


def _bound_quality(res) -> tuple:
    """(points with bound < 1, mean -log10 bound with vacuous = 0) over a pass's good ops."""
    ok = [op for op in res.ops if not op.failure]
    decades = [-math.log10(max(op.bound, 1e-300)) for op in ok]
    return sum(1 for op in ok if op.bound < 1.0), sum(decades) / max(len(decades), 1)


def pass_cost(results, normalized: bool) -> float:
    """Cost of one pass, robust to a run's slow moments.

    A step's cost is its CPU seconds or, normalized, its CPU seconds over the
    mean CPU time of the reference kernel runs just before and after it.
    Each step of the first pass counts the median cost of all steps with its
    key over the run: the same bound point on every pass, or every batch of
    one mc cell.
    """
    samples = defaultdict(list)
    for res in results:
        for i, (key, seconds) in enumerate(res.cpu_steps):
            if normalized:
                seconds /= 0.5 * (res.ref_seconds[i] + res.ref_seconds[i + 1])
            samples[key].append(seconds)
    medians = {key: statistics.median(values) for key, values in samples.items()}
    return sum(medians[key] for key, _ in results[0].cpu_steps)


def end_to_end(wl, results, setup_times) -> tuple:
    """The metrics BENCHMARK.json gates; per-pass figures are medians over the run's passes.

    The throughput is work per pass over the normalized pass cost, in
    seconds at the reference kernel's nominal speed: on a shared host the
    CPU time of the same work drifts by a quarter within minutes, and the
    reference kernel, run between the steps, drifts with it.
    """
    quality = [_bound_quality(r) for r in results]
    work = results[0].work
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s_at_ref_speed": (work / (pass_cost(results, True) * wl.REF_NOMINAL_S), "1/s"),
        # after the first pass: later passes add allocator growth, not workload needs
        "peak_rss_mb": (results[0].peak_rss_mb, "MB"),
        "informative_points": (statistics.median(q[0] for q in quality), "count"),
        "bound_decades": (statistics.median(q[1] for q in quality), "decades"),
    }, work / pass_cost(results, False)


def traced_pass(wl, inp, workdir: str, run_id: str) -> tuple:
    """One pass with wrappers installed on lilbound's module attributes.

    Each hot function is wrapped under the name its caller looks up: the
    field-spec envelope's g calls simulate.rosenthal_upper and
    simulate.mixed_norm, the block walk calls lil_bounds.tail_from_envelope,
    and the CLI calls cli.evaluate_bound_curve.
    """
    # the package exports a function named simulate, so fetch modules by name
    mod = importlib.import_module
    simulate, envelopes = mod("lilbound.simulate"), mod("lilbound.envelopes")
    tracer = Tracer(run_id)
    tracer.wrap_counter(simulate, "rosenthal_upper", "constants.rosenthal")
    tracer.wrap_counter(simulate, "mixed_norm", "grid_spaces.mixed_norm")
    tracer.wrap_counter(mod("lilbound.lil_bounds"), "tail_from_envelope", "envelopes.tail")
    tracer.wrap_counter(envelopes.MomentEnvelope, "log_g", "envelopes.log_g")
    tracer.wrap_counter(mod("lilbound.partitions").NormingSequence, "__call__", "partitions.norming")
    tracer.wrap_counter(mod("lilbound.entropy_ct"), "nu_p", "entropy_ct.nu_p")
    tracer.wrap_span(mod("lilbound.cli"), "evaluate_bound_curve", "lil_bounds.evaluate_bound_curve")
    try:
        with tracer.span("pass"):
            res = wl.run_pass(inp, 0, tracer, workdir)
    finally:
        tracer.uninstall()
    return tracer, res


def per_layer(wl, inp, tracer, res, untraced_seconds: float, rates: dict) -> tuple:
    calls, secs = tracer.calls, tracer.seconds
    curve_s = tracer.total("lil_bounds.evaluate_bound_curve")
    tail_calls = calls["envelopes.tail"]
    ok = [op for op in res.ops if not op.failure]
    diverged = sum(1 for op in ok if op.bound >= 1.0 and op.terms >= wl.MAX_TERMS)
    vacuous = sum(1 for op in ok if op.bound >= 1.0) - diverged
    cli_s = tracer.total("cli.run")
    out = {
        "constants.rosenthal_calls": (calls["constants.rosenthal"], "count"),
        "constants.rosenthal_s": (secs["constants.rosenthal"], "s"),
        "envelopes.build_s": (tracer.total("envelopes.build"), "s"),
        "envelopes.tail_calls": (tail_calls, "count"),
        "envelopes.tail_s": (secs["envelopes.tail"], "s"),
        "envelopes.tail_us_per_call": (1e6 * secs["envelopes.tail"] / max(tail_calls, 1), "us"),
        "envelopes.g_evals_per_tail_call": (calls["envelopes.log_g"] / max(tail_calls, 1), "evals/call"),
        "envelopes.tail_share_of_wall": (100.0 * secs["envelopes.tail"] / res.seconds, "%"),
        "grid_spaces.mixed_norm_calls": (calls["grid_spaces.mixed_norm"], "count"),
        "grid_spaces.mixed_norm_s": (secs["grid_spaces.mixed_norm"], "s"),
        "partitions.norming_calls": (calls["partitions.norming"], "count"),
        "partitions.norming_s": (secs["partitions.norming"], "s"),
        "lil_bounds.self_s": (curve_s - secs["envelopes.tail"] - secs["partitions.norming"], "s"),
        "lil_bounds.terms_per_point": (sum(op.terms for op in ok) / max(len(ok), 1), "terms"),
        "lil_bounds.diverged_points": (diverged, "count"),
        "lil_bounds.vacuous_points": (vacuous, "count"),
        "entropy_ct.nu_p_calls": (calls["entropy_ct.nu_p"], "count"),
        "cli.bound_calls": (tracer.count("cli.run"), "count"),
        "cli.csv_bytes": (res.csv_bytes, "bytes"),
    }
    # rates, not times: a layer a workload never calls reads 0 here
    for cell in CELL_NAMES:
        rate_1t = rates[1].get(cell, 0.0)
        rate_2t = rates[2].get(cell, 0.0)
        out[f"simulate.trial_steps_per_s_1t.{cell}"] = (rate_1t, "trial-steps/s")
        out[f"simulate.trial_steps_per_s_2t.{cell}"] = (rate_2t, "trial-steps/s")
        out[f"simulate.scaling_eff.{cell}"] = (rate_2t / (2.0 * rate_1t) if rate_1t else 0.0, "ratio")
    out["trace.overhead_pct"] = (100.0 * (res.seconds - untraced_seconds) / untraced_seconds, "%")
    # Times of layers that only some workloads call: reported, never zero-filled
    # into the JSON, where a time that reads 0 on every run would mean nothing.
    report_only = {
        "entropy_ct.nu_envelope_s": (tracer.total("entropy_ct.nu_envelope"), "s"),
        "cli.bound_s": (cli_s, "s"),
        "cli.self_s": (cli_s - tracer.total("lil_bounds.evaluate_bound_curve", "cli.run"), "s"),
        "simulate.empirical_Q_s": (tracer.total("simulate.empirical_Q"), "s"),
        "simulate.dominance_s": (tracer.total("simulate.dominance_report"), "s"),
    }
    for cell in CELL_NAMES:
        report_only[f"simulate.sim_s.{cell}"] = (tracer.total(f"simulate.simulate_many.{cell}"), "s")
    return out, report_only


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bound_sweep", "mc_iid", "mc_martingale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    lilbound = _import_lilbound()
    import workloads as wl

    inp = wl.make_inputs(args.workload, args.seed, _check_threads(), args.tiny)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    os.environ["LIL_THREADS"] = str(inp.threads)  # pins every cli.run
    setup_times = measure_setup(args) if not args.trace else []
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as workdir:
        if args.trace:
            results = [wl.run_pass(inp, 0, NullTracer(), workdir)]
        else:
            results = closed_loop(wl, inp, args.seconds, workdir)
        wl.check_pass(inp, results[0])
        for res in results[1:]:
            wl.check_pass(inp, res, full=False)
        ops = [op for r in results for op in r.ops]
        failed = [op for op in ops if op.failure]
        prov = provenance(args, inp, lilbound)
        print("provenance: " + json.dumps(prov, sort_keys=True))
        for op in failed[:20]:
            print(f"FAILED {op.cell} r={op.r} u={op.u!r}: {op.failure}")
        print(f"failed_ops_ratio = {len(failed)}/{len(ops)} failed/attempted")
        if args.trace:
            run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{int(time.time())}"
            untraced = results[0].seconds
            tracer, traced = traced_pass(wl, inp, workdir, run_id)
            mc = inp.workload != "bound_sweep"
            rates = {n: wl.thread_rates(inp, n) if mc and n <= inp.check_threads else {} for n in (1, 2)}
            metrics, report_only = per_layer(wl, inp, tracer, traced, untraced, rates)
            _print_metrics(f"per-layer metrics, {args.workload}, traced pass", metrics)
            _print_metrics("per-layer times of layers not every workload calls", report_only)
            print(f"tracing overhead: traced wall_s {traced.seconds!r} s - untraced wall_s {untraced!r} s"
                  f" = {traced.seconds - untraced!r} s")
            trace_path = os.path.join(OUT_DIR, f"trace-{run_id}.json")
            tracer.dump(trace_path, {"provenance": prov, "metrics": {**metrics, **report_only}})
            print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        else:
            metrics, cpu_rate = end_to_end(wl, results, setup_times)
            _print_metrics(f"end-to-end metrics, {args.workload}", metrics)
            _print_workload_view(wl, args.workload, results, metrics, setup_times, cpu_rate)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _print_workload_view(wl, workload, results, metrics, setup_times, cpu_rate) -> None:
    """The run under workload-specific names, with the figures BENCHMARK.json does not gate."""
    steps = [s for r in results for s in r.step_seconds]
    print(f"# passes {len(results)}: " + ", ".join(repr(r.seconds) for r in results)
          + "; setup samples: " + ", ".join(repr(t) for t in setup_times))
    print(f"wall_s = {statistics.median(r.seconds for r in results)!r} s (median pass)")
    rate = sum(r.work for r in results) / sum(r.seconds for r in results)
    print(f"work_per_cpu_s = {cpu_rate!r} 1/s (median CPU time of each step)")
    refs = [t for r in results for t in r.ref_seconds]
    print(f"ref_kernel_s = {statistics.median(refs)!r} s (median of {len(refs)} runs;"
          f" nominal {wl.REF_NOMINAL_S!r} s)")
    if workload == "bound_sweep":
        print(f"bound_points_per_s = {rate!r} points/s (wall)")
        step = "bound_point_s"
    else:
        print(f"trial_steps_per_s = {rate!r} trial-steps/s (wall)")
        step = "sim_batch_s"
        q_hat = statistics.median(sum(1 for op in r.ops if op.q_hat > 0.0) for r in results)
        print(f"informative_points_with_q_hat = {metrics['informative_points'][0] + q_hat!r} count"
              " (bound < 1, plus q_hat > 0)")
    # at full size (40 or more steps) p75 is the highest percentile with ten beyond it
    _, p50, p75 = statistics.quantiles(steps, n=4, method="inclusive")
    for q, value in ((50, p50), (75, p75)):
        print(f"{step}_p{q} = {value!r} s ({len(steps)} samples)")
    print(f"mean_log10_bound = {-metrics['bound_decades'][0]!r} log10")


if __name__ == "__main__":
    sys.exit(main())
