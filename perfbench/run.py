#!/usr/bin/env python3
"""End-to-end benchmark for `pift serve` and `pift sweep`.

Run from the repository root:

    python3 perfbench/run.py --workload serve-wide --seed 1 --seconds 10 --trace 0

Builds the measuring program (perfbench/src) into .bench_build, generates
the workload's inputs from --seed, computes the reference results once,
then runs timed iterations, one process each, for --seconds seconds.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced iterations and reports the per-layer
metrics.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every result matched the reference, no
item was dropped and, when traced, the producer-side accounting held.
See perfbench/README.md for the workloads and the metric table.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TARGET = "./perfbench/src/perfbench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "src", "perfbench.exe")

WORKLOADS = ("serve-wide", "serve-deep", "sweep-grid")

# Medians need a few samples even when --seconds is shorter than that
# many iterations.
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
# Any single step beyond this is a hang; the whole run must end in 180 s.
STEP_TIMEOUT_S = 150
# trace_io.read_s + ingest.merge_self_s + engine.producer_wait_s is the
# producer domain's span from its first to its last stream pull;
# engine.run_s adds pool dispatch, the final flush and the consumer's
# drain of whatever is still queued.
ACCOUNTING_TOLERANCE_PCT = 5.0

# (name, unit) — must match BENCHMARK.json (checked by test_run.py).
END_TO_END = [
    ("events_per_s", "events/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("trace_io.read_s", "s"),
    ("trace_io.items", "count"),
    ("trace_io.bytes_read", "bytes"),
    ("ingest.merge_self_s", "s"),
    ("ingest.alloc_words_per_item", "words"),
    ("engine.run_s", "s"),
    ("engine.producer_wait_s", "s"),
    ("engine.batches", "count"),
    ("engine.max_queue_depth", "count"),
    ("engine.dropped", "count"),
    ("engine.overhead_x", "x"),
    ("tracker.replay_s", "s"),
    ("tracker.events", "count"),
    ("tracker.lookups", "count"),
    ("tracker.taint_ops", "count"),
    ("tracker.untaint_ops", "count"),
    ("store.busy_s", "s"),
    ("store.calls", "count"),
    ("store.max_tainted_bytes", "bytes"),
    ("store.max_ranges", "count"),
    ("provenance.extra_s", "s"),
    ("record.s", "s"),
    ("record.events", "count"),
    ("pool.idle_s", "s"),
    ("replay.cell_s_p50", "s"),
    ("replay.cell_s_max", "s"),
    ("gc.minor_words_per_event", "words"),
    ("gc.major_collections", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.producer_sum_error_pct", "%"),
]
# Layer figures taken from the untraced iterations, not the traced ones.
UNTRACED_LAYER = ("gc.minor_words_per_event", "gc.major_collections")


class StepFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Compile the measuring program from source into .bench_build."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR, TARGET]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise StepFailed(f"build failed: {e}")
    if proc.returncode != 0 or not os.path.exists(EXE):
        raise StepFailed("build failed:\n" + proc.stdout[-4000:])


def step(args):
    """Run one perfbench step to completion.

    Returns its last stdout line parsed as JSON (None when it printed
    nothing) and its peak resident memory in MB, read from wait4.
    """
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise StepFailed(f"perfbench {' '.join(args)} exited {proc.returncode}")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return result, usage.ru_maxrss / 1024.0


def gen(workload, seed, workdir):
    step(["gen", "--workload", workload, "--seed", str(seed), "--dir", workdir])


def reference(workload, workdir):
    step(["ref", "--workload", workload, "--dir", workdir])


def measure(workload, workdir, traced):
    """One timed iteration; its figures plus peak_rss_mb."""
    args = ["measure", "--workload", workload, "--dir", workdir]
    result, rss_mb = step(args + (["--trace"] if traced else []))
    result["peak_rss_mb"] = rss_mb
    result["events_per_s"] = result["events"] / result["run_s"]
    return result


def iterate(workload, workdir, seconds, modes, minimum):
    """Run rounds of iterations (one per mode) while another round fits
    in `seconds`, and at least `minimum` rounds."""
    runs = {m: [] for m in modes}
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for traced in modes:
            runs[traced].append(measure(workload, workdir, traced))
        now = time.monotonic()
        if len(runs[modes[0]]) >= minimum and now - start + (now - round_start) > seconds:
            return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 when the
    median is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def gate(runs, traced_runs=()):
    """(correct, attempted, failed, reasons) over all iterations."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    reasons = []
    if failed:
        reasons.append(f"{failed} of {attempted} results differ from the reference")
    dropped = sum(r["dropped"] for r in runs)
    if dropped:
        reasons.append(f"{dropped} items dropped")
    for r in traced_runs:
        err = r["trace.producer_sum_error_pct"]
        if err > ACCOUNTING_TOLERANCE_PCT:
            reasons.append(f"producer-side parts miss engine.run_s by {err:.2f}% "
                           f"(tolerance {ACCOUNTING_TOLERANCE_PCT}%)")
    return not reasons, attempted, failed, reasons


def summarize(names, runs):
    """name -> (median over the iterations, how it was taken)."""
    out = {}
    for name in names:
        values = [r[name] for r in runs]
        out[name] = (statistics.median(values),
                     f"median of {len(values)}, IQR {100 * spread(values):.1f}% of median")
    return out


def layer_metrics(untraced, traced):
    names = [n for n, _ in PER_LAYER if n not in UNTRACED_LAYER
             and not n.startswith("trace.")]
    summary = summarize(names, traced)
    summary.update(summarize(UNTRACED_LAYER, untraced))
    plain_eps = statistics.median(r["events_per_s"] for r in untraced)
    traced_eps = statistics.median(r["events_per_s"] for r in traced)
    summary["trace.overhead_pct"] = (
        100.0 * (plain_eps / traced_eps - 1.0),
        f"median events_per_s, {len(untraced)} untraced vs {len(traced)} traced")
    summary["trace.producer_sum_error_pct"] = (
        max(r["trace.producer_sum_error_pct"] for r in traced),
        f"worst of {len(traced)} traced iterations")
    return summary


def report(args, all_runs, units, summary, gate_result):
    correct, attempted, failed, reasons = gate_result
    env_run = all_runs[0]
    domains = env_run["domains_available"]
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "shards": env_run["shards"],
        "jobs": env_run["jobs"],
        "domains_available": domains,
        "ocaml_version": env_run["ocaml_version"],
        "iterations": len(all_runs),
        "comparable": domains >= 2,
    }
    print("env " + json.dumps(env))
    if domains < 2:
        print(f"WARNING: {domains} domain(s) available; the serve producer and "
              "consumer share a core, so this run is not comparable")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for name, (value, note) in summary.items():
        print(f"{name} {value:.6g} {units[name]} ({note})")
    for reason in reasons:
        print("FAILED: " + reason)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, (value, _) in summary.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        log("perfbench: building")
        build()
        os.makedirs(BUILD_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="perfbench-", dir=BUILD_DIR)
        try:
            log(f"perfbench: generating {args.workload} inputs, seed {args.seed}")
            gen(args.workload, args.seed, workdir)
            log("perfbench: computing the reference")
            reference(args.workload, workdir)
            log(f"perfbench: measuring for {args.seconds} s")
            if args.trace:
                runs = iterate(args.workload, workdir, args.seconds,
                               (False, True), MIN_TRACED_PAIRS)
                untraced, traced = runs[False], runs[True]
                summary = layer_metrics(untraced, traced)
                units = dict(PER_LAYER)
                result = gate(untraced + traced, traced)
                all_runs = untraced + traced
            else:
                untraced = iterate(args.workload, workdir, args.seconds,
                                   (False,), MIN_ITERATIONS)[False]
                summary = summarize([n for n, _ in END_TO_END], untraced)
                units = dict(END_TO_END)
                result = gate(untraced)
                all_runs = untraced
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except StepFailed as e:
        log(f"perfbench: {e}")
        return 2
    return 0 if report(args, all_runs, units, summary, result) else 1


if __name__ == "__main__":
    sys.exit(main())
