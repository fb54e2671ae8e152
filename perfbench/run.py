#!/usr/bin/env python3
"""Two-clock benchmark of the Matrix-PIC simulator.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]   # all three

Builds perfbench/ (which compiles ../src) into .bench_build/, runs each
workload in its own process on min(4, nproc) OpenMP threads, checks the
physics, and prints, as the last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from a traced run that is checked against an untraced twin.
README.md in this directory documents every metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "release")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("uniform_qsp", "lwfa", "bunched_esirkepov")

# Host seconds per step at 4 threads on the reference machine (4-core x86
# container). Only sizes the window from --seconds; never a measured value.
NOMINAL_STEP_S = {"uniform_qsp": 0.75, "lwfa": 0.20, "bunched_esirkepov": 0.65}
# Global sorts come every 10 steps, and the binary starts the window right
# after the first one, so a window of whole periods holds every step of the
# sort cycle equally often.
PERIOD = 10
# Set-up-only processes per run, about half before the measured process and
# half after it, so the set-up samples span the whole run.
SETUP_RUNS = 8
# Wall-clock budget of one workload's processes (the build comes before it).
RUN_DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def threads():
    return max(1, min(4, nproc()))


def child_env(**extra):
    """Environment for child processes: temporary files stay in the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, **extra)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(threads())
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                             text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:] + res.stderr[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def window_steps(workload, seconds):
    periods = max(1, round(seconds / (PERIOD * NOMINAL_STEP_S[workload])))
    return PERIOD * periods


def run_binary(binary, workload, seed, steps, deadline, trace_path=None):
    """Runs one process; `steps` 0 only times set-up builds."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--steps", str(steps)]
    if trace_path:
        cmd += ["--trace", trace_path]
    env = child_env(OMP_NUM_THREADS=str(threads()))
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s did not finish in %d s"
                         % (workload, RUN_DEADLINE_S))
    if res.returncode != 0:
        log(res.stderr[-4000:])
        raise SystemExit("perfbench: %s exited with %d" % (workload, res.returncode))
    return json.loads(res.stdout.strip().splitlines()[-1])


def per_step(rec, value):
    return value / rec["steps"]


def modeled_s(rec, cycles):
    return cycles / rec["freq_hz"] / rec["steps"]


def folded_median(values):
    """Mean over the PERIOD step positions of the median over periods.

    The window starts right after a global sort and sorts come every PERIOD
    steps, so position j is the same step of the sort cycle in every period.
    Each step of the cycle (the sort step, the steps as the particle order
    decays) thus keeps its weight, as in a plain mean, while a burst of host
    noise that hits fewer than half the periods at a position moves nothing.
    With one or two periods it is the plain mean.
    """
    periods = len(values) // PERIOD
    return statistics.mean(
        statistics.median(values[p * PERIOD + j] for p in range(periods))
        for j in range(PERIOD))


def step_times(rec, key):
    return [s[key] for s in rec["step_times"]]


def host_step_s(rec):
    return folded_median(step_times(rec, "host_s"))


def setup_s(recs):
    """Median of all the run's builds, spread over processes and over the run."""
    return statistics.median(b["setup_s"] for rec in recs for b in rec["builds"])


def end_to_end(rec, setup_recs):
    return {
        "host_step_s": (host_step_s(rec), "s"),
        "modeled_step_s": (modeled_s(rec, rec["total_cycles"]), "s"),
        "modeled_deposit_s": (modeled_s(rec, rec["deposition_cycles"]), "s"),
        "setup_s": (setup_s([rec] + setup_recs), "s"),
        "host_peak_rss_mb": (rec["peak_rss_mb"], "MB"),
    }


def per_layer(rec, untraced):
    ph = rec["phase_cycles"]
    c = rec["counters"]
    probe = {p["name"]: p for p in rec["probes"]}
    accesses = c["l1_hits"] + c["l1_misses"]
    l2 = c["l2_hits"] + c["l2_misses"]
    step_host = host_step_s(rec)
    return {
        "push.modeled_gather_s": (modeled_s(rec, ph["gather"]), "s"),
        "push.modeled_push_s": (modeled_s(rec, ph["push"]), "s"),
        "push.vpu_gathers": (per_step(rec, c["gathers"]), "count/step"),
        "push.probe_host_s": (probe["gather_push"]["host_s"], "s"),
        "deposit.modeled_preproc_s": (modeled_s(rec, ph["preproc"]), "s"),
        "deposit.modeled_compute_s": (modeled_s(rec, ph["compute"]), "s"),
        "deposit.modeled_reduce_s": (modeled_s(rec, ph["reduce"]), "s"),
        "deposit.mopas": (per_step(rec, c["mopas"]), "count/step"),
        "deposit.mpu_occupancy": (
            c["mopa_valid_slots"] / (64.0 * c["mopas"]) if c["mopas"] else 0.0, "1"),
        "deposit.probe_host_s": (probe["deposit"]["host_s"], "s"),
        "sort.modeled_s": (modeled_s(rec, ph["sort"]), "s"),
        "sort.moved_particles": (per_step(rec, rec["moved"]), "count/step"),
        "sort.crossed_tiles": (per_step(rec, rec["crossed"]), "count/step"),
        "sort.gpma_rebuilds": (per_step(rec, rec["rebuilds"]), "count/step"),
        "sort.global_sorts": (rec["global_sorts"], "count"),
        "sort.scan_probe_host_s": (probe["sort_scan"]["host_s"], "s"),
        "sort.global_probe_host_s": (probe["global_sort"]["host_s"], "s"),
        "solver.modeled_s": (modeled_s(rec, ph["solver"]), "s"),
        "solver.probe_host_s": (probe["solver"]["host_s"], "s"),
        "core.modeled_other_s": (modeled_s(rec, ph["other"]), "s"),
        "hw.accesses": (per_step(rec, accesses), "count/step"),
        "hw.l1_hit_rate": (c["l1_hits"] / accesses if accesses else 0.0, "1"),
        "hw.l2_hit_rate": (c["l2_hits"] / l2 if l2 else 0.0, "1"),
        "hw.dram_lines": (per_step(rec, c["l2_misses"]), "count/step"),
        "hw.host_ns_per_access": (
            1e9 * sum(step_times(rec, "host_s")) / accesses if accesses else 0.0,
            "ns"),
        "hw.tasks_stolen": (per_step(rec, c["tasks_stolen"]), "count/step"),
        "hw.steal_s": (modeled_s(rec, c["steal_cycles"]), "s"),
        "hw.remote_lines": (per_step(rec, c["remote_lines"]), "count/step"),
        "hw.remote_share": (
            c["remote_lines"] / c["l2_misses"] if c["l2_misses"] else 0.0, "1"),
        "particles.live": (rec["live_end"], "count"),
        "particles.pushed": (per_step(rec, rec["pushed"]), "count/step"),
        "particles.window_dropped": (per_step(rec, rec["dropped"]), "count/step"),
        "particles.window_injected": (per_step(rec, rec["injected"]), "count/step"),
        "runtime.checkpoint_mb": (rec["checkpoint_bytes"] / 1e6, "MB"),
        "runtime.save_host_s": (probe["checkpoint_save"]["host_s"], "s"),
        "runtime.digest_host_s": (probe["simulation_digest"]["host_s"], "s"),
        "core.step_host_s": (step_host, "s"),
        "core.step_cpu_s": (folded_median(step_times(rec, "cpu_s")), "s"),
        "core.tracing_overhead_frac": (step_host / host_step_s(untraced) - 1.0, "1"),
    }


def physics_ok(rec):
    return rec["failed_steps"] == 0 and rec["window_check_ok"]


def twin_mismatches(traced, untraced):
    """What differs between a traced run and its untraced twin (should be nothing)."""
    keys = ("ledger_digest", "sim_digest", "total_cycles", "deposition_cycles",
            "phase_cycles", "counters")
    bad = [k for k in keys if traced[k] != untraced[k]]
    for k in ("step_deltas_match_window", "probe_digest_matches", "trace_written"):
        if not traced.get(k):
            bad.append(k)
    return bad


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(binary, workload, seed, seconds, trace):
    steps = window_steps(workload, seconds)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # Set-up is only an end-to-end metric; the traced run skips its samples.
    setup_runs = 0 if trace else SETUP_RUNS
    setup_recs = [run_binary(binary, workload, seed, 0, deadline)
                  for _ in range(setup_runs // 2)]
    untraced = run_binary(binary, workload, seed, steps, deadline)
    setup_recs += [run_binary(binary, workload, seed, 0, deadline)
                   for _ in range(setup_runs - setup_runs // 2)]
    info = {"workload": workload, "seed": seed, "steps": steps,
            "warmup_steps": untraced["warmup_steps"],
            "setup_runs": len(setup_recs),
            "threads": untraced["threads"], "nproc": nproc(),
            "build_type": untraced["build_type"], "commit": commit(),
            "source_digest": source_digest(),
            "ledger_digest": untraced["ledger_digest"],
            "sim_digest": untraced["sim_digest"]}
    correct = physics_ok(untraced)
    rec = untraced
    if trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))
        rec = run_binary(binary, workload, seed, steps, deadline, trace_path)
        mismatches = twin_mismatches(rec, untraced)
        if mismatches:
            log("%s: traced run differs from untraced twin in %s"
                % (workload, ", ".join(mismatches)))
        correct = correct and physics_ok(rec) and not mismatches
        info["trace"] = os.path.relpath(trace_path, ROOT)
        metrics = per_layer(rec, untraced)
    else:
        metrics = end_to_end(untraced, setup_recs)
    info["failed_step_frac"] = rec["failed_steps"] / rec["steps"]
    value = rec.get("window_check_value")  # absent when not finite
    info["window_check"] = "window check: none" if rec["window_check"] == "none" else (
        "window check: %s=%s (limit %.3g)" % (
            rec["window_check"], "nan" if value is None else "%.3g" % value,
            rec["window_check_limit"]))
    result = {"correct": bool(correct), "attempted": rec["steps"],
              "failed": rec["failed_steps"], "info": info,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (workload, seed, int(trace))), "w") as f:
        json.dump(dict(result, record=rec, setup_records=setup_recs), f, indent=1)
    return result


def print_table(result):
    info = result["info"]
    print("== %s  seed=%d threads=%d nproc=%d build=%s commit=%s src=%s"
        % (info["workload"], info["seed"], info["threads"], info["nproc"],
           info["build_type"], info["commit"][:12], info["source_digest"]))
    print("   ledger_digest=%s sim_digest=%s  %s"
        % (info["ledger_digest"], info["sim_digest"], info["window_check"]))
    for name, m in result["metrics"].items():
        print("   %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("   %-28s %14.6g %s" % ("failed_step_frac", info["failed_step_frac"], "1"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    t0 = time.time()
    binary = build()
    log("perfbench: build ready in %.1f s" % (time.time() - t0))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = [run_workload(binary, w, args.seed, args.seconds, bool(args.trace))
               for w in workloads]
    for r in results:
        print_table(r)
    if args.workload:
        r = results[0]
        final = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {"%s/%s" % (r["info"]["workload"], k): m
                             for r in results for k, m in r["metrics"].items()}}
    print(json.dumps(final))


if __name__ == "__main__":
    main()
