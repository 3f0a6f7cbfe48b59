#!/usr/bin/env python3
"""Benchmark entry point: build the episode runner, run one workload, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}

Run from the root of a checkout. The episode runner is built from source
into .bench_build/perfbench. Every episode is a fresh process running one
deterministic simulation; the run repeats episodes until S seconds have
passed (at least MIN_EPISODES) and reports:

  * virtual-time metrics (vt_*) from the simulation, which must be
    bit-identical across the run's episodes;
  * host metrics as the median over the episodes.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced
episode plus traced ones, checks that tracing left every vt_* metric and
program count unchanged, and prints the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. NOTES.md explains the workloads and the metrics.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EPISODE = os.path.join(BUILD_DIR, "perfbench_episode")
SPAN_DIR = os.path.join(BUILD_DIR, "spans")

WORKLOADS = ("mt_window", "halo", "serve_slo", "bulk_allreduce")
MIN_EPISODES = 3
EPISODE_TIMEOUT_S = 170
# After the build, a run ends within this many seconds even if the program
# hangs: episodes are cut at the deadline and the run fails.
RUN_BUDGET_S = 150
deadline = None  # monotonic time set by main()

# Metric names, units and directions: BENCHMARK.json is the one source.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
# Host-clock per-layer numbers vary between episodes; report their median.
HOST_LAYER = ("sim.host_ns_per_event", "proc.sys_frac", "proc.minflt_per_op")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """The environment without any MPIOFF_* knob (the runner refuses them)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MPIOFF_")}


def build():
    """Configure and build the episode runner; raise BenchError on failure."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "4"],
    ]
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, env=clean_env())
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_episode(workload, seed, extra=()):
    """Run one episode process; return its parsed JSON line."""
    cmd = [EPISODE, "--workload", workload, "--seed", str(seed), *extra]
    timeout = EPISODE_TIMEOUT_S
    if deadline is not None:
        timeout = max(1.0, min(timeout, deadline - time.monotonic()))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=clean_env(), timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} seed {seed}: episode timed out") from e
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError(f"{workload} seed {seed}: episode exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} seed {seed}: episode printed nothing")
    return json.loads(lines[-1])


def sweep(seed):
    """serve_slo: highest offered rate meeting the SLO (deterministic per seed)."""
    return run_episode("serve_slo", seed, ["--sweep"])["slo_max_rps"]


def fingerprint(ep):
    """Everything that must repeat exactly: vt metrics, counts, digest, outcome."""
    return (json.dumps(ep["vt"], sort_keys=True), json.dumps(ep["counts"], sort_keys=True),
            ep["digest"], ep["ops"], ep["attempted"], ep["failed"])


def episodes_for(workload, seed, seconds):
    """Repeat untraced episodes for `seconds` (at least MIN_EPISODES)."""
    eps = []
    start = time.monotonic()
    while len(eps) < MIN_EPISODES or time.monotonic() - start < seconds:
        eps.append(run_episode(workload, seed))
    return eps


def host_rate(eps):
    """Timed ops per host CPU second. Each episode splits its timed region
    into the same equal-work windows; a window's host time is its median
    over the episodes, so a burst of host interference in one episode's
    window does not move the figure."""
    windows = list(zip(*(e["windows"] for e in eps)))
    ops = sum(w[0][0] for w in windows)
    return ops / sum(median([cpu for _, cpu in w]) for w in windows)


def end_to_end(eps):
    vt = eps[0]["vt"]
    return {
        "vt_p50_us": vt["p50_us"],
        "vt_tail_us": vt["tail_us"],
        "vt_ops_per_s": vt["ops_per_s"],
        "host_ops_per_s": host_rate(eps),
        "setup_s": median([e["host"]["setup_s"] for e in eps]),
        "peak_rss_mb": median([e["host"]["peak_rss_mb"] for e in eps]),
    }


def per_layer(workload, seed, traced, untraced):
    layers = dict(traced[0]["layers"])
    for name in HOST_LAYER:
        if name in layers:
            layers[name] = median([e["layers"][name] for e in traced])
    layers["bench.trace_overhead"] = 1.0 - host_rate(traced) / host_rate([untraced])
    layers["apps.serve.slo_max_rps"] = sweep(seed) if workload == "serve_slo" else 0.0
    # A layer the workload cannot reach through the public surface reads 0
    # (serve_slo exposes only ServeResult; NOTES.md lists the pairs).
    return {name: layers.get(name, 0.0) for name in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    global deadline
    try:
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        if args.trace == 0:
            eps = episodes_for(args.workload, args.seed, args.seconds)
            metrics = end_to_end(eps)
            specs = END_TO_END
            if args.workload == "serve_slo":
                # serve_slo only, so not a BENCHMARK.json end-to-end metric.
                print(f"slo_max_rps {sweep(args.seed):.6g} 1/s (higher is better)")
        else:
            os.makedirs(SPAN_DIR, exist_ok=True)
            untraced = run_episode(args.workload, args.seed)
            traced = []
            start = time.monotonic()
            while not traced or time.monotonic() - start < args.seconds:
                out = os.path.join(SPAN_DIR, f"{args.workload}-{args.seed}-{len(traced)}.tsv")
                traced.append(run_episode(args.workload, args.seed, ["--trace-out", out]))
            eps = [untraced] + traced
            metrics = per_layer(args.workload, args.seed, traced, untraced)
            specs = PER_LAYER
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    # Deterministic simulation: every episode of one seed, traced or not,
    # must reproduce the same vt metrics, counts and data digest.
    repeatable = all(fingerprint(e) == fingerprint(eps[0]) for e in eps)
    if not repeatable:
        log("perfbench: episodes of one seed disagree on vt metrics, counts or digest")
    attempted = sum(e["attempted"] for e in eps)
    failed = sum(e["failed"] for e in eps)
    vt = eps[0]["vt"]
    log(f"{args.workload} seed {args.seed}: {len(eps)} episodes")
    print(f"fail_frac {failed / max(1, attempted):.6g} ({failed} of {attempted} ops; lower is better)")
    for name, value in metrics.items():
        note = f"; p{vt['tail_pct']:.4g} of {vt['samples']} samples" if name == "vt_tail_us" else ""
        print(f"{name} {value:.6g} {specs[name]['unit']} ({specs[name]['better']} is better{note})")
    print(json.dumps({
        "correct": repeatable and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": specs[k]["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
