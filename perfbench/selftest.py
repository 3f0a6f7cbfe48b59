#!/usr/bin/env python3
"""Self-tests that show the benchmark measures what it claims to.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a checkout; they run outside the measured runs.

  checks      every workload passes its output checks at the seed; one
              corrupted received buffer gives fail_frac > 0
  pinned      the same seed twice gives identical vt metrics, counts and
              digests; a second seed passes every check; the runner refuses
              to start with an MPIOFF_* variable set
  neutrality  a traced episode matches the untraced one exactly; the
              tracing overhead on host_ops_per_s is printed
  host canary a fixed busy-wait at every benchmark proxy call lowers
              mt_window's host_ops_per_s by its predicted share, while vt
              metrics and program counts stay bit-identical
  vt canary   Profile::cmd_enqueue + DELTA raises mt_window's core.post_vt_ns
              by DELTA and moves its vt metrics; bulk_allreduce (baseline
              approach, never enqueues) stays bit-identical

Exits 0 iff every check passes.
"""
import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

CORRUPTIBLE = ("mt_window", "halo", "bulk_allreduce")
CANARY_HOST_NS = 20000
CANARY_EPISODES = 3
ENQUEUE_DELTA_NS = 100

failures = []


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        failures.append(what)


def traced(workload, seed, extra=()):
    os.makedirs(run.SPAN_DIR, exist_ok=True)
    out = os.path.join(run.SPAN_DIR, f"selftest-{workload}-{seed}.tsv")
    return run.run_episode(workload, seed, ["--trace-out", out, *extra])


def per_workload(workload, seed, seed2):
    """checks, pinned inputs and neutrality for one workload."""
    a = run.run_episode(workload, seed)
    b = run.run_episode(workload, seed)
    t = traced(workload, seed)
    c = run.run_episode(workload, seed2)
    check(a["failed"] == 0 and a["attempted"] > 0,
          f"{workload}: seed {seed} passes its output checks ({a['attempted']} ops)")
    check(run.fingerprint(a) == run.fingerprint(b),
          f"{workload}: seed {seed} twice gives identical vt metrics, counts, digest")
    check(c["failed"] == 0 and run.fingerprint(c) != run.fingerprint(a),
          f"{workload}: seed {seed2} passes its checks with different inputs")
    check(run.fingerprint(t) == run.fingerprint(a),
          f"{workload}: traced episode ({t['spans']} spans) matches the untraced one")
    overhead = 1.0 - t["host"]["ops_per_s"] / a["host"]["ops_per_s"]
    print(f"      {workload}: tracing overhead on host_ops_per_s {overhead:+.1%}")
    if workload in CORRUPTIBLE:
        k = run.run_episode(workload, seed, ["--corrupt"])
        check(k["failed"] > 0,
              f"{workload}: corrupted buffer gives fail_frac {k['failed'] / k['attempted']:.3g} > 0")
    return a


def refuses_env(seed):
    env = dict(run.clean_env(), MPIOFF_PROXY="proxies:1")
    proc = subprocess.run([run.EPISODE, "--workload", "mt_window", "--seed", str(seed)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=run.EPISODE_TIMEOUT_S)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "runner refuses to start with MPIOFF_PROXY set")


def host_canary(seed):
    base = [run.run_episode("mt_window", seed) for _ in range(CANARY_EPISODES)]
    slow = [run.run_episode("mt_window", seed, ["--canary-host-ns", str(CANARY_HOST_NS)])
            for _ in range(CANARY_EPISODES)]
    check(all(run.fingerprint(e) == run.fingerprint(base[0]) for e in base + slow),
          "host canary: vt metrics and program counts bit-identical")
    ops = base[0]["ops"]
    calls = base[0]["host"]["timed_calls"]
    base_rate = run.host_rate(base)
    predicted = ops / (ops / base_rate + calls * CANARY_HOST_NS * 1e-9)
    measured = run.host_rate(slow)
    drop_pred = 1 - predicted / base_rate
    drop_meas = 1 - measured / base_rate
    print(f"      host canary: {calls} calls x {CANARY_HOST_NS} ns; host_ops_per_s "
          f"{base_rate:.0f} -> {measured:.0f} (predicted {predicted:.0f})")
    check(0.65 * drop_pred <= drop_meas <= 1.35 * drop_pred,
          f"host canary: measured drop {drop_meas:.1%} within 35% of predicted {drop_pred:.1%}")


def vt_canary(seed, bulk_base):
    delta = ["--enqueue-delta-ns", str(ENQUEUE_DELTA_NS)]
    base = traced("mt_window", seed)
    raised = traced("mt_window", seed, delta)
    moved = base["layers"]["core.post_vt_ns"] + ENQUEUE_DELTA_NS
    check(raised["layers"]["core.post_vt_ns"] == moved,
          f"vt canary: mt_window core.post_vt_ns {base['layers']['core.post_vt_ns']:g} -> "
          f"{raised['layers']['core.post_vt_ns']:g} ns (+{ENQUEUE_DELTA_NS})")
    check(all(raised["vt"][k] != base["vt"][k] for k in ("p50_us", "tail_us", "ops_per_s")),
          f"vt canary: mt_window vt metrics move (ops_per_s {base['vt']['ops_per_s']:.6g} -> "
          f"{raised['vt']['ops_per_s']:.6g})")
    bulk = run.run_episode("bulk_allreduce", seed, delta)
    check(bulk["vt"] == bulk_base["vt"] and bulk["counts"] == bulk_base["counts"],
          "vt canary: bulk_allreduce vt metrics and counts bit-identical")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    try:
        run.build()
        base = {w: per_workload(w, args.seed, args.seed + 1) for w in run.WORKLOADS}
        refuses_env(args.seed)
        host_canary(args.seed)
        vt_canary(args.seed, base["bulk_allreduce"])
    except run.BenchError as e:
        check(False, str(e))
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
