#!/usr/bin/env python3
"""Exact virtual-time baseline for the bench smoke deck.

Runs each bench of the smoke deck with MPIOFF_BENCH_SMOKE=1 and
MPIOFF_STATS=1 and compares its stdout byte for byte against the committed
copy in bench/smoke_baseline/<bench>.txt. Everything the benches print is
virtual time, event counts and payload digests of a deterministic
simulator, so any difference is a behaviour change, never noise. The
benches run concurrently, one per CPU, and are reported in list order.

    python3 tools/smoke_baseline.py check  [--build-dir build]
    python3 tools/smoke_baseline.py update [--build-dir build]

`check` exits 1 and prints a unified diff for every bench whose output
differs (or whose binary is missing); `update` rewrites the baseline files
from the current build. A change that moves a number on purpose updates
the baseline in the same commit and says why in CHANGES.md.

Each bench's line also shows the host CPU seconds it took (user + sys of
the bench process). That number is host time, so it varies between runs
and machines and gates nothing; it makes the deck's host cost visible.
"""

import argparse
import difflib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCHES = [
    "bench_fig02_overlap_p2p",
    "bench_fig03_overlap_collectives",
    "bench_fig04_isend_overhead",
    "bench_fig05_icollective_latency",
    "bench_fig06_multithreaded_latency",
    "bench_fig07_osu_xeon",
    "bench_fig08_osu_phi",
    "bench_fig09_qcd_scaling",
    "bench_fig10_dslash_splitup",
    "bench_fig11_qcd_solver",
    "bench_fig12_qcd_thread_multiple",
    "bench_fig13_fft_scaling",
    "bench_fig14_cnn",
    "bench_fig15_serve",
    "bench_table1_qcd_dslash_phases",
    "bench_table2_fft_phases",
    "bench_ablation_offload",
]


def run_bench(binary: Path) -> tuple[int, str, float]:
    """Run one bench; return its exit status, stdout and CPU seconds."""
    env = dict(os.environ, MPIOFF_BENCH_SMOKE="1", MPIOFF_STATS="1")
    env.pop("MPIOFF_TRACE", None)
    proc = subprocess.Popen([str(binary)], env=env, stdout=subprocess.PIPE)
    with proc.stdout:
        out = proc.stdout.read()
    # Reap the child here, not through Popen, to get its resource usage.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out.decode("utf-8"),
            usage.ru_utime + usage.ru_stime)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["check", "update"])
    ap.add_argument("--build-dir", default="build",
                    help="CMake build tree holding bench/<bench> "
                         "(default: build)")
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    build = Path(args.build_dir)
    if not build.is_absolute():
        build = Path.cwd() / build
    base_dir = root / "bench" / "smoke_baseline"
    base_dir.mkdir(parents=True, exist_ok=True)
    failed = False
    binaries = [build / "bench" / name for name in BENCHES]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        runs = [pool.submit(run_bench, b) if b.is_file() else None
                for b in binaries]
        results = [r.result() if r is not None else None for r in runs]
    for name, binary, result in zip(BENCHES, binaries, results):
        if result is None:
            print(f"smoke_baseline: {name}: no binary at {binary}")
            failed = True
            continue
        rc, out, cpu_s = result
        cpu = f"[{cpu_s:.1f} CPU s]"
        if rc != 0:
            print(f"smoke_baseline: {name}: exited with status {rc} {cpu}")
            failed = True
            continue
        path = base_dir / f"{name}.txt"
        if args.mode == "update":
            path.write_text(out, encoding="utf-8")
            print(f"smoke_baseline: {name}: written {cpu}")
            continue
        want = path.read_text(encoding="utf-8") if path.is_file() else ""
        if out == want:
            print(f"smoke_baseline: {name}: OK {cpu}")
            continue
        failed = True
        print(f"smoke_baseline: {name}: DIFFERS from "
              f"{path.relative_to(root)} {cpu}")
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(keepends=True), out.splitlines(keepends=True),
            fromfile="baseline", tofile="current"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
