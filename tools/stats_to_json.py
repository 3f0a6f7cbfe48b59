#!/usr/bin/env python3
"""Convert `[stats]` trailer lines from a bench run into a JSON array.

Reads stdin, finds every line of the form

    [stats] <label tokens...>: key=value key=value ...

and emits a JSON array of objects, one per line, preserving input order:

    [{"label": "offload rank0 lane3", "submits": 64, ...}, ...]

Values are coerced to int, then float, then kept as strings. Tokens before
the first key=value pair form the label (a trailing ':' is stripped).

Known trailer families (all share the generic key=value grammar):
  "offload rank0 frontend"  engines/lanes/lane_submits/shared_submits/
                            overflow_submits/... — overflow_submits counts
                            lane-table-overflow fallbacks to the shared ring
                            separately so per-lane throughput stays honest;
  "offload rank0 steal"     steal_rounds/steal_commands (multi-proxy work
                            stealing, only printed when stealing happened);
  "a10 proxies"             the proxy-count scaling ablation rows
                            (n/skew_rate/uniform_rate/skew_speedup/stolen).

With --cont-summary the output is instead an object

    {"entries": [...], "cont_summary": {"totals": {...},
                                        "app_mpi_drop_by_approach": {...}}}

where `totals` sums the continuation counters (armed/executed/deferred/
inline/posts) across every `... cont` trailer and `app_mpi_drop_by_approach`
collects the A9 ablation's per-approach app-thread MPI-time drop.

Usage:  MPIOFF_STATS=1 ./bench_foo | python3 tools/stats_to_json.py > stats.json
        MPIOFF_STATS=1 ./bench_foo | python3 tools/stats_to_json.py --cont-summary
"""
import json
import sys

CONT_COUNTERS = ("armed", "executed", "deferred", "inline", "posts")


def coerce(v: str):
    for cast in (int, float):
        try:
            return cast(v)
        except ValueError:
            pass
    return v


def parse_line(line: str):
    tokens = line.split()[1:]  # drop the "[stats]" marker
    label_parts, entry = [], {}
    for tok in tokens:
        if "=" in tok:
            k, _, v = tok.partition("=")
            entry[k] = coerce(v)
        else:
            label_parts.append(tok.rstrip(":"))
    entry["label"] = " ".join(label_parts)
    return entry


def cont_summary(entries):
    totals = {k: 0 for k in CONT_COUNTERS}
    drops = {}
    for e in entries:
        label = e.get("label", "")
        if label.endswith(" cont"):
            for k in CONT_COUNTERS:
                if isinstance(e.get(k), (int, float)):
                    totals[k] += e[k]
        # The A9 ablation rows: "[stats] a9 qcd: approach=... app_mpi_drop=..."
        if label.startswith("a9") and "approach" in e:
            drops[e["approach"]] = e.get("app_mpi_drop")
    return {"totals": totals, "app_mpi_drop_by_approach": drops}


def main(argv) -> int:
    entries = [
        parse_line(line)
        for line in sys.stdin
        if line.lstrip().startswith("[stats]")
    ]
    if "--cont-summary" in argv:
        out = {"entries": entries, "cont_summary": cont_summary(entries)}
    else:
        out = entries
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
