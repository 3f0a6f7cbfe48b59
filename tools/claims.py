#!/usr/bin/env python3
"""Paper claims checked over the pinned smoke outputs.

The byte check (tools/smoke_baseline.py) catches drift, not a wrong pin:
a pin written from a build that already broke a paper claim passes it.
This check reads the pinned bench outputs and evaluates one named
predicate per table row, each an ordering or a ratio band taken from a
claim EXPERIMENTS.md marks as reproduced:

  * Table 1: offload total < baseline total, at every node count;
  * Fig. 9(a): offload >= baseline from 128 nodes, on both lattices;
  * Fig. 9(a): comm-self < baseline at 256 nodes on 32^3x256;
  * Fig. 4: offload issue time within 10% of 0.135 us, at every size;
  * Fig. 6(c): baseline / offload >= 6 at 8 B with 8 thread pairs.

    python3 tools/claims.py [PIN_DIR]      (default: bench/smoke_baseline)

KNOWN_FAILURES names the predicates the pins are known to break. The check
exits 1 when a predicate outside that list fails, when a listed one passes
(the fix must also empty the list), or when a row it needs is missing.
"""

import argparse
import functools
import sys
from pathlib import Path

# Both come from the two-engine offload default on xeon_fdr (ROADMAP item 1).
KNOWN_FAILURES = {
    "table1.offload_total_lt_baseline.64_nodes",
    "fig9a.48x48x48x512.offload_ge_baseline.256_nodes",
}

FIG9A_LATTICES = ("32x32x32x256", "48x48x48x512")
FIG4_SIZES = ("8", "64", "512", "4K", "16K", "64K", "128K", "256K", "512K",
              "1M", "4M")
FIG4_ISSUE_US = 0.135


def parse_tables(text: str) -> dict[str, list[dict[str, str]]]:
    """Map each box-drawn table to its rows, keyed by its title: the last
    non-blank line before the table that is neither a `[stats]` trailer
    nor part of another table."""
    tables: dict[str, list[dict[str, str]]] = {}
    title = ""
    header: list[str] | None = None
    rows: list[dict[str, str]] = []
    rules = 0
    for line in text.splitlines():
        if line.startswith("+"):
            rules += 1
            if rules == 3:  # closing rule
                tables[title] = rows
                header, rows, rules = None, [], 0
            continue
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            if header is None:
                header = cells
            else:
                rows.append(dict(zip(header, cells)))
            continue
        if line.strip() and not line.startswith("[stats]"):
            title = line.strip()
    return tables


@functools.cache
def tables(path: Path) -> dict[str, list[dict[str, str]]]:
    return parse_tables(path.read_text(encoding="utf-8"))


def row(pin_dir: Path, bench: str, title_part: str,
        **key: str) -> dict[str, str]:
    """The one row matching `key` in the one table of `bench` whose title
    contains `title_part`; LookupError otherwise."""
    found = {t: rows for t, rows in tables(pin_dir / f"{bench}.txt").items()
             if title_part in t}
    if len(found) != 1:
        raise LookupError(f"{bench}: {len(found)} tables titled "
                          f"'...{title_part}...'")
    hits = [r for r in next(iter(found.values()))
            if all(r.get(k) == v for k, v in key.items())]
    if len(hits) != 1:
        raise LookupError(f"{bench}: {len(hits)} rows with {key} in "
                          f"'...{title_part}...'")
    return hits[0]


def predicates(pin_dir: Path):
    """Yield (name, thunk); each thunk returns (holds, detail)."""
    t1 = (pin_dir, "bench_table1_qcd_dslash_phases", "Table 1:")
    for nodes in ("8", "16", "32", "64", "128", "256"):
        def table1(nodes=nodes):
            off = float(row(*t1, nodes=nodes, approach="offload")["total"])
            base = float(row(*t1, nodes=nodes, approach="baseline")["total"])
            return off < base, f"offload {off:g} us vs baseline {base:g} us"
        yield f"table1.offload_total_lt_baseline.{nodes}_nodes", table1

    for lattice in FIG9A_LATTICES:
        f9 = ("bench_fig09_qcd_scaling",
              f"Figure 9(a): Endeavor Xeon, lattice {lattice}")
        for nodes in ("128", "256"):
            def fig9a(f9=f9, nodes=nodes):
                r = row(pin_dir, *f9, nodes=nodes)
                off, base = float(r["offload"]), float(r["baseline"])
                return (off >= base,
                        f"offload {off:g} vs baseline {base:g} TFLOPS")
            yield f"fig9a.{lattice}.offload_ge_baseline.{nodes}_nodes", fig9a

    def fig9a_comm_self():
        r = row(pin_dir, "bench_fig09_qcd_scaling",
                "Figure 9(a): Endeavor Xeon, lattice 32x32x32x256", nodes="256")
        cs, base = float(r["comm-self"]), float(r["baseline"])
        return cs < base, f"comm-self {cs:g} vs baseline {base:g} TFLOPS"
    yield ("fig9a.32x32x32x256.comm_self_lt_baseline.256_nodes",
           fig9a_comm_self)

    for size in FIG4_SIZES:
        def fig4(size=size):
            r = row(pin_dir, "bench_fig04_isend_overhead", "Figure 4:",
                    size=size)
            us = float(r["offload(us)"])
            return (abs(us - FIG4_ISSUE_US) <= 0.1 * FIG4_ISSUE_US,
                    f"offload issue {us:g} us")
        yield f"fig4.offload_issue_near_135ns.{size}", fig4

    def fig6():
        r = row(pin_dir, "bench_fig06_multithreaded_latency",
                "Figure 6(c): OSU multithreaded latency, 8 thread pairs",
                size="8")
        base, off = float(r["baseline(us)"]), float(r["offload(us)"])
        return base / off >= 6, (f"baseline {base:g} us / offload {off:g} us "
                                 f"= {base / off:.2f}x")
    yield "fig6c.baseline_over_offload_ge_6x.8_threads.8B", fig6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = Path(__file__).resolve().parent.parent
    ap.add_argument("pin_dir", nargs="?", type=Path,
                    default=root / "bench" / "smoke_baseline",
                    help="directory of pinned <bench>.txt outputs "
                         "(default: bench/smoke_baseline)")
    args = ap.parse_args()
    failed = False
    names = set()
    for name, thunk in predicates(args.pin_dir):
        names.add(name)
        known = name in KNOWN_FAILURES
        try:
            holds, detail = thunk()
        except (OSError, LookupError, ValueError) as e:
            print(f"claims: ERROR {name}: {e}")
            failed = True
            continue
        if holds and known:
            print(f"claims: FIXED {name}: {detail} "
                  "(remove it from KNOWN_FAILURES)")
            failed = True
        elif holds:
            print(f"claims: ok    {name}: {detail}")
        elif known:
            print(f"claims: known {name}: {detail}")
        else:
            print(f"claims: FAIL  {name}: {detail}")
            failed = True
    for name in sorted(KNOWN_FAILURES - names):
        print(f"claims: ERROR KNOWN_FAILURES names no predicate: {name}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
