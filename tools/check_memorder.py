#!/usr/bin/env python3
"""Cross-check documented memory-order inventories against actual uses.

Every file under src/core/ that uses a std::memory_order_* token in code
documents that usage in a prose inventory plus one machine-readable line:

    // memorder-audit: relaxed=5 acquire=3 release=3 acq_rel=0 seq_cst=0

This script finds those files itself (so new lock-free code cannot slip
past it), counts the std::memory_order_* tokens actually present in each
(comments stripped, so the inventory prose itself is not counted) and fails
when a file has no audit line or any count disagrees with it. Run from
anywhere:

    python3 tools/check_memorder.py

Exit status 0 = all inventories accurate, 1 = mismatch or missing audit
line. Wired into CI (the `san` job) so the inventory comments cannot rot.
"""

import re
import sys
from pathlib import Path

SCAN_DIR = "src/core"
SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

ORDERS = ["relaxed", "acquire", "release", "acq_rel", "seq_cst"]

AUDIT_RE = re.compile(
    r"//\s*memorder-audit:\s*"
    r"relaxed=(\d+)\s+acquire=(\d+)\s+release=(\d+)\s+acq_rel=(\d+)\s+seq_cst=(\d+)"
)


def strip_comments(text: str) -> str:
    """Remove // and /* */ comments (string literals in these headers never
    contain comment markers, so a lexer-grade pass is not needed)."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", "", text)
    return text


def count_orders(code: str) -> dict:
    counts = dict.fromkeys(ORDERS, 0)
    # Longest-match first so memory_order_acq_rel is not read as _acquire etc.
    for m in re.finditer(r"std::memory_order_(acq_rel|seq_cst|acquire|release|relaxed)", code):
        counts[m.group(1)] += 1
    return counts


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    failed = False
    checked = 0
    for path in sorted((root / SCAN_DIR).rglob("*")):
        if path.suffix not in SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        actual = count_orders(strip_comments(text))
        if not any(actual.values()):
            continue  # no atomics with explicit orders: nothing to audit
        checked += 1
        m = AUDIT_RE.search(text)
        if m is None:
            print(f"check_memorder: {rel}: no 'memorder-audit:' line found")
            failed = True
            continue
        documented = dict(zip(ORDERS, (int(g) for g in m.groups())))
        if documented != actual:
            diffs = ", ".join(
                f"{k}: documented {documented[k]} != actual {actual[k]}"
                for k in ORDERS
                if documented[k] != actual[k]
            )
            print(f"check_memorder: {rel}: inventory stale ({diffs})")
            failed = True
        else:
            summary = " ".join(f"{k}={actual[k]}" for k in ORDERS)
            print(f"check_memorder: {rel}: OK ({summary})")
    if checked == 0:
        print(f"check_memorder: no std::memory_order_* use under {SCAN_DIR}/")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
