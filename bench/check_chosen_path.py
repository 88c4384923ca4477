#!/usr/bin/env python3
"""E5 shape check: the planner's chosen access path is the fastest measured.

Usage: check_chosen_path.py <BENCH_access_select.json> [--factor 1.5]

bench_access_select times, for each predicate class k, the path the planner
chose (BM_PlannerChosenPath/k) and every usable path forced in turn: the
full scan (BM_ForcedFullScan/k) and the attachment path
(BM_ForcedAccessPath/k, absent for classes no attachment serves). Exits
non-zero when any class's chosen row is more than `factor` times slower
than its fastest forced row, or when a class has no forced row at all.

Rows that share a name (a run with --benchmark_repetitions=N writes one
row per repetition) count as their median, so that one slow repetition
cannot fail the check on timing noise alone.
"""

import argparse
import json
import re
import statistics
import sys

CHOSEN = "BM_PlannerChosenPath"
FORCED = ("BM_ForcedFullScan", "BM_ForcedAccessPath")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results")
    parser.add_argument("--factor", type=float, default=1.5)
    args = parser.parse_args()

    with open(args.results) as f:
        doc = json.load(f)
    rows = {}
    for bench in doc["benchmarks"]:
        m = re.fullmatch(r"(\w+)/(\d+)", bench["name"])
        if m is not None:
            key = (m.group(1), int(m.group(2)))
            rows.setdefault(key, []).append(bench["ns_per_op"])
    chosen, forced = {}, {}
    for (name, kind), times in rows.items():
        ns = statistics.median(times)
        if name == CHOSEN:
            chosen[kind] = ns
        elif name in FORCED:
            forced.setdefault(kind, []).append((ns, name))

    if not chosen:
        print(f"no {CHOSEN} rows in {args.results}")
        return 1
    failed = False
    for kind in sorted(chosen):
        if kind not in forced:
            print(f"class {kind}: no forced path was measured")
            failed = True
            continue
        fastest, fastest_name = min(forced[kind])
        ratio = chosen[kind] / fastest
        verdict = "ok" if ratio <= args.factor else "SLOWER"
        failed |= ratio > args.factor
        print(f"class {kind}: chosen {chosen[kind] / 1e3:.1f} us, fastest "
              f"forced {fastest_name}/{kind} {fastest / 1e3:.1f} us, "
              f"ratio {ratio:.2f} {verdict}")
    if failed:
        print(f"FAIL: a chosen path is more than {args.factor}x slower than "
              "the fastest path measured for its class")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
