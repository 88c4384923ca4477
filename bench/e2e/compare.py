#!/usr/bin/env python3
"""Compare two directories of dmx_e2e results.

Usage: compare.py A_DIR B_DIR [--force] [--bench BENCHMARK.json]

Each directory holds the <workload>.<seed>.json files of N untraced runs
(bench/e2e/run.sh --out DIR); traced results are ignored. For every
workload and end-to-end metric the script prints one markdown table row
with each side's median and quartiles over its runs and a verdict:

  ok          B is not worse than A by more than the metric's bound
  regressed   B is worse than A by more than the bound
  unresolved  a side's interquartile range, as a share of its median, is
              wider than the bound, and not every B run beats every A run

The metrics and their bounds, a share of A's median, are BENCHMARK.json's
end_to_end list, plus error_rate, whose bound is absolute: B's median may
exceed A's by at most 0.001. The other numbers in a result file (tails and
per-class latencies) are for reading, not gating. The exit status is 1 when
any row regressed, 2 when the two sides' machine fingerprints differ
(unless --force), and 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

# Fingerprint fields that must match exactly; fsync latency must agree
# within FSYNC_RATIO.
SAME_MACHINE = ("nproc", "cpu", "compiler", "build_type")
FSYNC_RATIO = 2.0
# Gated beside BENCHMARK.json's metrics. error_rate is 0 on a healthy run,
# so its bound is a difference, not a share of the median.
ERROR_RATE = {"name": "error_rate", "unit": "fraction", "better": "lower",
              "bound": 0.001, "absolute": True}


def load_runs(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("trace"):
            continue
        runs.setdefault(doc["workload"], []).append(doc)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fingerprint_mismatch(a_runs, b_runs):
    prints = {side: [r["fingerprint"] for rs in runs.values() for r in rs]
              for side, runs in (("A", a_runs), ("B", b_runs))}
    problems = []
    for field in SAME_MACHINE:
        seen = {str(fp.get(field)) for fps in prints.values() for fp in fps}
        if len(seen) > 1:
            problems.append(f"{field} differs: {sorted(seen)}")
    fsync = {side: statistics.median(fp["fsync_us"] for fp in fps)
             for side, fps in prints.items() if fps}
    if len(fsync) == 2 and min(fsync.values()) > 0:
        ratio = max(fsync.values()) / min(fsync.values())
        if ratio > FSYNC_RATIO:
            problems.append(f"fsync latency differs {ratio:.1f}x: "
                            f"A {fsync['A']:.0f} us, B {fsync['B']:.0f} us")
    return problems


def verdict(a, b, better, bound, absolute=False):
    """Returns (change, verdict); change is B's worsening over A, as a share
    of A's median, or as a difference when the bound is absolute."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1 if better == "lower" else -1
    if absolute:
        change = sign * (qb[1] - qa[1])
        wide = any(q[2] - q[0] > bound for q in (qa, qb))
    else:
        change = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        wide = any(q[1] and (q[2] - q[0]) / q[1] > bound for q in (qa, qb))
    b_always_better = (max(b) < min(a) if better == "lower"
                       else min(b) > max(a))
    if wide and not b_always_better:
        return change, "unresolved"
    return change, "regressed" if change > bound else "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_dir")
    ap.add_argument("b_dir")
    ap.add_argument("--force", action="store_true",
                    help="compare even when the machine fingerprints differ")
    ap.add_argument("--bench", default=str(
        Path(__file__).resolve().parents[2] / "BENCHMARK.json"))
    args = ap.parse_args()

    bench = json.loads(Path(args.bench).read_text())
    a_runs, b_runs = load_runs(args.a_dir), load_runs(args.b_dir)
    if not a_runs or not b_runs:
        print("compare.py: no untraced results in "
              f"{args.a_dir if not a_runs else args.b_dir}", file=sys.stderr)
        return 2

    problems = fingerprint_mismatch(a_runs, b_runs)
    if problems:
        print("compare.py: machine fingerprints differ:", file=sys.stderr)
        for p in problems:
            print("  " + p, file=sys.stderr)
        if not args.force:
            print("compare.py: refusing to compare (use --force)",
                  file=sys.stderr)
            return 2

    print("| workload | metric | unit | A median [q1, q3] (n) | "
          "B median [q1, q3] (n) | change | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    regressed = False
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric in bench["end_to_end"] + [ERROR_RATE]:
            name, bound = metric["name"], metric["bound"]
            absolute = metric.get("absolute", False)
            a = [r["metrics"][name]["value"] for r in a_runs[workload]
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs[workload]
                 if name in r["metrics"]]
            if not a or not b:
                continue
            change, v = verdict(a, b, metric["better"], bound, absolute)
            regressed |= v == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            fmt = "{:.4g} [{:.4g}, {:.4g}] ({})"
            if absolute:
                shown = f"{change:+.4f} worse | +{bound:g}"
            else:
                shown = f"{100 * change:+.1f}% worse | {100 * bound:g}%"
            print(f"| {workload} | {name} | {metric['unit']} | "
                  f"{fmt.format(qa[1], qa[0], qa[2], len(a))} | "
                  f"{fmt.format(qb[1], qb[0], qb[2], len(b))} | "
                  f"{shown} | {v} |")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
