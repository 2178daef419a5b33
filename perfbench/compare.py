#!/usr/bin/env python3
"""Sets benchmark records from two builds side by side.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is a record that perfbench/run.py wrote to .bench_run/records/.
Records are grouped by workload and trace mode. A group is compared only
when every record in it, on both sides, comes from a like-for-like host
and set-up (the LIKE_FOR_LIKE manifest fields); otherwise the comparison
is refused and the differing fields are named. Records of one seed must
also agree on the trace's SHA-256 and, within one side, on every exact
counter. Prints each metric's median and quartiles per side and the ratio
new/base, and every counter that differs between the sides.

Exit status: 0 compared, 1 a side's exact counters disagree, 2 refused.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict

LIKE_FOR_LIKE = [
    ("host", "cpu_model"), ("host", "nproc"), ("host", "compiler"),
    ("host", "compiler_version"), ("host", "build_type"),
    ("checkpoint_fs",),
    ("workload", "profile"), ("workload", "scale"), ("workload", "threads"),
    ("workload", "seconds"), ("workload", "cells"),
]


def field(manifest, path):
    value = manifest
    for key in path:
        value = value.get(key) if isinstance(value, dict) else None
    return value


def counters(record):
    """The exact-repeat counters of a record, whichever mode wrote it."""
    if "counters" in record:
        return record["counters"]
    return {"cli": record.get("cli_counters"),
            "layer_trace": record.get("layer_trace_counters")}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare_group(name, base, new):
    """Returns 0, 1 or 2 as the module docstring describes."""
    everything = base + new
    refused = []
    for path in LIKE_FOR_LIKE:
        seen = {json.dumps(field(r["manifest"], path)) for r in everything}
        if len(seen) > 1:
            refused.append(f"{'.'.join(path)}: {' vs '.join(sorted(seen))}")
    by_seed = defaultdict(set)
    for r in everything:
        w = r["manifest"]["workload"]
        by_seed[w["seed"]].add(w["trace_sha256"])
    for seed, shas in sorted(by_seed.items()):
        if len(shas) > 1:
            refused.append(f"seed {seed}: {len(shas)} different traces")
    if refused:
        print(f"{name}: refusing to compare, manifests differ:")
        for line in refused:
            print(f"  {line}")
        return 2

    status = 0
    side_counters = {}
    for label, records in (("base", base), ("new", new)):
        per_seed = {}
        for r in records:
            seed = r["manifest"]["workload"]["seed"]
            c = counters(r)
            if per_seed.setdefault(seed, c) != c:
                print(f"{name}: {label} counters differ between runs of "
                      f"seed {seed}")
                status = 1
        side_counters[label] = per_seed

    print(f"{name}: {len(base)} base vs {len(new)} new records")
    print(f"  {'metric':40s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'new/base':>9s}")
    metrics = sorted({m for r in everything for m in r.get("metrics", {})})
    for m in metrics:
        cols = []
        for records in (base, new):
            vals = [r["metrics"][m]["value"] for r in records
                    if m in r.get("metrics", {})]
            if not vals:
                cols.append(None)
                continue
            lo, hi = quartiles(vals)
            cols.append((statistics.median(vals), lo, hi))
        text = [f"{c[0]:.6g} [{c[1]:.4g}, {c[2]:.4g}]" if c else "-"
                for c in cols]
        ratio = (f"{cols[1][0] / cols[0][0]:.4f}"
                 if cols[0] and cols[1] and cols[0][0] else "-")
        print(f"  {m:40s} {text[0]:>34s} {text[1]:>34s} {ratio:>9s}")
    for seed in sorted(set(side_counters["base"]) & set(side_counters["new"])):
        a, b = side_counters["base"][seed], side_counters["new"][seed]
        if a != b:
            print(f"  counters of seed {seed} changed: {a} -> {b}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()

    groups = defaultdict(lambda: ([], []))
    for side, paths in ((0, args.base), (1, args.new)):
        for path in paths:
            with open(path) as f:
                record = json.load(f)
            w = record["manifest"]["workload"]
            groups[f"{w['name']} trace={w['trace']}"][side].append(record)
    status = 0
    for name, (base, new) in sorted(groups.items()):
        if not base or not new:
            print(f"{name}: only one side has records, skipped")
            continue
        status = max(status, compare_group(name, base, new))
    return status


if __name__ == "__main__":
    sys.exit(main())
