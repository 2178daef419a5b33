#!/usr/bin/env python3
"""Golden-trace CLI test, run under CTest as `cli_golden`.

tests/data/golden_dfn_expected.tsv pins the exact replay counters of every
golden policy cell on tests/data/golden_dfn.wct at a 4% cache. The library
suite (GoldenTrace.*) replays those cells in process; this test pins the
same counters through the `webcache` binary, which loads, densifies and
sizes the trace on its own. It asserts:

  * `simulate --cache-fraction=0.04 --result-out=...` reproduces every row:
    overall and per-class requests/hits/bytes, evictions, bypasses and
    modification misses;
  * the cells of one `sweep --fractions=0.04 --one-pass=off` over all rows'
    policies equal the same rows.

Usage: cli_golden_test.py <path-to-webcache-binary>
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "data")
TRACE = os.path.join(DATA, "golden_dfn.wct")
EXPECTED = os.path.join(DATA, "golden_dfn_expected.tsv")
COUNTERS = ("requests", "hits", "requested_bytes", "hit_bytes")

FAILURES = []


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def run(cli, *args, timeout=240):
    return subprocess.run(
        [cli, *args], capture_output=True, text=True, timeout=timeout
    )


def read_rows():
    """[(policy, cost, fields)] with fields named like the CLI's JSON."""
    rows = []
    with open(EXPECTED) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            cols = line.split()
            policy, cost = cols[0], cols[1]
            values = [int(v) for v in cols[2:]]
            fields = dict(zip(COUNTERS, values[0:4]))
            fields["evictions"], fields["bypasses"], \
                fields["modification_misses"] = values[4:7]
            per_class = values[7:]
            fields["per_class"] = [dict(zip(COUNTERS, per_class[i:i + 4]))
                                   for i in range(0, len(per_class), 4)]
            rows.append((policy, cost, fields))
    return rows


def fields_of(result, per_class):
    """The golden fields of one CLI result record."""
    fields = {key: result["overall"][key] for key in COUNTERS}
    for key in ("evictions", "bypasses", "modification_misses"):
        fields[key] = result[key]
    fields["per_class"] = [{key: c[key] for key in COUNTERS}
                           for c in per_class]
    return fields


def diff(expected, actual):
    """Names of the golden fields that differ."""
    names = [k for k in expected if k != "per_class" and
             expected[k] != actual.get(k)]
    if len(expected["per_class"]) != len(actual["per_class"]):
        names.append("per_class count")
    else:
        for i, (e, a) in enumerate(zip(expected["per_class"],
                                       actual["per_class"])):
            names += [f"class {i} {k}" for k in COUNTERS if e[k] != a[k]]
    return names


def main():
    if len(sys.argv) != 2:
        print("usage: cli_golden_test.py <webcache-binary>", file=sys.stderr)
        return 2
    cli = sys.argv[1]
    rows = read_rows()
    check("golden rows present", len(rows) == 14, f"got {len(rows)}")

    with tempfile.TemporaryDirectory(prefix="webcache_cli_golden.") as tmp:
        for policy, cost, expected in rows:
            name = f"simulate {policy} / {cost}"
            out = os.path.join(tmp, "result.json")
            p = run(cli, "simulate", TRACE, f"--policy={policy}",
                    "--cache-fraction=0.04", f"--result-out={out}")
            if p.returncode != 0:
                check(name, False, p.stderr.strip()[:200])
                continue
            with open(out) as f:
                result = json.load(f)
            check(f"{name}: policy name", result["policy"] == policy,
                  f"got {result['policy']}")
            bad = diff(expected, fields_of(result, result["per_class"]))
            check(name, not bad, ", ".join(bad))

        curve = os.path.join(tmp, "curve.json")
        policies = ",".join(policy for policy, _, _ in rows)
        p = run(cli, "sweep", TRACE, f"--policies={policies}",
                "--fractions=0.04", "--one-pass=off", "--threads=2",
                f"--curve-out={curve}")
        check("sweep runs", p.returncode == 0, p.stderr.strip()[:200])
        if p.returncode == 0:
            with open(curve) as f:
                points = json.load(f)["points"]
            check("sweep has one point", len(points) == 1,
                  f"got {len(points)}")
            cells = points[0]["policies"] if points else []
            check("sweep has one cell per row", len(cells) == len(rows),
                  f"got {len(cells)}")
            for (policy, cost, expected), cell in zip(rows, cells):
                name = f"sweep {policy} / {cost}"
                check(f"{name}: policy name", cell["policy"] == policy,
                      f"got {cell['policy']}")
                bad = diff(expected,
                           fields_of(cell, list(cell["per_class"].values())))
                check(name, not bad, ", ".join(bad))

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed: {FAILURES}",
              file=sys.stderr)
        return 1
    print("\nall golden CLI checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
