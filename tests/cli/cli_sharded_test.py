#!/usr/bin/env python3
"""Approximate sharded replay CLI test, run under CTest as `cli_sharded`.

`simulate --sharded=approx` replays one cache per shard on a proportional
byte quota. Its results are not the serial replay's, so this test pins them
instead:

  * on tests/data/golden_dfn.wct at a 4% cache, `--threads=2
    --sharded=approx --rebalance=100` reproduces the --result-out JSON in
    tests/data/golden_dfn_approx_expected.jsonl (one line per policy: GD*(1)
    for the heap family, LRU for the LRU family), and `--threads=1` and
    `--threads=4` reproduce the same bytes (thread-count invariance);
  * on a synthetic mix, `--sharded=approx --shards=1` is the serial replay;
  * the removed exact spellings — `--sharded=exact`, and `--threads`,
    `--shards` or `--rebalance` without `--sharded=approx` — exit 1 with
    the flag named in stderr;
  * `--sharded=approx` with `--metrics-out` exits 1 with a diagnostic.

Usage: cli_sharded_test.py <path-to-webcache-binary>
"""

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "data")
GOLDEN = os.path.join(DATA, "golden_dfn.wct")
EXPECTED = os.path.join(DATA, "golden_dfn_approx_expected.jsonl")
POLICIES = ("GD*(1)", "LRU")  # line order of EXPECTED

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


def check_golden(cli, tmp):
    with open(EXPECTED) as f:
        expected = f.read().splitlines()
    check("fixture has one line per policy", len(expected) == len(POLICIES))
    for policy, want in zip(POLICIES, expected):
        for threads in (2, 1, 4):
            out = os.path.join(tmp, "result.json")
            p = run(cli, "simulate", GOLDEN, f"--policy={policy}",
                    "--cache-fraction=0.04", f"--threads={threads}",
                    "--sharded=approx", "--rebalance=100",
                    f"--result-out={out}")
            name = f"{policy} --sharded=approx --threads={threads}"
            check(f"{name} runs", p.returncode == 0, p.stderr.strip()[:200])
            if p.returncode != 0:
                continue
            with open(out) as f:
                got = f.read().rstrip("\n")
            check(f"{name} matches the golden result", got == want,
                  f"got {got[:160]}")


def check_single_shard(cli, wct):
    serial = run(cli, "simulate", wct, "--policy=GDSF(1)",
                 "--cache-fraction=0.04", "--warmup=0.1")
    one = run(cli, "simulate", wct, "--policy=GDSF(1)",
              "--cache-fraction=0.04", "--warmup=0.1", "--sharded=approx",
              "--threads=4", "--shards=1")
    check("serial GDSF runs", serial.returncode == 0,
          serial.stderr.strip()[:200])
    check("--shards=1 output identical to serial",
          one.returncode == 0 and one.stdout == serial.stdout,
          f"rc={one.returncode} stderr={one.stderr.strip()[:200]}")


def check_rejected(cli, wct, tmp):
    for extra, flag in (
        (("--sharded=exact",), "--sharded"),
        (("--threads=4", "--sharded=exact"), "--sharded"),
        (("--sharded=fast",), "--sharded"),
        (("--threads=4",), "--threads"),
        (("--threads=1",), "--threads"),
        (("--shards=8",), "--shards"),
        (("--rebalance=100",), "--rebalance"),
    ):
        p = run(cli, "simulate", wct, "--policy=LRU",
                "--cache-fraction=0.04", *extra)
        check(f"{' '.join(extra)} exits 1 naming {flag}",
              p.returncode == 1 and flag in p.stderr,
              f"rc={p.returncode} stderr={p.stderr.strip()[:200]}")

    metrics = os.path.join(tmp, "metrics.json")
    p = run(cli, "simulate", wct, "--policy=LRU", "--cache-fraction=0.04",
            "--sharded=approx", f"--metrics-out={metrics}")
    check("--sharded=approx --metrics-out exits 1 with a diagnostic",
          p.returncode == 1 and "--metrics-out" in p.stderr,
          f"rc={p.returncode} stderr={p.stderr.strip()[:200]}")


def main():
    if len(sys.argv) != 2:
        print("usage: cli_sharded_test.py <webcache-binary>", file=sys.stderr)
        return 2
    cli = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="webcache_cli_sharded.") as tmp:
        check_golden(cli, tmp)

        wct = os.path.join(tmp, "mix.wct")
        p = run(cli, "generate", "--profile=DFN", "--scale=0.002", "--seed=7",
                f"--out={wct}")
        check("generate mix", p.returncode == 0, p.stderr.strip()[:200])
        if p.returncode == 0:
            check_single_shard(cli, wct)
            check_rejected(cli, wct, tmp)

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed: {FAILURES}",
              file=sys.stderr)
        return 1
    print("\nall sharded CLI checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
