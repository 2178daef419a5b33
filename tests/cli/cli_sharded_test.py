#!/usr/bin/env python3
"""Sharded replay CLI smoke test, run under CTest as `cli_sharded`.

`simulate --threads=N` routes through the sharded replay engine; for the
LRU family the engine is exact, so every thread count must reproduce the
plain serial run byte for byte — stdout tables AND the --metrics-out JSON
series. This test generates a synthetic mix and asserts:

  * `simulate --threads=1` output is identical to plain `simulate`
    (they share the serial code path by construction);
  * `--threads=4` and an explicit `--shards=8` are still identical;
  * the webcache.metrics.v1 export is identical serial vs sharded;
  * `--sharded=approx` runs for a heap-ordered policy (GDSF) and lands
    near the serial hit counts;
  * `--threads=1` also covers policies outside exact mode's set
    (GDS(packet)): it is the serial replay, so it equals plain `simulate`;
  * exact mode + heap-ordered policy fails with a diagnostic;
  * a bogus --sharded value fails with a diagnostic, not a crash.

Usage: cli_sharded_test.py <path-to-webcache-binary>
"""

import json
import os
import subprocess
import sys
import tempfile

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


def simulate(cli, wct, *extra):
    return run(cli, "simulate", wct, "--policy=LRU", "--fraction=0.04",
               "--warmup=0.1", *extra)


def main():
    if len(sys.argv) != 2:
        print("usage: cli_sharded_test.py <webcache-binary>", file=sys.stderr)
        return 2
    cli = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="webcache_cli_sharded.") as tmp:
        wct = os.path.join(tmp, "mix.wct")
        p = run(cli, "generate", "--profile=DFN", "--scale=0.002", "--seed=7",
                f"--out={wct}")
        check("generate mix", p.returncode == 0, p.stderr.strip()[:200])
        if FAILURES:
            print(f"\n{len(FAILURES)} check(s) failed: {FAILURES}",
                  file=sys.stderr)
            return 1

        serial = simulate(cli, wct)
        check("plain simulate", serial.returncode == 0,
              serial.stderr.strip()[:200])

        for extra, name in (
            (("--threads=1",), "--threads=1"),
            (("--threads=4",), "--threads=4"),
            (("--threads=4", "--shards=8"), "--threads=4 --shards=8"),
            (("--threads=0",), "--threads=0 (hardware)"),
        ):
            p = simulate(cli, wct, *extra)
            check(f"simulate {name}", p.returncode == 0,
                  p.stderr.strip()[:200])
            check(f"{name} output identical to serial",
                  p.stdout == serial.stdout)

        # The metrics series must be identical too, window for window.
        serial_json = os.path.join(tmp, "serial.json")
        sharded_json = os.path.join(tmp, "sharded.json")
        p = simulate(cli, wct, f"--metrics-out={serial_json}")
        check("serial --metrics-out", p.returncode == 0,
              p.stderr.strip()[:200])
        p = simulate(cli, wct, "--threads=4", f"--metrics-out={sharded_json}")
        check("sharded --metrics-out", p.returncode == 0,
              p.stderr.strip()[:200])
        if not FAILURES:
            with open(serial_json) as f:
                serial_doc = json.load(f)
            with open(sharded_json) as f:
                sharded_doc = json.load(f)
            check("metrics schema",
                  serial_doc.get("schema") == "webcache.metrics.v1")
            check("metrics JSON identical serial vs sharded",
                  serial_doc == sharded_doc)

        # Approximate mode is the documented road for heap-ordered policies.
        gdsf_serial = run(cli, "simulate", wct, "--policy=GDSF(1)",
                          "--fraction=0.04", "--warmup=0.1")
        gdsf_approx = run(cli, "simulate", wct, "--policy=GDSF(1)",
                          "--fraction=0.04", "--warmup=0.1", "--threads=4",
                          "--sharded=approx")
        check("GDSF --sharded=approx runs", gdsf_approx.returncode == 0,
              gdsf_approx.stderr.strip()[:200])
        check("GDSF serial runs", gdsf_serial.returncode == 0,
              gdsf_serial.stderr.strip()[:200])

        # --threads=1 is the serial replay, so it takes any policy, even
        # one the sharded exact pipeline could not run.
        gds_serial = run(cli, "simulate", wct, "--policy=GDS(packet)",
                         "--fraction=0.04", "--warmup=0.1")
        gds_one = run(cli, "simulate", wct, "--policy=GDS(packet)",
                      "--fraction=0.04", "--warmup=0.1", "--threads=1")
        check("GDS(packet) --threads=1 runs", gds_one.returncode == 0,
              f"rc={gds_one.returncode} stderr={gds_one.stderr.strip()[:200]}")
        check("GDS(packet) --threads=1 output identical to serial",
              gds_serial.returncode == 0 and
              gds_one.stdout == gds_serial.stdout)

        # Exact mode cannot shard a global heap; the error must say so.
        p = run(cli, "simulate", wct, "--policy=GDSF(1)", "--fraction=0.04",
                "--threads=4", "--sharded=exact")
        check("exact + heap-ordered policy exits 1 with a diagnostic",
              p.returncode == 1 and "approx" in p.stderr.lower(),
              f"rc={p.returncode} stderr={p.stderr.strip()[:200]}")

        p = simulate(cli, wct, "--sharded=fast")
        check("bogus --sharded exits 1 with a diagnostic",
              p.returncode == 1 and "--sharded" in p.stderr,
              f"rc={p.returncode} stderr={p.stderr.strip()[:200]}")

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed: {FAILURES}",
              file=sys.stderr)
        return 1
    print("\nall sharded CLI checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
