#!/usr/bin/env python3
"""End-to-end benchmark of the webcache CLI, with a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the CLI and
the traced program layer_trace from source into .bench_build/, through
perfbench/CMakeLists.txt, which adds the repository's top-level build
unchanged. Traces, outputs and checkpoints go to
.bench_run/<workload>/, and one JSON record per run (host and build
manifest, samples, counters, checks) to .bench_run/records/. The last
line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 times the workload's CLI command sequence and reports the
end-to-end metrics; --trace 1 runs layer_trace (the in-process program that
records a span around every call into a layer) and reports the per-layer
metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN = ROOT / ".bench_run"
CLI = BUILD / "webcache" / "tools" / "webcache"
LAYER_TRACE = BUILD / "layer_trace"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 42       # the seed whose outputs expected.json pins
SETUP_REPEATS = 7       # setup_s is the median of this many set-ups
MIN_SEQUENCES = 3       # a timed run never has fewer command sequences
PAPER_POLICIES = ["LRU", "LFU-DA", "GDS(1)", "GD*(1)"]
FRACTIONS = [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.40]
CHECKPOINT_EVERY = 100000
CHECKPOINT_KEEP = 3     # the CLI's default --checkpoint-keep
# The sweep's --threads: fewer than the 4 cores of the reference host, so a
# core taken by the benchmark itself or a neighbour does not stall the pool.
THREADS = min(2, os.cpu_count() or 1)

# The streamed, checkpointed replay that simulate-dfn runs after the four
# materialized ones; its result must equal a materialized simulate.
STREAM_POLICY = "GD*(packet)"
STREAM_CACHE_MB = 220   # ~4% of the overall size of a DFN trace at scale 0.1

# Why each workload exists is in README.md. "cells" is the number of
# policy x capacity cells one command sequence replays the trace through.
WORKLOADS = {
    "simulate-dfn": {"profile": "DFN", "scale": 0.1,
                     "cells": len(PAPER_POLICIES) + 1},
    "sweep-rtp": {"profile": "RTP", "scale": 0.1,
                  "cells": len(PAPER_POLICIES) * len(FRACTIONS)},
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure)."""


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def build():
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "tools/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{needed} not found: run from a source checkout")
    # Compilers and the CLI write their scratch files inside the checkout.
    (RUN / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(RUN / "tmp")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "webcache_cli",
                  "layer_trace", "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed, see {log}")


# ---------------------------------------------------------------- manifest

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def mount_type(path):
    """Filesystem type of the mount holding `path` (longest-prefix match)."""
    best, kind = "", "unknown"
    try:
        for line in Path("/proc/self/mounts").read_text().splitlines():
            fields = line.split()
            if len(fields) >= 3 and str(path).startswith(fields[1]) and \
                    len(fields[1]) > len(best):
                best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def source_sha256():
    """Digest of every file the benchmark builds from, for non-git trees."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted((ROOT / top).rglob("*"))
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_manifest():
    # Written by perfbench/CMakeLists.txt from the top-level build's settings.
    settings = json.loads((BUILD / "build_settings.json").read_text())
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "compiler": settings["compiler"],
        "compiler_version": f"{settings['compiler_id']} "
                            f"{settings['compiler_version']}",
        "build_type": settings["build_type"],
        "cxx_standard": settings["cxx_standard"],
        "compile_options": settings["compile_options"],
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    }


# ------------------------------------------------------------- invocations

class Invocations:
    """Runs CLI processes and counts each one against error_rate."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run(self, argv, cwd):
        """Returns (wall_s, cpu_s, maxrss_mb, stderr) or None on failure."""
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.fail(f"{' '.join(argv[1:3])} exited {proc.returncode}: "
                      f"{err.strip()[-300:]}")
            return None
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024.0, err

    def fail(self, what):
        self.failures.append(what)


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise ValueError(f"{Path(path).name}: {e}") from None


def check_counters(block, what):
    if block["hits"] > block["requests"] or \
            block["hit_bytes"] > block["requested_bytes"]:
        raise ValueError(f"{what}: more hits than requests")


def check_class_sums(overall, per_class, what):
    for key in ("requests", "hits", "requested_bytes", "hit_bytes"):
        if sum(c[key] for c in per_class) != overall[key]:
            raise ValueError(f"{what}: per-class {key} do not sum to overall")
    check_counters(overall, what)


def count_misses(result, counters):
    counters["evictions"] += result["evictions"]
    counters["misses"] += result["overall"]["requests"] - \
        result["overall"]["hits"]


def check_result(path, policy, requests):
    r = load_json(path)
    if r.get("schema") != "webcache.result.v1" or r.get("policy") != policy:
        raise ValueError(f"{path.name}: wrong schema or policy")
    if r["warmup_requests"] + r["measured_requests"] != requests:
        raise ValueError(f"{path.name}: request count does not match trace")
    check_class_sums(r["overall"], r["per_class"], path.name)
    return r


# --------------------------------------------------------------- workloads

class Workload:
    """One workload: set-up, the timed CLI command sequence, its checks."""

    def __init__(self, name, seed, inv):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.inv = inv
        self.dir = RUN / name
        self.trace = "trace.wct"   # relative to self.dir, as the CLI sees it
        self.requests = 0
        self.documents = 0
        self.first_outputs = {}    # output name -> bytes of the first sequence
        self.reference = None      # the materialized STREAM_POLICY result

    # -- set-up: generate the trace (and the reference output) ------------

    def setup_once(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        start = time.perf_counter()
        res = self.inv.run([str(CLI), "generate",
                            f"--profile={self.spec['profile']}",
                            f"--scale={self.spec['scale']}",
                            f"--seed={self.seed}", f"--out={self.trace}"],
                           self.dir)
        if res is None:
            raise BenchError("trace generation failed")
        # "generated <N> requests, <D> documents, ..."
        words = res[3].split()
        self.requests, self.documents = int(words[1]), int(words[3])
        if self.name == "simulate-dfn":
            ref = self.inv.run([str(CLI), "simulate", self.trace,
                                f"--policy={STREAM_POLICY}",
                                f"--cache-mb={STREAM_CACHE_MB}",
                                "--result-out=reference.json"], self.dir)
            if ref is None:
                raise BenchError("reference simulate failed")
            self.reference = (self.dir / "reference.json").read_bytes()
        return time.perf_counter() - start

    def setup(self, repeats):
        """Median set-up seconds; every repeat must write the same trace."""
        times, digests = [], set()
        for _ in range(repeats):
            times.append(self.setup_once())
            digests.add(sha256_file(self.dir / self.trace))
        if len(digests) != 1:
            self.inv.fail("generate is not deterministic for this seed")
        self.trace_sha256 = digests.pop()
        return statistics.median(times)

    # -- the timed command sequence ---------------------------------------

    def commands(self):
        """(argv, output files) for each CLI process of one sequence."""
        cli, t = str(CLI), self.trace
        if self.name == "sweep-rtp":
            return [([cli, "sweep", t,
                      "--policies=" + ",".join(PAPER_POLICIES),
                      "--fractions=" + ",".join(map(str, FRACTIONS)),
                      f"--threads={THREADS}", "--curve-out=curve.json"],
                     ["curve.json"])]
        materialized = [([cli, "simulate", t, f"--policy={p}",
                          "--cache-fraction=0.04",
                          f"--result-out=result-{i}.json"],
                         [f"result-{i}.json"])
                        for i, p in enumerate(PAPER_POLICIES)]
        streamed = ([cli, "simulate", t, "--stream", "--densify",
                     f"--policy={STREAM_POLICY}",
                     f"--cache-mb={STREAM_CACHE_MB}",
                     "--checkpoint-dir=ckpt",
                     f"--checkpoint-every={CHECKPOINT_EVERY}",
                     "--metrics-out=stream-metrics.json",
                     "--result-out=stream-result.json"],
                    ["stream-result.json", "stream-metrics.json"])
        return materialized + [streamed]

    def check_outputs(self, argv, outputs, stderr, counters):
        """Validates one invocation's outputs and adds to the counters."""
        if argv[1] == "sweep":
            self.check_curve(counters)
        elif "--stream" in argv:
            self.check_stream(stderr, counters)
        else:
            policy = argv[3].split("=", 1)[1]
            r = check_result(self.dir / outputs[0], policy, self.requests)
            count_misses(r, counters)
        for name in outputs:
            data = (self.dir / name).read_bytes()
            first = self.first_outputs.setdefault(name, data)
            if data != first:
                raise ValueError(f"{name} differs between repetitions")

    def check_curve(self, counters):
        c = load_json(self.dir / "curve.json")
        points = c.get("points", [])
        if c.get("schema") != "webcache.sweep.v1" or \
                len(points) != len(FRACTIONS):
            raise ValueError("curve.json: wrong schema or ladder")
        for point in points:
            names = [p["policy"] for p in point["policies"]]
            if names != PAPER_POLICIES:
                raise ValueError(f"curve.json: policies {names}")
            for p in point["policies"]:
                check_class_sums(p["overall"], list(p["per_class"].values()),
                                 "curve.json")
                count_misses(p, counters)
        caps = [p["capacity_bytes"] for p in points]
        if caps != sorted(caps):
            raise ValueError("curve.json: capacities not ascending")

    def check_stream(self, stderr, counters):
        if (self.dir / "stream-result.json").read_bytes() != self.reference:
            raise ValueError("streamed checkpointed result differs from the "
                             "materialized simulate")
        r = check_result(self.dir / "stream-result.json", STREAM_POLICY,
                         self.requests)
        m = load_json(self.dir / "stream-metrics.json")
        if m.get("schema") != "webcache.metrics.v1":
            raise ValueError("stream-metrics.json: wrong schema")
        written = [int(line.split()[2]) for line in stderr.splitlines()
                   if line.startswith("checkpoint: wrote ")]
        if written != [self.requests // CHECKPOINT_EVERY]:
            raise ValueError(f"checkpoints written: {written}")
        files = list((self.dir / "ckpt").iterdir())
        if len(files) != min(written[0], CHECKPOINT_KEEP):
            raise ValueError(f"{len(files)} checkpoint files retained")
        count_misses(r, counters)
        counters["checkpoints_written"] = written[0]
        counters["checkpoint_bytes_retained"] = sum(
            f.stat().st_size for f in files)

    def sequence(self):
        """Runs one command sequence; returns its sample, or None on a
        failure (already counted)."""
        walls, cpu, rss = [], 0.0, 0.0
        counters = {"evictions": 0, "misses": 0,
                    "distinct_documents": self.documents}
        ok = True
        for argv, outputs in self.commands():
            shutil.rmtree(self.dir / "ckpt", ignore_errors=True)
            for name in outputs:
                (self.dir / name).unlink(missing_ok=True)
            res = self.inv.run(argv, self.dir)
            if res is None:
                ok = False
                continue
            walls.append(res[0])
            cpu += res[1]
            rss = max(rss, res[2])
            try:
                self.check_outputs(argv, outputs, res[3], counters)
            except (ValueError, KeyError, TypeError, OSError) as e:
                self.inv.fail(f"{argv[1]}: {e}")
                ok = False
        if not ok:
            return None
        return {"wall_s": sum(walls), "cpu_s": cpu, "peak_rss_mb": rss,
                "command_wall_s": walls, "counters": counters}

    def output_digests(self):
        return {name: hashlib.sha256(data).hexdigest()
                for name, data in sorted(self.first_outputs.items())}


def timed_sequences(workload, seconds):
    """Command sequences while another one still fits in `seconds` (at
    least MIN_SEQUENCES); returns the samples that passed every check."""
    samples = []
    start = time.perf_counter()
    count, last = 0, 0.0
    while count < MIN_SEQUENCES or \
            time.perf_counter() - start + last <= seconds:
        count += 1
        began = time.perf_counter()
        sample = workload.sequence()
        last = time.perf_counter() - began
        if sample is not None:
            samples.append(sample)
    return samples


def check_repeats(samples, inv):
    """Exact-repeat counters must be identical in every sequence."""
    if any(s["counters"] != samples[0]["counters"] for s in samples):
        inv.fail("exact counters differ between sequences")
    return samples[0]["counters"] if samples else {}


def check_expected(workload, counters, inv):
    """For the default seed, outputs and counters must match expected.json.
    With PERFBENCH_UPDATE_EXPECTED=1 the observed values are written there
    instead (after a deliberate change to the simulator's results)."""
    if workload.seed != DEFAULT_SEED:
        return
    pinned = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    actual = {"trace_sha256": workload.trace_sha256,
              "outputs": workload.output_digests(), "counters": counters}
    if os.environ.get("PERFBENCH_UPDATE_EXPECTED") == "1":
        pinned[workload.name] = actual
        EXPECTED.write_text(
            json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        return
    expected = pinned.get(workload.name)
    inv.attempted += 1
    if expected is None:
        inv.fail(f"expected.json has no entry for {workload.name}")
        return
    for key, value in actual.items():
        if expected.get(key) != value:
            inv.fail(f"{key} differs from expected.json for seed "
                     f"{DEFAULT_SEED}")


# --------------------------------------------------------------------- runs

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds, inv):
    samples = timed_sequences(workload, seconds)
    counters = check_repeats(samples, inv)
    check_expected(workload, counters, inv)
    if not samples:
        return {}, counters, samples
    wall = statistics.median(s["wall_s"] for s in samples)
    cells = workload.spec["cells"]
    metrics = {
        "req_per_s": metric(workload.requests * cells / wall, "1/s"),
        "cpu_s": metric(statistics.median(s["cpu_s"] for s in samples), "s"),
        # The sweep's peak depends on which cells its threads overlap, so a
        # run's peak is the highest over its sequences.
        "peak_rss_mb": metric(max(s["peak_rss_mb"] for s in samples), "MB"),
    }
    return metrics, counters, samples


def traced(workload, seconds, inv, run_id):
    """Untraced CLI sequences for the tracing-overhead base, then the
    in-process layer_trace for the remaining time."""
    start = time.perf_counter()
    samples = [s for s in (workload.sequence() for _ in range(2)) if s]
    cli_counters = check_repeats(samples, inv)
    check_expected(workload, cli_counters, inv)
    cli_s = statistics.median(s["wall_s"] for s in samples) if samples else 0.0

    spans = RUN / "records" / f"{run_id}.spans.json"
    argv = [str(LAYER_TRACE), f"--trace={workload.trace}",
            f"--workload={workload.name}", f"--run-id={run_id}",
            f"--spans-out={spans}", "--checkpoint-dir=probe-ckpt",
            "--fractions=" + ",".join(map(str, FRACTIONS)),
            f"--threads={THREADS}", f"--checkpoint-every={CHECKPOINT_EVERY}",
            f"--seconds={max(0.0, seconds - (time.perf_counter() - start))}"]
    proc = subprocess.run(argv, cwd=workload.dir, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise BenchError(f"layer_trace failed: {proc.stderr.strip()[-300:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    inv.attempted += report["checks"]["attempted"]
    for failure in report["checks"]["failures"]:
        inv.fail(f"layer_trace: {failure}")
    if report["counters"]["distinct_documents"] != workload.documents:
        inv.fail("layer_trace and generate disagree on distinct documents")

    metrics = dict(report["metrics"])
    for name in ("evictions", "misses", "cells_one_pass", "cells_grid"):
        metrics[f"count.{name}"] = metric(report["counters"][name], "count")
    metrics["tools.cli_s"] = metric(cli_s, "s")
    metrics["tracing.overhead_ratio"] = metric(
        report["sequence_s"] / cli_s if cli_s else 0.0, "ratio")
    extra = {"cli_counters": cli_counters, "cli_samples": samples,
             "layer_trace_counters": report["counters"],
             "layer_trace_passes": report["passes"], "spans": str(spans)}
    return metrics, extra


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        manifest = {"host": host_manifest(),
                    "checkpoint_fs": mount_type(ROOT)}
        inv = Invocations()
        workload = Workload(args.workload, args.seed, inv)
        # setup_s is reported by the untraced run only.
        setup_s = workload.setup(1 if args.trace else SETUP_REPEATS)
        manifest["workload"] = {
            "name": args.workload, "profile": workload.spec["profile"],
            "scale": workload.spec["scale"], "seed": args.seed,
            "trace_sha256": workload.trace_sha256,
            "requests": workload.requests, "documents": workload.documents,
            "cells": workload.spec["cells"], "threads": THREADS,
            "seconds": args.seconds, "trace": args.trace}
        run_id = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                  f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
        (RUN / "records").mkdir(parents=True, exist_ok=True)
        if args.trace:
            metrics, extra = traced(workload, args.seconds, inv, run_id)
        else:
            metrics, counters, samples = end_to_end(workload, args.seconds,
                                                    inv)
            metrics["setup_s"] = metric(setup_s, "s")
            extra = {"counters": counters, "samples": samples}
        extra["outputs"] = workload.output_digests()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    failed = len(inv.failures)
    correct = failed == 0 and bool(metrics)
    record = {"manifest": manifest, "correct": correct,
              "attempted": inv.attempted, "failed": failed,
              "error_rate": failed / max(1, inv.attempted),
              "failures": inv.failures, "setup_s": setup_s,
              "metrics": metrics, **extra}
    path = RUN / "records" / f"{run_id}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for failure in inv.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    print(f"error_rate: {record['error_rate']}")
    print(json.dumps({"correct": correct, "attempted": inv.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
