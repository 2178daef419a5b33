// Parallel sharded replay of a single cache (ROADMAP: the per-cell
// throughput unlock). The object space is hash-sharded across worker
// threads; per-shard request queues are carved from the trace in one
// partitioning pass, and per-shard partial results merge deterministically,
// so the output is a pure function of (trace, policy, options, shard
// count) — identical for any thread count.
//
// Two modes:
//
//  * kExact (read-only-hit-path policies: LRU, FIFO, LRU-Threshold, plus
//    RANDOM, CLOCK and DELAY-CLOCK, whose hit path touches at most a
//    per-object counter and never reorders the eviction structure —
//    those three replay a real policy instance inside the serial resolve
//    stage). Byte-LRU demand
//    eviction is inherently sequential — a hit never refreshes the stored
//    size, so the eviction boundary depends on every prior outcome — but
//    everything *around* that core is outcome-independent and shards
//    perfectly. The engine pipelines:
//      1. partition: carve per-shard queues (one serial pass);
//      2. annotate (parallel per shard): per-document last-size chains
//         resolve the modification/interruption flags, and sparse document
//         ids densify into shard-local ranges — each document's history
//         lives entirely in its shard;
//      3. resolve (serial): a lean flat-array recency core consumes the
//         annotations and emits one outcome byte per request plus the
//         eviction count — no hashing, no classification, no accounting;
//      4. account (parallel per shard, plus one trace-order latency task
//         that reproduces the serial double-accumulation order exactly);
//      5. merge: field-wise integer sums.
//    The merged SimResult is pinned bit-identical to simulate() by the
//    differential suite (tests/sim/sharded_replay_test.cpp), and the
//    instrumented overload drives a RecordingSink in trace order, so
//    webcache.metrics.v1 roll-ups are bit-identical too.
//
//  * kApprox (any PolicySpec; explicit opt-in). Heap-ordered policies
//    (GDS/GDSF/GD*/LFU-DA) keep one global priority order that cannot be
//    sharded exactly, so each shard runs its own Cache over a byte quota
//    proportional to the shard's requested bytes, optionally rebalanced at
//    deterministic request-index epochs (Cache::resize). Results diverge
//    from simulate() — hit rates stay close (bounded by a property test)
//    but are NOT bit-identical — which is why run_sweep and the CLI only
//    take this path behind an explicit opt-in.
//
// Exactness preconditions (mode kExact):
//   policy.kind           in {kLru, kFifo, kLruThreshold}
//   occupancy_samples     == 0 (the engine has no mid-replay cache object)
//   distinct documents    < 2^32 - 1 (falls back to serial simulate())
#pragma once

#include <cstdint>

#include "cache/factory.hpp"
#include "obs/stats_sink.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/dense_trace.hpp"
#include "trace/request.hpp"

namespace webcache::sim {

enum class ShardedMode : std::uint8_t {
  kExact,   // read-only-hit-path policies; bit-identical to simulate()
  kApprox,  // any policy; per-shard byte quotas (documented divergence)
};

struct ShardedConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). Results
  /// never depend on this value.
  std::uint32_t threads = 0;
  /// Shard count; 0 = auto (kExact: one per thread — outputs are
  /// shard-count invariant anyway; kApprox: kDefaultApproxShards, pinned
  /// independent of threads because quota placement IS observable there).
  std::uint32_t shards = 0;
  ShardedMode mode = ShardedMode::kExact;
  /// kApprox only: recompute the per-shard byte quotas every this many
  /// trace requests (deterministic request-index epochs; shrunk shards
  /// evict down via Cache::resize). 0 = static quotas.
  std::uint64_t rebalance_interval = 0;
};

class ShardedReplay {
 public:
  /// Default shard count for kApprox (fixed so results do not depend on
  /// the machine's core count).
  static constexpr std::uint32_t kDefaultApproxShards = 8;

  /// Validates options (throws std::invalid_argument on occupancy
  /// sampling, or on an exact-mode request for a policy outside the
  /// read-only-hit-path set — see exact_eligible() — unless the run
  /// delegates to the serial replay, which covers every policy).
  ShardedReplay(std::uint64_t capacity_bytes, const cache::PolicySpec& policy,
                const SimulatorOptions& options, const ShardedConfig& config);

  /// Whether kExact supports this (policy, options) pair.
  static bool exact_eligible(const cache::PolicySpec& policy,
                             const SimulatorOptions& options);

  /// threads <= 1 with auto shards delegates to the plain serial
  /// simulate() — the exact same code path, no queue or merge overhead
  /// (asserted by the cli_sharded smoke and the bench N=1 overhead cell).
  SimResult run(const trace::Trace& trace) const;
  SimResult run(const trace::DenseTrace& trace) const;

  /// Instrumented replay: kExact drives the sink in trace order, so the
  /// collected series is bit-identical to the serial instrumented run for
  /// any thread count. kApprox throws std::invalid_argument (per-shard
  /// interleaving has no faithful single-timeline metrics stream).
  SimResult run(const trace::Trace& trace, obs::RecordingSink& sink) const;
  SimResult run(const trace::DenseTrace& trace,
                obs::RecordingSink& sink) const;

 private:
  std::uint64_t capacity_bytes_;
  cache::PolicySpec policy_;
  SimulatorOptions options_;
  std::uint32_t threads_;  // resolved (never 0)
  std::uint32_t shards_;   // resolved (never 0)
  ShardedMode mode_;
  std::uint64_t rebalance_interval_;
  bool serial_delegate_;  // threads <= 1 and shards <= 1
};

/// Convenience wrapper mirroring the simulate() free functions.
SimResult simulate_sharded(const trace::Trace& trace,
                           std::uint64_t capacity_bytes,
                           const cache::PolicySpec& policy,
                           const SimulatorOptions& options = {},
                           const ShardedConfig& config = {});

SimResult simulate_sharded(const trace::DenseTrace& trace,
                           std::uint64_t capacity_bytes,
                           const cache::PolicySpec& policy,
                           const SimulatorOptions& options = {},
                           const ShardedConfig& config = {});

SimResult simulate_sharded(const trace::Trace& trace,
                           std::uint64_t capacity_bytes,
                           const cache::PolicySpec& policy,
                           const SimulatorOptions& options,
                           const ShardedConfig& config,
                           obs::RecordingSink& sink);

SimResult simulate_sharded(const trace::DenseTrace& trace,
                           std::uint64_t capacity_bytes,
                           const cache::PolicySpec& policy,
                           const SimulatorOptions& options,
                           const ShardedConfig& config,
                           obs::RecordingSink& sink);

}  // namespace webcache::sim
