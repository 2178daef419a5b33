// Approximate parallel replay of a single cache. The object space is
// hash-sharded (by original document id) across worker threads; each shard
// runs its own Cache over a byte quota proportional to the shard's
// requested bytes, optionally rebalanced at deterministic request-index
// epochs (Cache::resize). Per-shard results merge in shard-index order, so
// the output is a pure function of (trace, policy, options, shards,
// rebalance interval) — identical for any thread count.
//
// Heap-ordered policies (GDS/GDSF/GD*/LFU-DA) keep one global priority
// order that cannot be sharded exactly, so multi-shard results diverge
// from simulate(): hit rates stay close (bounded by a property test) but
// are NOT bit-identical — which is why the CLI only takes this path behind
// an explicit `--sharded=approx`. A single shard gets the whole budget and
// is exactly the serial replay. The exact per-document-type results the
// paper reports come from simulate().
#pragma once

#include <cstdint>

#include "cache/factory.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::sim {

/// Default shard count (fixed so results do not depend on the machine's
/// core count: quota placement is observable).
inline constexpr std::uint32_t kDefaultShards = 8;

struct ShardedConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). Results
  /// never depend on this value.
  std::uint32_t threads = 0;
  /// Shard count; 0 = kDefaultShards. 1 delegates to simulate().
  std::uint32_t shards = 0;
  /// Recompute the per-shard byte quotas every this many trace requests
  /// (shrunk shards evict down via Cache::resize). 0 = static quotas.
  std::uint64_t rebalance_interval = 0;
};

/// Throws std::invalid_argument on invalid simulator options (as
/// simulate() does) and on occupancy sampling, which observes one cache's
/// mid-replay state that a sharded run does not have. A trace from
/// trace::densify() lands every document in the same shard as its
/// original id would.
SimResult simulate_sharded(const trace::DenseTrace& trace,
                           std::uint64_t capacity_bytes,
                           const cache::PolicySpec& policy,
                           const SimulatorOptions& options = {},
                           const ShardedConfig& config = {});

}  // namespace webcache::sim
