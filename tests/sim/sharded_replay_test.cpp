// Property suite for the approximate sharded replay.
//
// simulate_sharded promises determinism (a pure function of trace, policy,
// options, shard count and rebalance interval; thread-count invariant),
// exact request conservation, hit rates close to the serial replay
// (bounded here), shard placement by original document id, and exactly
// the serial result for a single shard.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cache/factory.hpp"
#include "sim/sharded_replay.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::sim {
namespace {

void expect_identical_counters(const HitCounters& a, const HitCounters& b,
                               const std::string& label) {
  EXPECT_EQ(a.requests, b.requests) << label;
  EXPECT_EQ(a.hits, b.hits) << label;
  EXPECT_EQ(a.requested_bytes, b.requested_bytes) << label;
  EXPECT_EQ(a.hit_bytes, b.hit_bytes) << label;
}

void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.policy_name, b.policy_name) << label;
  EXPECT_EQ(a.capacity_bytes, b.capacity_bytes) << label;
  expect_identical_counters(a.overall, b.overall, label);
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    expect_identical_counters(a.per_class[c], b.per_class[c],
                              label + " class " + std::to_string(c));
  }
  EXPECT_EQ(a.warmup_requests, b.warmup_requests) << label;
  EXPECT_EQ(a.measured_requests, b.measured_requests) << label;
  EXPECT_EQ(a.evictions, b.evictions) << label;
  EXPECT_EQ(a.bypasses, b.bypasses) << label;
  EXPECT_EQ(a.modification_misses, b.modification_misses) << label;
  EXPECT_EQ(a.interrupted_transfers, b.interrupted_transfers) << label;
  // Both sides sum the latency doubles in the same order, so exact FP
  // equality is the correct expectation.
  EXPECT_EQ(a.miss_latency_ms, b.miss_latency_ms) << label;
  EXPECT_EQ(a.all_miss_latency_ms, b.all_miss_latency_ms) << label;
}

trace::Trace recorded_trace() {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  return generator.generate();
}

ShardedConfig approx_config(std::uint32_t threads, std::uint32_t shards,
                            std::uint64_t rebalance = 0) {
  ShardedConfig config;
  config.threads = threads;
  config.shards = shards;
  config.rebalance_interval = rebalance;
  return config;
}

// ---- configuration errors -------------------------------------------------

TEST(ShardedReplayConfig, RejectsOccupancySampling) {
  const trace::DenseTrace dense = trace::densify(recorded_trace());
  SimulatorOptions options;
  options.occupancy_samples = 8;
  EXPECT_THROW(simulate_sharded(dense, 1 << 20,
                                cache::policy_spec_from_name("LRU"), options,
                                approx_config(4, 0)),
               std::invalid_argument);
}

TEST(ShardedReplayConfig, ValidatesSimulatorOptionsLikeSimulate) {
  const trace::DenseTrace dense = trace::densify(recorded_trace());
  SimulatorOptions options;
  options.modification_threshold = 0.0;  // simulate() rejects this too
  EXPECT_THROW(simulate_sharded(dense, 1 << 20,
                                cache::policy_spec_from_name("LRU"), options,
                                approx_config(4, 0)),
               std::invalid_argument);
}

// ---- properties -----------------------------------------------------------

TEST(ShardedReplayApproxLazy, LazyLruRunsInApproxMode) {
  // The promotion-mutating lazy-LRU variants are deterministic and
  // thread-count invariant here like every other policy.
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const SimulatorOptions options;
  for (const std::string name :
       {"PROB-LRU:p=0.5", "DELAY-LRU:k=8", "BATCH-LRU:batch=16"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    const SimResult a =
        simulate_sharded(dense, capacity, spec, options, approx_config(2, 8));
    expect_identical(a, simulate_sharded(dense, capacity, spec, options,
                                         approx_config(4, 8)),
                     name + " thread invariance");
    EXPECT_EQ(a.overall.requests,
              simulate(sparse, capacity, spec, options).overall.requests)
        << name;
  }
}

TEST(ShardedReplayApprox, IsDeterministicAndThreadCountInvariant) {
  const trace::DenseTrace dense = trace::densify(recorded_trace());
  const std::uint64_t capacity = dense.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("GDSF(1)");
  const SimulatorOptions options;

  const SimResult one =
      simulate_sharded(dense, capacity, spec, options, approx_config(1, 8));
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    expect_identical(one,
                     simulate_sharded(dense, capacity, spec, options,
                                      approx_config(threads, 8)),
                     "threads=" + std::to_string(threads));
  }
}

TEST(ShardedReplayApprox, DenseNumberingNeverMovesADocument) {
  // Placement hashes the original id, so renumbering the dense ids (here:
  // reversing them) cannot move a document to another shard, and both
  // numberings run the same per-shard experiments.
  const trace::DenseTrace dense = trace::densify(recorded_trace());
  trace::DenseTrace reversed = dense;
  const std::uint64_t n = dense.document_count();
  for (trace::Request& r : reversed.trace.requests) {
    r.document = n - 1 - r.document;
  }
  for (std::uint64_t id = 0; id < n; ++id) {
    reversed.original_ids[n - 1 - id] = dense.original_ids[id];
  }
  const std::uint64_t capacity = dense.overall_size_bytes() / 25;
  const SimulatorOptions options;
  for (const std::string name : {"GDSF(1)", "GD*(packet)", "LFU-DA"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    expect_identical(simulate_sharded(dense, capacity, spec, options,
                                      approx_config(4, 0)),
                     simulate_sharded(reversed, capacity, spec, options,
                                      approx_config(4, 0)),
                     name);
  }
}

TEST(ShardedReplayApprox, DivergenceFromSerialIsBounded) {
  // The documented approximation bound: per-shard quotas distort hit rates
  // but not wildly. Request conservation is exact (partitioning never
  // drops a request); the hit-rate divergence stays within a few points on
  // the reference workload.
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const SimulatorOptions options;
  for (const std::string name : {"GDSF(1)", "GD*(1)", "LFU-DA", "GDS(1)"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    const SimResult serial = simulate(sparse, capacity, spec, options);
    const SimResult approx =
        simulate_sharded(dense, capacity, spec, options, approx_config(4, 0));
    EXPECT_EQ(serial.overall.requests, approx.overall.requests) << name;
    EXPECT_EQ(serial.overall.requested_bytes, approx.overall.requested_bytes)
        << name;
    EXPECT_EQ(serial.measured_requests, approx.measured_requests) << name;
    EXPECT_NEAR(serial.overall.hit_rate(), approx.overall.hit_rate(), 0.05)
        << name;
    EXPECT_NEAR(serial.overall.byte_hit_rate(), approx.overall.byte_hit_rate(),
                0.05)
        << name;
  }
}

TEST(ShardedReplayApprox, RebalancingIsDeterministic) {
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("GDSF(1)");
  const SimulatorOptions options;

  const SimResult a = simulate_sharded(dense, capacity, spec, options,
                                       approx_config(2, 8, 5000));
  const SimResult b = simulate_sharded(dense, capacity, spec, options,
                                       approx_config(4, 8, 5000));
  expect_identical(a, b, "rebalance thread invariance");
  EXPECT_EQ(a.overall.requests,
            simulate(sparse, capacity, spec, options).overall.requests);
}

TEST(ShardedReplayApprox, SingleShardIsExactlySerial) {
  // One shard gets the whole budget and replays the whole trace in order —
  // the approximation vanishes, so the engine delegates to simulate().
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("GD*(1)");
  const SimulatorOptions options;
  expect_identical(simulate(sparse, capacity, spec, options),
                   simulate_sharded(dense, capacity, spec, options,
                                    approx_config(4, 1)),
                   "single shard");
}

}  // namespace
}  // namespace webcache::sim
