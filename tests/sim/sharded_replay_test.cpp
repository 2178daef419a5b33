// Differential suite for the sharded replay engine.
//
// Exact mode carries a hard promise: for the LRU/FIFO family the merged
// SimResult is bit-identical to the serial simulate() — every counter AND
// both trace-order latency doubles — for any thread count, any shard
// count, sparse or dense ids, every modification rule, with and without
// warm-up. The approximate mode promises determinism (pure function of
// trace/policy/options/shards, thread-count invariant), exact request
// conservation, and hit rates close to serial (bounded here).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "obs/stats_sink.hpp"
#include "sim/sharded_replay.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/binary_trace.hpp"
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

void expect_identical(const SimResult& serial, const SimResult& sharded,
                      const std::string& label) {
  EXPECT_EQ(serial.policy_name, sharded.policy_name) << label;
  EXPECT_EQ(serial.capacity_bytes, sharded.capacity_bytes) << label;
  expect_identical_counters(serial.overall, sharded.overall, label);
  for (std::size_t c = 0; c < serial.per_class.size(); ++c) {
    expect_identical_counters(serial.per_class[c], sharded.per_class[c],
                              label + " class " + std::to_string(c));
  }
  EXPECT_EQ(serial.warmup_requests, sharded.warmup_requests) << label;
  EXPECT_EQ(serial.measured_requests, sharded.measured_requests) << label;
  EXPECT_EQ(serial.evictions, sharded.evictions) << label;
  EXPECT_EQ(serial.bypasses, sharded.bypasses) << label;
  EXPECT_EQ(serial.modification_misses, sharded.modification_misses) << label;
  EXPECT_EQ(serial.interrupted_transfers, sharded.interrupted_transfers)
      << label;
  // The sharded engine accumulates the latency doubles in trace order, so
  // exact FP equality is the correct expectation.
  EXPECT_EQ(serial.miss_latency_ms, sharded.miss_latency_ms) << label;
  EXPECT_EQ(serial.all_miss_latency_ms, sharded.all_miss_latency_ms) << label;
}

trace::Trace recorded_trace() {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  return generator.generate();
}

ShardedConfig exact_config(std::uint32_t threads, std::uint32_t shards) {
  ShardedConfig config;
  config.threads = threads;
  config.shards = shards;
  config.mode = ShardedMode::kExact;
  return config;
}

// ---- exact mode: the differential matrix ----------------------------------

TEST(ShardedReplayExact, MatchesSerialForLruFamilyAcrossThreadCounts) {
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const SimulatorOptions options;

  for (const std::string name : {"LRU", "FIFO", "LRU-THOLD(300000)"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    const SimResult serial = simulate(sparse, capacity, spec, options);
    // shards=2 at threads=1 forces the pipeline (no serial delegation), so
    // the 1-thread row tests the engine, not the fallback.
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      const SimResult sharded = simulate_sharded(
          sparse, capacity, spec, options,
          exact_config(threads, threads == 1 ? 2 : 0));
      expect_identical(serial, sharded,
                       name + " sparse threads=" + std::to_string(threads));
      const SimResult sharded_dense = simulate_sharded(
          dense, capacity, spec, options,
          exact_config(threads, threads == 1 ? 2 : 0));
      expect_identical(serial, sharded_dense,
                       name + " dense threads=" + std::to_string(threads));
    }
  }
}

TEST(ShardedReplayExact, ShardCountNeverChangesTheResult) {
  const trace::Trace sparse = recorded_trace();
  const std::uint64_t capacity = sparse.overall_size_bytes() / 50;
  const cache::PolicySpec spec = cache::policy_spec_from_name("LRU");
  const SimulatorOptions options;
  const SimResult serial = simulate(sparse, capacity, spec, options);
  for (const std::uint32_t shards : {2u, 3u, 7u, 16u}) {
    expect_identical(serial,
                     simulate_sharded(sparse, capacity, spec, options,
                                      exact_config(2, shards)),
                     "shards=" + std::to_string(shards));
  }
}

TEST(ShardedReplayExact, MatchesSerialUnderEveryModificationRule) {
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 50;
  const cache::PolicySpec spec = cache::policy_spec_from_name("LRU");

  for (const ModificationRule rule :
       {ModificationRule::kThreshold, ModificationRule::kAnyChange,
        ModificationRule::kNever}) {
    SimulatorOptions options;
    options.modification_rule = rule;
    const std::string label = "rule " + std::to_string(static_cast<int>(rule));
    const SimResult serial = simulate(sparse, capacity, spec, options);
    expect_identical(serial,
                     simulate_sharded(sparse, capacity, spec, options,
                                      exact_config(4, 0)),
                     label + " sparse");
    expect_identical(serial,
                     simulate_sharded(dense, capacity, spec, options,
                                      exact_config(4, 0)),
                     label + " dense");
  }
}

TEST(ShardedReplayExact, MatchesSerialWithAndWithoutWarmup) {
  const trace::Trace sparse = recorded_trace();
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("FIFO");
  for (const double warmup : {0.0, 0.10, 0.50}) {
    SimulatorOptions options;
    options.warmup_fraction = warmup;
    const SimResult serial = simulate(sparse, capacity, spec, options);
    expect_identical(serial,
                     simulate_sharded(sparse, capacity, spec, options,
                                      exact_config(3, 0)),
                     "warmup=" + std::to_string(warmup));
  }
}

TEST(ShardedReplayExact, OversizedCacheAndTinyCacheEdges) {
  const trace::Trace sparse = recorded_trace();
  const cache::PolicySpec spec = cache::policy_spec_from_name("LRU");
  const SimulatorOptions options;
  // Everything fits: no evictions at all.
  const std::uint64_t huge = sparse.overall_size_bytes() * 2;
  expect_identical(simulate(sparse, huge, spec, options),
                   simulate_sharded(sparse, huge, spec, options,
                                    exact_config(4, 0)),
                   "oversized");
  // Smaller than most transfers: the admission check bypasses constantly.
  expect_identical(simulate(sparse, 4096, spec, options),
                   simulate_sharded(sparse, 4096, spec, options,
                                    exact_config(4, 0)),
                   "tiny");
}

TEST(ShardedReplayExact, SingleThreadAutoShardsDelegatesToSerialPath) {
  // threads=1 with auto shards is documented to BE the serial simulate():
  // same code path, so trivially identical — the cheap spelling the CLI
  // uses for --threads=1.
  const trace::Trace sparse = recorded_trace();
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("LRU");
  const SimulatorOptions options;
  expect_identical(simulate(sparse, capacity, spec, options),
                   simulate_sharded(sparse, capacity, spec, options,
                                    exact_config(1, 0)),
                   "delegated");
}

TEST(ShardedReplayExact, MatchesSerialOnTheGoldenFixture) {
  // The checked-in golden DFN trace (the workload whose exact counters
  // tests/integration/golden_trace_test.cpp pins) replayed through the
  // sharded engine: identical to serial, which transitively pins the
  // sharded counters to the golden file.
  const trace::Trace golden = trace::read_binary_trace_file(
      std::string(WEBCACHE_TEST_DATA_DIR) + "/golden_dfn.wct");
  const trace::DenseTrace dense = trace::densify(golden);
  const std::uint64_t capacity = static_cast<std::uint64_t>(
      static_cast<double>(golden.overall_size_bytes()) * 0.04);
  const SimulatorOptions options;
  for (const std::string name : {"LRU", "FIFO", "LRU-THOLD(300000)"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    const SimResult serial = simulate(golden, capacity, spec, options);
    expect_identical(serial,
                     simulate_sharded(golden, capacity, spec, options,
                                      exact_config(4, 0)),
                     "golden sparse " + name);
    expect_identical(serial,
                     simulate_sharded(dense, capacity, spec, options,
                                      exact_config(4, 0)),
                     "golden dense " + name);
  }
}

TEST(ShardedReplayExact, MatchesSerialForReadOnlyHitPathPolicies) {
  // RANDOM / CLOCK / DELAY-CLOCK replay a real policy instance inside the
  // serial resolve stage. The same thread/shard matrix as the LRU family:
  // bit-identical to serial on both representations — for RANDOM this also
  // proves the draw stream is consumed identically (one draw per eviction,
  // position-based), since a single extra or missing draw would cascade.
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const SimulatorOptions options;

  for (const std::string name :
       {"RANDOM:seed=5", "CLOCK", "DELAY-CLOCK:k=3"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    const SimResult serial = simulate(sparse, capacity, spec, options);
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      const SimResult sharded = simulate_sharded(
          sparse, capacity, spec, options,
          exact_config(threads, threads == 1 ? 2 : 0));
      expect_identical(serial, sharded,
                       name + " sparse threads=" + std::to_string(threads));
      const SimResult sharded_dense = simulate_sharded(
          dense, capacity, spec, options,
          exact_config(threads, threads == 1 ? 2 : 0));
      expect_identical(serial, sharded_dense,
                       name + " dense threads=" + std::to_string(threads));
    }
  }
}

TEST(ShardedReplayExact, ShardCountNeverChangesRandomOrClock) {
  const trace::Trace sparse = recorded_trace();
  const std::uint64_t capacity = sparse.overall_size_bytes() / 50;
  const SimulatorOptions options;
  for (const std::string name : {"RANDOM:seed=5", "DELAY-CLOCK:k=2"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    const SimResult serial = simulate(sparse, capacity, spec, options);
    for (const std::uint32_t shards : {2u, 3u, 7u, 16u}) {
      expect_identical(serial,
                       simulate_sharded(sparse, capacity, spec, options,
                                        exact_config(2, shards)),
                       name + " shards=" + std::to_string(shards));
    }
  }
}

// ---- configuration errors -------------------------------------------------

TEST(ShardedReplayConfig, ExactModeRejectsHeapOrderedPolicies) {
  for (const std::string name : {"GDS(1)", "GDSF(1)", "GD*(1)", "LFU-DA"}) {
    EXPECT_THROW(ShardedReplay(1 << 20, cache::policy_spec_from_name(name),
                               SimulatorOptions{}, exact_config(4, 0)),
                 std::invalid_argument)
        << name;
  }
}

TEST(ShardedReplayConfig, SerialDelegationAcceptsEveryPolicy) {
  // One thread with auto shards IS the serial replay, so the exact-mode
  // policy restriction (a limit of the pipeline) must not apply to it.
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const SimulatorOptions options;
  for (const std::string name :
       {"GDS(packet)", "GD*(1)", "LFU-DA", "DELAY-LRU:k=8"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    const SimResult serial = simulate(sparse, capacity, spec, options);
    expect_identical(serial,
                     simulate_sharded(sparse, capacity, spec, options,
                                      exact_config(1, 0)),
                     name + " sparse threads=1");
    expect_identical(serial,
                     simulate_sharded(dense, capacity, spec, options,
                                      exact_config(1, 0)),
                     name + " dense threads=1");
    // An explicit second shard forces the pipeline, which still refuses.
    EXPECT_THROW(ShardedReplay(capacity, spec, options, exact_config(1, 2)),
                 std::invalid_argument)
        << name;
  }
}

TEST(ShardedReplayConfig, ExactModeRejectsPromotionMutatingLazyLru) {
  // The lazy-LRU promotion variants write the recency order on hits, so
  // they are explicitly outside the exact engine's contract — the ctor
  // must refuse rather than silently approximate.
  for (const std::string name :
       {"PROB-LRU:p=0.5", "DELAY-LRU:k=8", "BATCH-LRU:batch=16"}) {
    EXPECT_THROW(ShardedReplay(1 << 20, cache::policy_spec_from_name(name),
                               SimulatorOptions{}, exact_config(4, 0)),
                 std::invalid_argument)
        << name;
  }
}

TEST(ShardedReplayApproxLazy, LazyLruRunsInApproxMode) {
  // ...but all three are fine in approx mode: deterministic, thread-count
  // invariant, and representation-agnostic like every other policy there.
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const SimulatorOptions options;
  for (const std::string name :
       {"PROB-LRU:p=0.5", "DELAY-LRU:k=8", "BATCH-LRU:batch=16"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    ShardedConfig config;
    config.mode = ShardedMode::kApprox;
    config.shards = 8;
    config.threads = 2;
    const SimResult a = simulate_sharded(sparse, capacity, spec, options,
                                         config);
    config.threads = 4;
    expect_identical(a, simulate_sharded(sparse, capacity, spec, options,
                                         config),
                     name + " thread invariance");
    expect_identical(a, simulate_sharded(dense, capacity, spec, options,
                                         config),
                     name + " dense agreement");
    EXPECT_EQ(a.overall.requests,
              simulate(sparse, capacity, spec, options).overall.requests)
        << name;
  }
}

TEST(ShardedReplayConfig, RejectsOccupancySampling) {
  SimulatorOptions options;
  options.occupancy_samples = 8;
  EXPECT_THROW(ShardedReplay(1 << 20, cache::policy_spec_from_name("LRU"),
                             options, exact_config(4, 0)),
               std::invalid_argument);
}

TEST(ShardedReplayConfig, ExactEligibilityIsTheReadOnlyHitPathSet) {
  const SimulatorOptions options;
  for (const std::string name : {"LRU", "FIFO", "LRU-THOLD(300)", "RANDOM",
                                 "CLOCK", "DELAY-CLOCK:k=4"}) {
    EXPECT_TRUE(ShardedReplay::exact_eligible(
        cache::policy_spec_from_name(name), options))
        << name;
  }
  for (const std::string name : {"GDS(1)", "GDSF(packet)", "GD*(1)", "SIZE",
                                  "LFU", "LFU-DA", "LRU-MIN", "LRU-2",
                                  "PROB-LRU:p=0.5", "DELAY-LRU:k=8",
                                  "BATCH-LRU:batch=16"}) {
    EXPECT_FALSE(ShardedReplay::exact_eligible(
        cache::policy_spec_from_name(name), options))
        << name;
  }
}

TEST(ShardedReplayConfig, ApproxModeRejectsInstrumentedRuns) {
  const trace::Trace sparse = recorded_trace();
  ShardedConfig config;
  config.mode = ShardedMode::kApprox;
  config.threads = 2;
  obs::RecordingSink sink(500);
  ShardedReplay engine(1 << 20, cache::policy_spec_from_name("GDSF(1)"),
                       SimulatorOptions{}, config);
  EXPECT_THROW(engine.run(sparse, sink), std::invalid_argument);
}

TEST(ShardedReplayConfig, ValidatesSimulatorOptionsLikeSimulate) {
  SimulatorOptions options;
  options.modification_threshold = 0.0;  // simulate() rejects this too
  EXPECT_THROW(ShardedReplay(1 << 20, cache::policy_spec_from_name("LRU"),
                             options, exact_config(4, 0)),
               std::invalid_argument);
}

// ---- approximate mode -----------------------------------------------------

ShardedConfig approx_config(std::uint32_t threads, std::uint32_t shards,
                            std::uint64_t rebalance = 0) {
  ShardedConfig config;
  config.threads = threads;
  config.shards = shards;
  config.mode = ShardedMode::kApprox;
  config.rebalance_interval = rebalance;
  return config;
}

TEST(ShardedReplayApprox, IsDeterministicAndThreadCountInvariant) {
  const trace::Trace sparse = recorded_trace();
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("GDSF(1)");
  const SimulatorOptions options;

  const SimResult one = simulate_sharded(sparse, capacity, spec, options,
                                         approx_config(1, 8));
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    expect_identical(one,
                     simulate_sharded(sparse, capacity, spec, options,
                                      approx_config(threads, 8)),
                     "threads=" + std::to_string(threads));
  }
}

TEST(ShardedReplayApprox, SparseAndDenseAgree) {
  // Approx shards by the pre-densification id, so densify() cannot move a
  // document to another shard and both representations run the same
  // per-shard experiments.
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const SimulatorOptions options;
  for (const std::string name : {"GDSF(1)", "GD*(packet)", "LFU-DA"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    expect_identical(simulate_sharded(sparse, capacity, spec, options,
                                      approx_config(4, 0)),
                     simulate_sharded(dense, capacity, spec, options,
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
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const SimulatorOptions options;
  for (const std::string name : {"GDSF(1)", "GD*(1)", "LFU-DA", "GDS(1)"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    const SimResult serial = simulate(sparse, capacity, spec, options);
    const SimResult approx = simulate_sharded(sparse, capacity, spec, options,
                                              approx_config(4, 0));
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
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("GDSF(1)");
  const SimulatorOptions options;

  const SimResult a = simulate_sharded(sparse, capacity, spec, options,
                                       approx_config(2, 8, 5000));
  const SimResult b = simulate_sharded(sparse, capacity, spec, options,
                                       approx_config(4, 8, 5000));
  expect_identical(a, b, "rebalance thread invariance");
  EXPECT_EQ(a.overall.requests,
            simulate(sparse, capacity, spec, options).overall.requests);
}

TEST(ShardedReplayApprox, SingleShardIsExactlySerial) {
  // One shard gets the whole budget and replays the whole trace in order —
  // the approximation vanishes, so the engine delegates to simulate().
  const trace::Trace sparse = recorded_trace();
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("GD*(1)");
  const SimulatorOptions options;
  expect_identical(simulate(sparse, capacity, spec, options),
                   simulate_sharded(sparse, capacity, spec, options,
                                    approx_config(4, 1)),
                   "single shard");
}

}  // namespace
}  // namespace webcache::sim
