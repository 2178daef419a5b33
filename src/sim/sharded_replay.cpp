#include "sim/sharded_replay.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cache/frontend.hpp"
#include "sim/faults.hpp"  // detail::mix64
#include "sim/last_size.hpp"
#include "util/parallel.hpp"

namespace webcache::sim {

namespace {

using detail::SizeChange;
using detail::classify_size_change;

std::uint32_t shard_of(std::uint64_t key, std::uint32_t shards) {
  return static_cast<std::uint32_t>(detail::mix64(key) % shards);
}

// One request as its shard sees it: the trace index keeps the global order
// recoverable, so rebalance epochs cut every queue at the same request.
struct ShardEntry {
  std::uint64_t size = 0;   // transfer size
  std::uint64_t index = 0;  // 0-based global request index
  std::uint32_t doc = 0;    // shard-local dense document id
  trace::DocumentClass cls = trace::DocumentClass::kOther;
};

struct ShardQueues {
  std::vector<std::vector<ShardEntry>> queues;
  std::vector<std::uint32_t> documents;  // distinct documents per shard
};

// Carves the per-shard request queues in one partitioning pass. Placement
// hashes the pre-densification id, so the renumbering densify() chose
// cannot move a document to another shard. Each shard renumbers its own
// documents from 0, so its tables cover only the documents it sees.
ShardQueues carve_queues(const trace::DenseTrace& trace, std::uint32_t shards) {
  constexpr std::uint32_t kUnplaced = 0xffffffffu;
  std::vector<std::uint32_t> local(trace.document_count(), kUnplaced);
  ShardQueues out;
  out.queues.resize(shards);
  out.documents.assign(shards, 0);
  std::vector<std::uint64_t> counts(shards, 0);
  for (const trace::Request& r : trace.trace.requests) {
    const std::uint32_t s = shard_of(trace.original_id(r.document), shards);
    ++counts[s];
    std::uint32_t& id = local[static_cast<std::size_t>(r.document)];
    if (id == kUnplaced) id = out.documents[s]++;
  }
  for (std::uint32_t s = 0; s < shards; ++s) {
    out.queues[s].reserve(static_cast<std::size_t>(counts[s]));
  }
  std::uint64_t index = 0;
  for (const trace::Request& r : trace.trace.requests) {
    const std::uint32_t s = shard_of(trace.original_id(r.document), shards);
    const std::uint32_t doc = local[static_cast<std::size_t>(r.document)];
    out.queues[s].push_back(
        ShardEntry{r.transfer_size, index, doc, r.doc_class});
    ++index;
  }
  return out;
}

// Splits `capacity` proportionally to `weights` (128-bit exact floor, the
// remainder distributed one byte at a time over the non-zero-weight shards
// in index order — deterministic, and off by at most shards-1 before the
// remainder pass). All weights zero gives everything to shard 0.
std::vector<std::uint64_t> proportional_quotas(
    std::uint64_t capacity, const std::vector<std::uint64_t>& weights) {
  std::vector<std::uint64_t> quotas(weights.size(), 0);
  unsigned __int128 total = 0;
  for (const std::uint64_t w : weights) total += w;
  if (total == 0) {
    quotas[0] = capacity;
    return quotas;
  }
  std::uint64_t assigned = 0;
  for (std::size_t s = 0; s < weights.size(); ++s) {
    quotas[s] = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(capacity) * weights[s] / total);
    assigned += quotas[s];
  }
  std::uint64_t rest = capacity - assigned;
  for (std::size_t s = 0; rest > 0; s = (s + 1) % weights.size()) {
    if (weights[s] == 0) continue;
    ++quotas[s];
    --rest;
  }
  return quotas;
}

// One shard's integer counters.
struct ShardTotals {
  std::array<HitCounters, trace::kDocumentClassCount> per_class{};
  std::uint64_t bypasses = 0;
  std::uint64_t modification_misses = 0;
  std::uint64_t interrupted_transfers = 0;
};

struct ShardState {
  std::unique_ptr<cache::SingleCacheFrontend> frontend;
  detail::DenseLastSize last_size{0};
  std::size_t cursor = 0;           // next unprocessed queue position
  std::uint64_t demand_bytes = 0;   // cumulative requested bytes processed
  ShardTotals totals;
  double miss_latency_ms = 0.0;
  double all_miss_latency_ms = 0.0;
};

}  // namespace

SimResult simulate_sharded(const trace::DenseTrace& trace,
                           std::uint64_t capacity_bytes,
                           const cache::PolicySpec& policy,
                           const SimulatorOptions& options,
                           const ShardedConfig& config) {
  detail::validate_options(options);
  if (options.occupancy_samples != 0) {
    throw std::invalid_argument(
        "simulate_sharded: occupancy sampling is not supported "
        "(occupancy_samples must be 0)");
  }
  const std::uint32_t shards =
      config.shards != 0 ? config.shards : kDefaultShards;
  // One shard gets the whole budget and replays the whole trace in order:
  // the approximation vanishes, so run the serial replay itself.
  if (shards <= 1) return simulate(trace, capacity_bytes, policy, options);
  const std::uint32_t threads = util::resolve_threads(config.threads);

  const std::uint64_t total = trace.trace.requests.size();
  const auto warmup = static_cast<std::uint64_t>(
      std::floor(static_cast<double>(total) * options.warmup_fraction));

  const ShardQueues carved = carve_queues(trace, shards);
  const std::vector<std::vector<ShardEntry>>& queues = carved.queues;

  // Static quotas follow the full-trace demand; with rebalancing they
  // follow the demand seen so far, re-split at every epoch boundary.
  std::vector<std::uint64_t> demand(shards, 0);
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (const ShardEntry& e : queues[s]) demand[s] += e.size;
  }
  const std::vector<std::uint64_t> initial_quotas = proportional_quotas(
      capacity_bytes, config.rebalance_interval > 0
                          ? std::vector<std::uint64_t>(shards, 1)
                          : demand);

  const std::uint64_t admission_limit = cache::admission_limit_of(policy);
  std::vector<ShardState> states(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    states[s].frontend = std::make_unique<cache::SingleCacheFrontend>(
        initial_quotas[s], cache::make_policy(policy), admission_limit);
    states[s].frontend->reserve_dense_ids(carved.documents[s]);
    states[s].last_size = detail::DenseLastSize(carved.documents[s]);
  }

  // Replays one shard's queue up to (not including) global request index
  // `end`. Writes only shard-local state.
  auto process = [&](std::size_t s, std::uint64_t end) {
    ShardState& st = states[s];
    const std::vector<ShardEntry>& queue = queues[s];
    while (st.cursor < queue.size() && queue[st.cursor].index < end) {
      const ShardEntry& e = queue[st.cursor];
      ++st.cursor;
      st.demand_bytes += e.size;
      SizeChange change;
      if (std::uint64_t* previous = st.last_size.lookup(e.doc, e.size)) {
        change = classify_size_change(*previous, e.size, options);
        *previous = e.size;
      }
      const auto outcome =
          st.frontend->access(e.doc, e.size, e.cls, change.modified);
      if (e.index + 1 > warmup) {
        HitCounters& cls = st.totals.per_class[static_cast<std::size_t>(e.cls)];
        cls.requests += 1;
        cls.requested_bytes += e.size;
        const double fetch_latency =
            options.latency_setup_ms +
            static_cast<double>(e.size) / options.latency_bytes_per_ms;
        st.all_miss_latency_ms += fetch_latency;
        switch (outcome.kind) {
          case cache::Cache::AccessKind::kHit:
            cls.hits += 1;
            cls.hit_bytes += e.size;
            break;
          case cache::Cache::AccessKind::kBypass:
            st.totals.bypasses += 1;
            st.miss_latency_ms += fetch_latency;
            break;
          case cache::Cache::AccessKind::kMiss:
            st.miss_latency_ms += fetch_latency;
            break;
        }
        if (change.modified && outcome.was_resident) {
          st.totals.modification_misses += 1;
        }
        if (change.interrupted) st.totals.interrupted_transfers += 1;
      }
    }
  };

  if (config.rebalance_interval == 0) {
    util::parallel_for(shards, threads, [&](std::size_t s) {
      process(s, total);
    });
  } else {
    for (std::uint64_t start = 0; start < total;
         start += config.rebalance_interval) {
      const std::uint64_t end =
          std::min(total, start + config.rebalance_interval);
      util::parallel_for(shards, threads,
                         [&](std::size_t s) { process(s, end); });
      if (end == total) break;
      // Serial barrier: re-split the budget over the demand observed so
      // far; shrunk shards evict down (counted as ordinary evictions).
      std::vector<std::uint64_t> seen(shards, 0);
      for (std::uint32_t s = 0; s < shards; ++s) {
        seen[s] = states[s].demand_bytes;
      }
      const std::vector<std::uint64_t> quotas =
          proportional_quotas(capacity_bytes, seen);
      for (std::uint32_t s = 0; s < shards; ++s) {
        states[s].frontend->cache().resize(quotas[s]);
      }
    }
  }

  SimResult result;
  result.policy_name = cache::make_policy(policy)->name();
  result.capacity_bytes = capacity_bytes;
  result.warmup_requests = warmup;
  result.measured_requests = total - warmup;
  for (const ShardState& st : states) {
    result.evictions += st.frontend->eviction_count();
    for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
      result.per_class[c].merge(st.totals.per_class[c]);
    }
    result.bypasses += st.totals.bypasses;
    result.modification_misses += st.totals.modification_misses;
    result.interrupted_transfers += st.totals.interrupted_transfers;
    // Shard-index order keeps the FP sums deterministic (and therefore
    // thread-count invariant); they are NOT the serial trace-order sums.
    result.miss_latency_ms += st.miss_latency_ms;
    result.all_miss_latency_ms += st.all_miss_latency_ms;
  }
  for (const HitCounters& c : result.per_class) result.overall.merge(c);
  return result;
}

}  // namespace webcache::sim
