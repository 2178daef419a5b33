// Trace-driven simulator of a single caching proxy (paper, Section 4.1).
//
// Faithful to the paper's methodology:
//  * the first warmup_fraction of the requests fill the cache and are
//    excluded from all statistics ("we use 10% of the total requests
//    recorded in a trace to fill the cache");
//  * per document, the size recorded in the trace is tracked across
//    successive requests: a change of less than modification_threshold is a
//    *document modification* and counts as a miss (the resident copy is
//    invalidated), a larger change is an *interrupted transfer* and leaves
//    the resident copy valid. The kAnyChange rule reproduces the treatment
//    of Jin & Bestavros instead (every size change is a modification) for
//    the ablation benchmark;
//  * hit rate and byte hit rate are accounted per document type.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "cache/factory.hpp"
#include "cache/frontend.hpp"
#include "obs/stats_sink.hpp"
#include "sim/metrics.hpp"
#include "trace/dense_trace.hpp"
#include "trace/request.hpp"

namespace webcache::sim {

enum class ModificationRule {
  /// < threshold relative size change => modification; >= => interruption.
  kThreshold,
  /// Any size change is a modification ([7], [8]'s treatment; ablation).
  kAnyChange,
  /// Size changes never invalidate (lower bound; ablation).
  kNever,
};

struct SimulatorOptions {
  double warmup_fraction = 0.10;
  ModificationRule modification_rule = ModificationRule::kThreshold;
  double modification_threshold = 0.05;
  /// Number of equally spaced occupancy snapshots to record (0 = none).
  std::uint32_t occupancy_samples = 0;

  /// Origin-fetch latency model used for the SimResult latency metrics
  /// (setup plus transfer at fixed bandwidth; matches LatencyCostModel's
  /// defaults). Accounting only — it never influences replacement.
  double latency_setup_ms = 150.0;
  double latency_bytes_per_ms = 400.0;
};

namespace detail {

/// Shared option validation for every replay entry point.
inline void validate_options(const SimulatorOptions& options) {
  if (options.warmup_fraction < 0.0 || options.warmup_fraction >= 1.0) {
    throw std::invalid_argument("simulate: warmup_fraction out of [0, 1)");
  }
  if (options.modification_threshold <= 0.0 ||
      options.modification_threshold >= 1.0) {
    throw std::invalid_argument(
        "simulate: modification_threshold out of (0, 1)");
  }
}

}  // namespace detail

struct FaultSchedule;  // sim/faults.hpp

/// Optional collaborators of one replay; both default to absent. The hooks
/// pick the replay loop once per run, so a run without hooks executes the
/// plain loop with no per-request branch on them.
struct ReplayHooks {
  /// Collects the windowed time series (obs/stats_sink.hpp). The sink only
  /// observes: the SimResult is bit-identical to an uninstrumented run. Its
  /// series() is valid after return; sinks are reusable (begin_run resets).
  obs::RecordingSink* sink = nullptr;
  /// Fault scenario (sim/faults.hpp). Node i is fault domain i of the
  /// frontend (CacheFrontend::fault_domains): one for a plain cache, one per
  /// document-class partition of a PartitionedCache. A crash drops the
  /// domain's contents; while it is down its requests are lost, since a
  /// single box has no failover path. Root and probe events are rejected
  /// (std::invalid_argument). An empty schedule gives the plain result, and
  /// lost requests are left out of the latency model.
  const FaultSchedule* faults = nullptr;
};

/// Drives any CacheFrontend (a composite cache such as
/// cache::PartitionedCache, or a SingleCacheFrontend over a plain Cache or a
/// caller-built policy like the clairvoyant OPT bound) over the trace. The
/// frontend arrives in whatever state the caller left it — pass a fresh one
/// for a cold-start experiment.
SimResult simulate(const trace::Trace& trace, cache::CacheFrontend& frontend,
                   const SimulatorOptions& options = {},
                   const ReplayHooks& hooks = {});

/// Runs one policy at one cache size over the trace. LRU-Threshold specs
/// additionally install their admission limit on the cache.
SimResult simulate(const trace::Trace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options = {},
                   const ReplayHooks& hooks = {});

/// Dense-id fast path: a trace run through trace::densify() carries the
/// document-count bound, so the frontend reserves the dense universe (the
/// object tables and policy indexes become flat arrays instead of hash
/// maps) and the last-size tracker becomes a flat vector. The frontend must
/// be empty (CacheFrontend::reserve_dense_ids throws std::logic_error
/// otherwise). Bit-identical SimResults to the sparse overloads (same hits,
/// same evictions, same tie-breaking) — only faster.
SimResult simulate(const trace::DenseTrace& trace,
                   cache::CacheFrontend& frontend,
                   const SimulatorOptions& options = {},
                   const ReplayHooks& hooks = {});

SimResult simulate(const trace::DenseTrace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options = {},
                   const ReplayHooks& hooks = {});

}  // namespace webcache::sim
