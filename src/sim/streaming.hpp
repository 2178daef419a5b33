// Densified streamed replay of one policy: shorthands over the stream
// engine, simulate_stream_checkpointed() (sim/checkpoint.hpp), with
// checkpoints off. Document ids are renumbered online through a bounded
// trace::OnlineDensifier in front of the cache, giving streamed replays the
// dense-id fast path without the full-trace densify() pass; the SimResult
// is bit-identical to simulate() on the materialized trace
// (tests/sim/streaming_equivalence_test.cpp). Every other streamed replay
// (sparse ids, a caller-built frontend, fault schedules, checkpoints)
// calls the engine with a StreamCheckpointJob.
#pragma once

#include <cstdint>

#include "cache/factory.hpp"
#include "obs/stats_sink.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "trace/online_densify.hpp"
#include "trace/request_stream.hpp"

namespace webcache::sim {

/// Streams the requests through a SingleCacheFrontend built from the spec
/// (LRU-Threshold specs install their admission limit), on densified ids.
inline SimResult simulate_stream_densified(
    trace::RequestStream& stream, std::uint64_t capacity_bytes,
    const cache::PolicySpec& policy, const SimulatorOptions& options = {},
    trace::OnlineDensifier::Options densify_options = {}) {
  const StreamCheckpointJob job{
      {}, options, {}, /*densified=*/true, densify_options};
  return simulate_stream_checkpointed(stream, capacity_bytes, policy, job)
      .result;
}

/// Same, with a RecordingSink collecting the windowed series a
/// materialized instrumented simulate() would.
inline SimResult simulate_stream_densified(
    trace::RequestStream& stream, std::uint64_t capacity_bytes,
    const cache::PolicySpec& policy, const SimulatorOptions& options,
    obs::RecordingSink& sink,
    trace::OnlineDensifier::Options densify_options = {}) {
  const StreamCheckpointJob job{
      {.sink = &sink}, options, {}, /*densified=*/true, densify_options};
  return simulate_stream_checkpointed(stream, capacity_bytes, policy, job)
      .result;
}

}  // namespace webcache::sim
