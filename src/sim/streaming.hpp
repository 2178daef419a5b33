// Bounded-memory replay over a RequestStream.
//
// simulate_stream() drives the same per-request core as simulate()
// (sim/replay_core.hpp) chunk by chunk, so its SimResult is bit-identical
// to materializing the stream into a Trace and calling simulate() — at
// O(chunk + cache-state) memory instead of O(trace). Warm-up boundaries,
// metrics windows and fault schedules all key off the global request index,
// so they behave identically when they straddle chunk boundaries
// (tests/sim/streaming_equivalence_test.cpp pins all of it).
//
// The densified variants run the online bounded renumbering
// (trace::OnlineDensifier) in front of the cache, giving streamed replays
// the dense-id fast path without the full-trace densify() pass.
#pragma once

#include <cstdint>

#include "cache/factory.hpp"
#include "cache/frontend.hpp"
#include "obs/stats_sink.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "trace/online_densify.hpp"
#include "trace/request_stream.hpp"

namespace webcache::sim {

/// Streams the requests through the frontend; the stream is consumed (call
/// stream.reset() to replay it again).
SimResult simulate_stream(trace::RequestStream& stream,
                          cache::CacheFrontend& frontend,
                          const SimulatorOptions& options = {});

/// Convenience form mirroring simulate(trace, capacity, policy): builds a
/// SingleCacheFrontend (LRU-Threshold specs install their admission limit).
SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options = {});

SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options,
                          obs::RecordingSink& sink);

SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options,
                          const FaultSchedule& faults);

SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options,
                          const FaultSchedule& faults,
                          obs::RecordingSink& sink);

/// Instrumented run: the RecordingSink collects the same windowed series a
/// materialized instrumented simulate() would.
SimResult simulate_stream(trace::RequestStream& stream,
                          cache::CacheFrontend& frontend,
                          const SimulatorOptions& options,
                          obs::RecordingSink& sink);

/// Fault-aware run: events key off the global 1-based request index, so a
/// schedule is applied identically however the stream is chunked.
SimResult simulate_stream(trace::RequestStream& stream,
                          cache::CacheFrontend& frontend,
                          const SimulatorOptions& options,
                          const FaultSchedule& faults);

SimResult simulate_stream(trace::RequestStream& stream,
                          cache::CacheFrontend& frontend,
                          const SimulatorOptions& options,
                          const FaultSchedule& faults,
                          obs::RecordingSink& sink);

/// Dense fast path for streams: document ids are renumbered online through
/// a bounded OnlineDensifier before they reach the frontend, which is
/// switched to its dense mode with no universe (frontend.reserve_dense_ids
/// (0): the flat indexes grow as new ids appear, so the frontend must be
/// empty), and the last-size tracker is a flat growing vector. Bit-identical to the sparse
/// simulate_stream (document identity is only compared for equality; ties
/// break by insertion sequence — the same invariance the materialized dense
/// path relies on).
SimResult simulate_stream_densified(
    trace::RequestStream& stream, cache::CacheFrontend& frontend,
    const SimulatorOptions& options = {},
    trace::OnlineDensifier::Options densify_options = {});

SimResult simulate_stream_densified(
    trace::RequestStream& stream, cache::CacheFrontend& frontend,
    const SimulatorOptions& options, obs::RecordingSink& sink,
    trace::OnlineDensifier::Options densify_options = {});

/// PolicySpec-taking densified forms.
SimResult simulate_stream_densified(
    trace::RequestStream& stream, std::uint64_t capacity_bytes,
    const cache::PolicySpec& policy, const SimulatorOptions& options = {},
    trace::OnlineDensifier::Options densify_options = {});

SimResult simulate_stream_densified(
    trace::RequestStream& stream, std::uint64_t capacity_bytes,
    const cache::PolicySpec& policy, const SimulatorOptions& options,
    obs::RecordingSink& sink,
    trace::OnlineDensifier::Options densify_options = {});

}  // namespace webcache::sim
