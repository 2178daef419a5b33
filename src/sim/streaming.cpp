#include "sim/streaming.hpp"

#include <stdexcept>

#include "sim/last_size.hpp"
#include "sim/replay_core.hpp"

namespace webcache::sim {

namespace {

using detail::validate_options;

template <typename Core>
SimResult drain(trace::RequestStream& stream, Core& core) {
  for (auto chunk = stream.next_chunk(); !chunk.empty();
       chunk = stream.next_chunk()) {
    for (const trace::Request& r : chunk) core.step(r);
  }
  return core.finish();
}

template <typename Core>
SimResult drain_densified(trace::RequestStream& stream, Core& core,
                          trace::OnlineDensifier& densifier) {
  for (auto chunk = stream.next_chunk(); !chunk.empty();
       chunk = stream.next_chunk()) {
    for (const trace::Request& r : chunk) {
      trace::Request dense = r;
      dense.document = densifier.densify(r.document);
      core.step(dense);
    }
  }
  return core.finish();
}

}  // namespace

SimResult simulate_stream(trace::RequestStream& stream,
                          cache::CacheFrontend& frontend,
                          const SimulatorOptions& options) {
  validate_options(options);
  detail::SparseLastSize last_size(
      detail::stream_reserve_hint(stream.total_requests()));
  obs::NullSink sink;
  detail::ReplayCore<detail::SparseLastSize, obs::NullSink> core(
      frontend, options, last_size, sink, stream.total_requests());
  return drain(stream, core);
}

SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options) {
  cache::SingleCacheFrontend frontend(capacity_bytes,
                                      cache::make_policy(policy),
                                      cache::admission_limit_of(policy));
  return simulate_stream(stream, frontend, options);
}

SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options,
                          obs::RecordingSink& sink) {
  cache::SingleCacheFrontend frontend(capacity_bytes,
                                      cache::make_policy(policy),
                                      cache::admission_limit_of(policy));
  return simulate_stream(stream, frontend, options, sink);
}

SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options,
                          const FaultSchedule& faults) {
  cache::SingleCacheFrontend frontend(capacity_bytes,
                                      cache::make_policy(policy),
                                      cache::admission_limit_of(policy));
  return simulate_stream(stream, frontend, options, faults);
}

SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options,
                          const FaultSchedule& faults,
                          obs::RecordingSink& sink) {
  cache::SingleCacheFrontend frontend(capacity_bytes,
                                      cache::make_policy(policy),
                                      cache::admission_limit_of(policy));
  return simulate_stream(stream, frontend, options, faults, sink);
}

SimResult simulate_stream(trace::RequestStream& stream,
                          cache::CacheFrontend& frontend,
                          const SimulatorOptions& options,
                          obs::RecordingSink& sink) {
  validate_options(options);
  detail::SparseLastSize last_size(
      detail::stream_reserve_hint(stream.total_requests()));
  sink.begin_run(frontend);
  detail::ReplayCore<detail::SparseLastSize, obs::RecordingSink> core(
      frontend, options, last_size, sink, stream.total_requests());
  SimResult result = drain(stream, core);
  sink.end_run();
  return result;
}

SimResult simulate_stream(trace::RequestStream& stream,
                          cache::CacheFrontend& frontend,
                          const SimulatorOptions& options,
                          const FaultSchedule& faults) {
  validate_options(options);
  FaultRun run(faults, frontend.fault_domains(), /*has_root=*/false);
  detail::SparseLastSize last_size(
      detail::stream_reserve_hint(stream.total_requests()));
  obs::NullSink sink;
  detail::ReplayCore<detail::SparseLastSize, obs::NullSink, FaultRun> core(
      frontend, options, last_size, sink, stream.total_requests(), &run);
  return drain(stream, core);
}

SimResult simulate_stream(trace::RequestStream& stream,
                          cache::CacheFrontend& frontend,
                          const SimulatorOptions& options,
                          const FaultSchedule& faults,
                          obs::RecordingSink& sink) {
  validate_options(options);
  FaultRun run(faults, frontend.fault_domains(), /*has_root=*/false);
  detail::SparseLastSize last_size(
      detail::stream_reserve_hint(stream.total_requests()));
  sink.begin_run(frontend);
  detail::ReplayCore<detail::SparseLastSize, obs::RecordingSink, FaultRun>
      core(frontend, options, last_size, sink, stream.total_requests(), &run);
  SimResult result = drain(stream, core);
  sink.end_run();
  return result;
}

SimResult simulate_stream_densified(
    trace::RequestStream& stream, cache::CacheFrontend& frontend,
    const SimulatorOptions& options,
    trace::OnlineDensifier::Options densify_options) {
  validate_options(options);
  trace::OnlineDensifier densifier(densify_options);
  frontend.reserve_dense_ids(0);  // grows with the first-appearance ids
  detail::GrowingDenseLastSize last_size;
  obs::NullSink sink;
  detail::ReplayCore<detail::GrowingDenseLastSize, obs::NullSink> core(
      frontend, options, last_size, sink, stream.total_requests());
  return drain_densified(stream, core, densifier);
}

SimResult simulate_stream_densified(
    trace::RequestStream& stream, cache::CacheFrontend& frontend,
    const SimulatorOptions& options, obs::RecordingSink& sink,
    trace::OnlineDensifier::Options densify_options) {
  validate_options(options);
  trace::OnlineDensifier densifier(densify_options);
  frontend.reserve_dense_ids(0);  // grows with the first-appearance ids
  detail::GrowingDenseLastSize last_size;
  sink.begin_run(frontend);
  detail::ReplayCore<detail::GrowingDenseLastSize, obs::RecordingSink> core(
      frontend, options, last_size, sink, stream.total_requests());
  SimResult result = drain_densified(stream, core, densifier);
  sink.end_run();
  return result;
}

SimResult simulate_stream_densified(
    trace::RequestStream& stream, std::uint64_t capacity_bytes,
    const cache::PolicySpec& policy, const SimulatorOptions& options,
    trace::OnlineDensifier::Options densify_options) {
  cache::SingleCacheFrontend frontend(capacity_bytes,
                                      cache::make_policy(policy),
                                      cache::admission_limit_of(policy));
  return simulate_stream_densified(stream, frontend, options,
                                   densify_options);
}

SimResult simulate_stream_densified(
    trace::RequestStream& stream, std::uint64_t capacity_bytes,
    const cache::PolicySpec& policy, const SimulatorOptions& options,
    obs::RecordingSink& sink, trace::OnlineDensifier::Options densify_options) {
  cache::SingleCacheFrontend frontend(capacity_bytes,
                                      cache::make_policy(policy),
                                      cache::admission_limit_of(policy));
  return simulate_stream_densified(stream, frontend, options, sink,
                                   densify_options);
}

}  // namespace webcache::sim
