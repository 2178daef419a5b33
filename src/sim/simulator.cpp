#include "sim/simulator.hpp"

#include "sim/last_size.hpp"
#include "sim/replay_core.hpp"

namespace webcache::sim {

namespace {

using detail::validate_options;

// Templated on the sink and the fault handling so the NullSink /
// NoFaultReplay instantiation *is* the pre-obs, pre-fault loop: the empty
// inline hooks compile away and results stay bit-identical
// (tests/obs/obs_equivalence_test.cpp; bench/obs_overhead measures it).
// The per-request body lives in detail::ReplayCore, shared with the stream
// engine (checkpoint.cpp).
template <typename LastSize, obs::StatsSink Sink, typename Faults>
SimResult replay(const trace::Trace& trace, cache::CacheFrontend& frontend,
                 const SimulatorOptions& options, LastSize& last_size,
                 Sink& sink, Faults& faults) {
  detail::ReplayCore<LastSize, Sink, Faults> core(
      frontend, options, last_size, sink, trace.requests.size(), faults);
  for (const trace::Request& r : trace.requests) core.step(r);
  return core.finish();
}

}  // namespace

SimResult simulate(const trace::Trace& trace, cache::CacheFrontend& frontend,
                   const SimulatorOptions& options, const ReplayHooks& hooks) {
  validate_options(options);
  return detail::with_hooks(
      hooks, frontend.fault_domains(), /*has_root=*/false,
      [&](auto& sink, auto& faults) {
        detail::SparseLastSize last_size(trace.requests.size());
        return replay(trace, frontend, options, last_size, sink, faults);
      });
}

SimResult simulate(const trace::DenseTrace& trace,
                   cache::CacheFrontend& frontend,
                   const SimulatorOptions& options, const ReplayHooks& hooks) {
  validate_options(options);
  return detail::with_hooks(
      hooks, frontend.fault_domains(), /*has_root=*/false,
      [&](auto& sink, auto& faults) {
        frontend.reserve_dense_ids(trace.document_count());
        detail::DenseLastSize last_size(trace.document_count());
        return replay(trace.trace, frontend, options, last_size, sink,
                      faults);
      });
}

SimResult simulate(const trace::Trace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options, const ReplayHooks& hooks) {
  cache::SingleCacheFrontend frontend(capacity_bytes,
                                      cache::make_policy(policy),
                                      cache::admission_limit_of(policy));
  return simulate(trace, frontend, options, hooks);
}

SimResult simulate(const trace::DenseTrace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options, const ReplayHooks& hooks) {
  cache::SingleCacheFrontend frontend(capacity_bytes,
                                      cache::make_policy(policy),
                                      cache::admission_limit_of(policy));
  return simulate(trace, frontend, options, hooks);
}

}  // namespace webcache::sim
