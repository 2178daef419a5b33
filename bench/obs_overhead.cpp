// Instrumentation overhead harness for the obs layer.
//
// The replay loops are templated on a StatsSink. A simulate() call without
// a ReplayHooks::sink instantiates the loop with obs::NullSink, whose
// hooks are empty inline functions — that instantiation *is* the pre-obs
// code path, so the NullSink build is structurally zero-cost and
// bit-identical by construction. What needs measuring is the RecordingSink
// instantiation: this harness replays a synthetic DFN workload through the
// four paper policies under both cost models, over both the map-backed and
// the dense-id paths, once uninstrumented and once with a RecordingSink
// attached, and reports the relative overhead per cell.
//
// Correctness cross-checks per cell (any failure exits 1):
//   * the instrumented SimResult must be bit-identical to the baseline;
//   * the sink's windowed series must sum back to the aggregate exactly
//     (measured requests/hits/bytes, whole-run evictions, bypasses).
// Overhead itself is reported, not gated — wall-clock noise on shared CI
// runners would make a hard threshold flaky; scripts/trend_throughput.py
// tracks regressions across runs instead.
//
// Output: a table on stdout plus machine-readable BENCH_obs_overhead.json
// (override with --json=<path>).
//
// Extra flags on top of the common bench set:
//   --reps=<n>       timed repetitions per cell, best-of-n (default 3)
//   --fraction=<f>   cache size as a fraction of overall trace size
//                    (default 0.04 — eviction-heavy, mid-ladder)
//   --window=<n>     sink window length in requests (default 10000)
//   --json=<path>    where to write the JSON report
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "common.hpp"
#include "obs/stats_sink.hpp"
#include "sim/simulator.hpp"
#include "trace/dense_trace.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace webcache;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

template <typename Run>
double timed(Run&& run) {
  const auto start = std::chrono::steady_clock::now();
  run();
  return seconds_since(start);
}

bool counters_equal(const sim::HitCounters& a, const sim::HitCounters& b) {
  return a.requests == b.requests && a.hits == b.hits &&
         a.requested_bytes == b.requested_bytes && a.hit_bytes == b.hit_bytes;
}

bool results_identical(const sim::SimResult& a, const sim::SimResult& b) {
  if (!counters_equal(a.overall, b.overall)) return false;
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    if (!counters_equal(a.per_class[c], b.per_class[c])) return false;
  }
  return a.evictions == b.evictions && a.bypasses == b.bypasses &&
         a.modification_misses == b.modification_misses &&
         a.interrupted_transfers == b.interrupted_transfers;
}

/// The windowed series must roll up to the aggregate exactly: request-side
/// counters over measured traffic, evictions over the whole run.
bool series_sums_back(const obs::MetricsSeries& series,
                      const sim::SimResult& result) {
  const obs::WindowCounters totals = series.totals();
  if (totals.requests != result.overall.requests ||
      totals.hits != result.overall.hits ||
      totals.requested_bytes != result.overall.requested_bytes ||
      totals.hit_bytes != result.overall.hit_bytes ||
      totals.evictions != result.evictions ||
      series.total_bypasses() != result.bypasses) {
    return false;
  }
  const auto per_class = series.class_totals();
  for (const auto cls : trace::kAllDocumentClasses) {
    const auto i = static_cast<std::size_t>(cls);
    const sim::HitCounters& agg = result.per_class[i];
    if (per_class[i].requests != agg.requests ||
        per_class[i].hits != agg.hits ||
        per_class[i].requested_bytes != agg.requested_bytes ||
        per_class[i].hit_bytes != agg.hit_bytes) {
      return false;
    }
  }
  return true;
}

struct OverheadCell {
  std::string policy;
  std::string cost_model;
  std::string path;  // "sparse" | "dense"
  double baseline_seconds = 0.0;
  double recording_seconds = 0.0;
  double overhead_pct = 0.0;
  std::uint64_t windows = 0;
  bool identical = false;
  bool sums_back = false;
};

std::string_view cost_model_name(cache::CostModelKind kind) {
  switch (kind) {
    case cache::CostModelKind::kConstant:
      return "constant";
    case cache::CostModelKind::kPacket:
      return "packet";
    case cache::CostModelKind::kLatency:
      return "latency";
  }
  return "?";
}

template <typename TraceT>
OverheadCell run_cell(const TraceT& trace, std::uint64_t capacity,
                      const cache::PolicySpec& spec,
                      const sim::SimulatorOptions& options, int reps,
                      std::uint64_t window, const std::string& path) {
  // Interleave the two variants (ABAB...) and keep the best repetition of
  // each: clock-speed drift between phases would otherwise masquerade as
  // instrumentation overhead. One untimed warm-up run primes the caches.
  sim::SimResult baseline_result;
  sim::SimResult recording_result;
  obs::RecordingSink sink(window);
  baseline_result = sim::simulate(trace, capacity, spec, options);
  double baseline = 0.0;
  double recording = 0.0;
  for (int i = 0; i < reps; ++i) {
    // ABBA ordering: alternate which variant goes first so short-term
    // drift cancels instead of consistently penalizing the second leg.
    double b = 0.0;
    double r = 0.0;
    const auto run_baseline = [&] {
      b = timed([&] {
        baseline_result = sim::simulate(trace, capacity, spec, options);
      });
    };
    const auto run_recording = [&] {
      r = timed([&] {
        recording_result =
            sim::simulate(trace, capacity, spec, options, {.sink = &sink});
      });
    };
    if (i % 2 == 0) {
      run_baseline();
      run_recording();
    } else {
      run_recording();
      run_baseline();
    }
    if (i == 0 || b < baseline) baseline = b;
    if (i == 0 || r < recording) recording = r;
  }

  OverheadCell cell;
  cell.policy = recording_result.policy_name;
  cell.cost_model = std::string(cost_model_name(spec.cost_model));
  cell.path = path;
  cell.baseline_seconds = baseline;
  cell.recording_seconds = recording;
  cell.overhead_pct = (recording / baseline - 1.0) * 100.0;
  cell.windows = sink.series().windows.size();
  cell.identical = results_identical(baseline_result, recording_result);
  cell.sums_back = series_sums_back(sink.series(), recording_result);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  const util::Args args(argc, argv);
  const int reps = std::max(1, static_cast<int>(args.get_uint("reps", 3)));
  const double fraction = args.get_double("fraction", 0.04);
  const std::uint64_t window = args.get_uint("window", 10000);
  const std::string json_path = args.get("json", "BENCH_obs_overhead.json");

  std::cout << "=== RecordingSink overhead vs uninstrumented replay (scale="
            << ctx.scale << ", fraction=" << fraction << ", window=" << window
            << ", reps=" << reps << ") ===\n\n";

  const sim::SimulatorOptions options = ctx.simulator_options();
  const trace::Trace trace = ctx.make_trace(synth::WorkloadProfile::DFN());
  const trace::DenseTrace dense = trace::densify(trace);
  const auto capacity = static_cast<std::uint64_t>(
      static_cast<double>(trace.overall_size_bytes()) * fraction);

  std::vector<cache::PolicySpec> specs =
      cache::paper_policy_set(cache::CostModelKind::kConstant);
  for (const cache::PolicySpec& spec :
       cache::paper_policy_set(cache::CostModelKind::kPacket)) {
    specs.push_back(spec);
  }

  std::vector<OverheadCell> cells;
  for (const cache::PolicySpec& spec : specs) {
    cells.push_back(
        run_cell(trace, capacity, spec, options, reps, window, "sparse"));
    cells.push_back(
        run_cell(dense, capacity, spec, options, reps, window, "dense"));
  }

  bool all_ok = true;
  double worst_overhead = 0.0;
  double log_ratio_sum = 0.0;
  util::Table table("RecordingSink overhead (" +
                    std::to_string(trace.requests.size()) + " requests)");
  table.set_header({"policy", "cost", "path", "baseline s", "recording s",
                    "overhead %", "identical", "sums back"});
  for (const OverheadCell& c : cells) {
    table.add_row({c.policy, c.cost_model, c.path,
                   util::fmt_fixed(c.baseline_seconds, 4),
                   util::fmt_fixed(c.recording_seconds, 4),
                   util::fmt_fixed(c.overhead_pct, 2),
                   c.identical ? "yes" : "NO", c.sums_back ? "yes" : "NO"});
    all_ok = all_ok && c.identical && c.sums_back;
    worst_overhead = std::max(worst_overhead, c.overhead_pct);
    log_ratio_sum += std::log(c.recording_seconds / c.baseline_seconds);
  }
  const double geomean_overhead =
      (std::exp(log_ratio_sum / static_cast<double>(cells.size())) - 1.0) *
      100.0;
  ctx.emit(table, "obs_overhead");
  std::cout << "\ngeomean overhead: " << util::fmt_fixed(geomean_overhead, 2)
            << "%, worst cell: " << util::fmt_fixed(worst_overhead, 2)
            << "% (NullSink is the uninstrumented instantiation: 0% by "
               "construction)\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"scale\": " << ctx.scale << ",\n"
       << "  \"seed\": " << ctx.seed << ",\n"
       << "  \"cache_fraction\": " << fraction << ",\n"
       << "  \"window_requests\": " << window << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"requests\": " << trace.requests.size() << ",\n"
       << "  \"null_sink_overhead_pct\": 0,\n"
       << "  \"geomean_overhead_pct\": " << geomean_overhead << ",\n"
       << "  \"worst_overhead_pct\": " << worst_overhead << ",\n"
       << "  \"all_identical\": " << (all_ok ? "true" : "false") << ",\n"
       << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const OverheadCell& c = cells[i];
    json << "    {\"policy\": \"" << c.policy << "\", \"cost_model\": \""
         << c.cost_model << "\", \"path\": \"" << c.path << "\", "
         << "\"baseline_seconds\": " << c.baseline_seconds << ", "
         << "\"recording_seconds\": " << c.recording_seconds << ", "
         << "\"overhead_pct\": " << c.overhead_pct << ", "
         << "\"windows\": " << c.windows << ", "
         << "\"identical\": " << (c.identical ? "true" : "false") << ", "
         << "\"sums_back\": " << (c.sums_back ? "true" : "false") << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "wrote " << json_path << "\n";

  if (!all_ok) {
    std::cerr << "error: instrumented replay diverged from the baseline\n";
    return 1;
  }
  return 0;
}
