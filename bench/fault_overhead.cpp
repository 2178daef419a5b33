// Fault-layer overhead harness.
//
// The hierarchy and partitioned replay loops are templated on a fault
// policy: a run without a ReplayHooks::faults schedule instantiates them
// with sim::detail::NoFaultReplay, whose predicates are constexpr and
// compile away — that instantiation *is* the pre-fault code path, so the
// no-faults build is structurally zero-cost and bit-identical by
// construction. What needs measuring is the FaultRun
// instantiation: the per-request schedule advance and node-state checks
// that every request pays once a schedule object is passed, even an empty
// one. This harness replays a synthetic DFN workload through the 3-edge
// sibling mesh, sparse and dense, and times three variants per cell:
//
//   plain      simulate_hierarchy(trace, config)          — NoFaultReplay
//   empty      simulate_hierarchy(trace, config,
//                                 {.faults = &empty})         — FaultRun,
//              no events: the steady-state cost of the fault machinery
//   faulted    a crash/outage/recovery scenario actually firing
//
// Correctness cross-checks per cell (any failure exits 1):
//   * the empty-schedule result must be bit-identical to the plain one;
//   * the faulted run must conserve the stream
//     (hits + lost <= offered requests).
// Overhead is reported, not gated — wall-clock noise on shared CI runners
// would make a hard threshold flaky.
//
// Output: a table on stdout plus machine-readable BENCH_fault_overhead.json
// (override with --json=<path>).
//
// Extra flags on top of the common bench set:
//   --reps=<n>   timed repetitions per cell, best-of-n (default 3)
//   --json=<path>  where to write the JSON report
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
#include "sim/faults.hpp"
#include "sim/hierarchy.hpp"
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

bool results_identical(const sim::HierarchyResult& a,
                       const sim::HierarchyResult& b) {
  if (!counters_equal(a.offered, b.offered) ||
      !counters_equal(a.edge_hits, b.edge_hits) ||
      !counters_equal(a.sibling_hits, b.sibling_hits) ||
      !counters_equal(a.root_hits, b.root_hits)) {
    return false;
  }
  for (std::size_t c = 0; c < a.edge_per_class.size(); ++c) {
    if (!counters_equal(a.edge_per_class[c], b.edge_per_class[c]) ||
        !counters_equal(a.root_per_class[c], b.root_per_class[c])) {
      return false;
    }
  }
  return a.root_requests == b.root_requests &&
         a.edge_evictions == b.edge_evictions &&
         a.root_evictions == b.root_evictions;
}

struct OverheadCell {
  std::string policy;
  std::string path;  // "sparse" | "dense"
  double plain_seconds = 0.0;
  double empty_seconds = 0.0;
  double faulted_seconds = 0.0;
  double empty_overhead_pct = 0.0;
  double faulted_overhead_pct = 0.0;
  bool identical = false;
  bool conserved = false;
};

/// A scenario that keeps the fault machinery busy without dominating the
/// replay: an edge crash + recovery, a root outage, and a degraded probe
/// window, spread across the middle of the trace.
sim::FaultSchedule busy_schedule(std::uint64_t total_requests) {
  sim::FaultSchedule s;
  const std::uint64_t step = std::max<std::uint64_t>(1, total_requests / 10);
  s.events.push_back({2 * step, sim::FaultKind::kEdgeCrash, 0});
  s.events.push_back({4 * step, sim::FaultKind::kEdgeRecover, 0});
  s.events.push_back({5 * step, sim::FaultKind::kProbeDegrade, 1});
  s.events.push_back({6 * step, sim::FaultKind::kProbeRestore, 1});
  s.events.push_back({6 * step, sim::FaultKind::kRootOutage, 0});
  s.events.push_back({8 * step, sim::FaultKind::kRootRecover, 0});
  s.probe_timeout_rate = 0.5;
  return s;
}

template <typename TraceT>
OverheadCell run_cell(const TraceT& trace, const sim::HierarchyConfig& config,
                      const sim::FaultSchedule& scenario,
                      const std::string& policy, int reps,
                      const std::string& path) {
  const sim::FaultSchedule empty;
  sim::HierarchyResult plain_result;
  sim::HierarchyResult empty_result;
  sim::HierarchyResult faulted_result;
  plain_result = sim::simulate_hierarchy(trace, config);  // untimed warm-up

  double plain = 0.0;
  double empty_s = 0.0;
  double faulted = 0.0;
  for (int i = 0; i < reps; ++i) {
    // Rotate the order so clock drift cancels instead of consistently
    // penalizing the later legs.
    double a = 0.0, b = 0.0, c = 0.0;
    const auto run_plain = [&] {
      a = timed([&] { plain_result = sim::simulate_hierarchy(trace, config); });
    };
    const auto run_empty = [&] {
      b = timed([&] {
        empty_result =
            sim::simulate_hierarchy(trace, config, {.faults = &empty});
      });
    };
    const auto run_faulted = [&] {
      c = timed([&] {
        faulted_result =
            sim::simulate_hierarchy(trace, config, {.faults = &scenario});
      });
    };
    switch (i % 3) {
      case 0: run_plain(); run_empty(); run_faulted(); break;
      case 1: run_empty(); run_faulted(); run_plain(); break;
      default: run_faulted(); run_plain(); run_empty(); break;
    }
    if (i == 0 || a < plain) plain = a;
    if (i == 0 || b < empty_s) empty_s = b;
    if (i == 0 || c < faulted) faulted = c;
  }

  OverheadCell cell;
  cell.policy = policy;
  cell.path = path;
  cell.plain_seconds = plain;
  cell.empty_seconds = empty_s;
  cell.faulted_seconds = faulted;
  cell.empty_overhead_pct = (empty_s / plain - 1.0) * 100.0;
  cell.faulted_overhead_pct = (faulted / plain - 1.0) * 100.0;
  cell.identical = results_identical(plain_result, empty_result);
  cell.conserved =
      faulted_result.offered.hits + faulted_result.faults.lost_requests <=
      faulted_result.offered.requests;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  const util::Args args(argc, argv);
  const int reps = std::max(1, static_cast<int>(args.get_uint("reps", 3)));
  const std::string json_path = args.get("json", "BENCH_fault_overhead.json");

  std::cout << "=== Fault-layer overhead vs plain hierarchy replay (scale="
            << ctx.scale << ", reps=" << reps << ") ===\n\n";

  const trace::Trace trace = ctx.make_trace(synth::WorkloadProfile::DFN());
  const trace::DenseTrace dense = trace::densify(trace);
  const sim::FaultSchedule scenario = busy_schedule(trace.total_requests());

  std::vector<OverheadCell> cells;
  for (const std::string& policy : {"LRU", "GD*(1)"}) {
    sim::HierarchyConfig config;
    config.edge_count = 3;
    config.edge_capacity_bytes = trace.overall_size_bytes() / 150;
    config.edge_policy = cache::policy_spec_from_name(policy);
    config.root_capacity_bytes = trace.overall_size_bytes() / 12;
    config.root_policy = cache::policy_spec_from_name(policy);
    config.sibling_cooperation = true;
    config.simulator = ctx.simulator_options();
    cells.push_back(
        run_cell(trace, config, scenario, policy, reps, "sparse"));
    cells.push_back(run_cell(dense, config, scenario, policy, reps, "dense"));
  }

  bool all_ok = true;
  double worst_empty = 0.0;
  double log_ratio_sum = 0.0;
  util::Table table("Fault-layer overhead (" +
                    std::to_string(trace.requests.size()) + " requests, "
                    "3-edge mesh)");
  table.set_header({"policy", "path", "plain s", "empty-faults s",
                    "faulted s", "empty %", "faulted %", "identical",
                    "conserved"});
  for (const OverheadCell& c : cells) {
    table.add_row({c.policy, c.path, util::fmt_fixed(c.plain_seconds, 4),
                   util::fmt_fixed(c.empty_seconds, 4),
                   util::fmt_fixed(c.faulted_seconds, 4),
                   util::fmt_fixed(c.empty_overhead_pct, 2),
                   util::fmt_fixed(c.faulted_overhead_pct, 2),
                   c.identical ? "yes" : "NO", c.conserved ? "yes" : "NO"});
    all_ok = all_ok && c.identical && c.conserved;
    worst_empty = std::max(worst_empty, c.empty_overhead_pct);
    log_ratio_sum += std::log(c.empty_seconds / c.plain_seconds);
  }
  const double geomean_empty =
      (std::exp(log_ratio_sum / static_cast<double>(cells.size())) - 1.0) *
      100.0;
  ctx.emit(table, "fault_overhead");
  std::cout << "\ngeomean empty-schedule overhead: "
            << util::fmt_fixed(geomean_empty, 2) << "%, worst cell: "
            << util::fmt_fixed(worst_empty, 2)
            << "% (NoFaultReplay is the plain instantiation: 0% by construction)\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"scale\": " << ctx.scale << ",\n"
       << "  \"seed\": " << ctx.seed << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"requests\": " << trace.requests.size() << ",\n"
       << "  \"geomean_empty_overhead_pct\": " << geomean_empty << ",\n"
       << "  \"worst_empty_overhead_pct\": " << worst_empty << ",\n"
       << "  \"all_identical\": " << (all_ok ? "true" : "false") << ",\n"
       << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const OverheadCell& c = cells[i];
    json << "    {\"policy\": \"" << c.policy << "\", \"path\": \"" << c.path
         << "\", \"plain_seconds\": " << c.plain_seconds
         << ", \"empty_seconds\": " << c.empty_seconds
         << ", \"faulted_seconds\": " << c.faulted_seconds
         << ", \"empty_overhead_pct\": " << c.empty_overhead_pct
         << ", \"faulted_overhead_pct\": " << c.faulted_overhead_pct
         << ", \"identical\": " << (c.identical ? "true" : "false")
         << ", \"conserved\": " << (c.conserved ? "true" : "false") << "}"
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
    std::cerr << "error: the fault-aware replay diverged from the baseline\n";
    return 1;
  }
  return 0;
}
