// layer_trace — the benchmark's traced, in-process run.
//
// Replays one workload's trace through a fixed suite of probes, each a call
// into one layer's public function, and records a span around every call.
// Spans (name, start, end, parent, workload, run id) stay in memory and are
// written to --spans-out at exit; per-layer metrics, exact counters and the
// result of every cross-check go to stdout as one JSON object on the last
// line. The tracing lives here, never inside src/.
//
//   layer_trace --trace=FILE --workload=NAME --run-id=ID --spans-out=FILE
//       --checkpoint-dir=DIR --fractions=F1,... --threads=N
//       --checkpoint-every=N [--seconds=S]
//
// The probe suite repeats while --seconds allows (at least kMinPasses
// times); timing metrics are the median over passes, counters must repeat
// exactly. The seconds-long sweep probes run in the first pass only.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/factory.hpp"
#include "obs/stats_sink.hpp"
#include "sim/checkpoint.hpp"
#include "sim/reporter.hpp"
#include "sim/simulator.hpp"
#include "sim/stack_sweep.hpp"
#include "sim/streaming.hpp"
#include "sim/sweep.hpp"
#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"
#include "trace/online_densify.hpp"
#include "trace/streaming_trace.hpp"
#include "util/args.hpp"

namespace {

using namespace webcache;
using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the span list, -1 = root
  int pass = 0;
};

/// In-memory span recorder. Spans nest through an explicit stack, so a
/// span's parent is whichever span was open when it started.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  std::size_t open(std::string name, int pass) {
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    s.pass = pass;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  double close(std::size_t id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
    return seconds(spans_[id]);
  }

  const std::vector<Span>& spans() const { return spans_; }

  static double seconds(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Times `fn` under a span and returns its wall seconds.
template <typename Fn>
double traced(Tracer& tracer, const std::string& name, int pass, Fn&& fn) {
  const std::size_t id = tracer.open(name, pass);
  fn();
  return tracer.close(id);
}

struct PolicyProbe {
  const char* key;   // metric suffix
  const char* name;  // factory spelling
};

constexpr PolicyProbe kPolicies[] = {{"lru", "LRU"},
                                     {"lfuda", "LFU-DA"},
                                     {"gds1", "GDS(1)"},
                                     {"gdstar1", "GD*(1)"},
                                     {"gdstarpkt", "GD*(packet)"}};

constexpr const char* kSweepPolicies[] = {"LRU", "LFU-DA", "GDS(1)", "GD*(1)"};
constexpr const char* kStreamPolicy = "GD*(packet)";
constexpr std::size_t kMinPasses = 3;
// Every probe's capacity as a share of the overall trace size, as
// simulate-dfn's --cache-fraction (its streamed run's --cache-mb is ~4% too).
constexpr double kCacheFraction = 0.04;

struct AccessCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bypasses = 0;
  std::uint64_t evictions = 0;
  bool operator==(const AccessCounts&) const = default;
};

/// The bare cache loop: every request goes to Cache::access with the size
/// the simulator would use, without the last-size tracker, modification
/// rule or accounting.
AccessCounts bare_access(cache::Cache& c, const trace::Trace& t) {
  AccessCounts n;
  for (const trace::Request& r : t.requests) {
    const cache::AccessOutcome o =
        c.access(r.document, r.transfer_size, r.doc_class);
    n.evictions += o.evictions;
    switch (o.kind) {
      case cache::AccessKind::kHit: ++n.hits; break;
      case cache::AccessKind::kMiss: ++n.misses; break;
      case cache::AccessKind::kBypass: ++n.bypasses; break;
    }
  }
  return n;
}

bool same_counters(const sim::HitCounters& a, const sim::HitCounters& b) {
  return a.requests == b.requests && a.hits == b.hits &&
         a.requested_bytes == b.requested_bytes && a.hit_bytes == b.hit_bytes;
}

/// Bit-identity of two replays' results (every counter and latency sum).
bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  if (!same_counters(a.overall, b.overall)) return false;
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    if (!same_counters(a.per_class[c], b.per_class[c])) return false;
  }
  return a.capacity_bytes == b.capacity_bytes &&
         a.warmup_requests == b.warmup_requests &&
         a.measured_requests == b.measured_requests &&
         a.evictions == b.evictions && a.bypasses == b.bypasses &&
         a.miss_latency_ms == b.miss_latency_ms &&
         a.all_miss_latency_ms == b.all_miss_latency_ms &&
         a.modification_misses == b.modification_misses &&
         a.interrupted_transfers == b.interrupted_transfers;
}

struct Checks {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

/// One pass of the probe suite: the timings (seconds, by metric), the
/// ratios and differences of paired timings, and the exact counters it
/// produced.
struct Pass {
  std::map<std::string, double> values;
  std::map<std::string, std::uint64_t> counters;
};

struct Config {
  std::string trace_path;
  std::string workload;
  std::string checkpoint_dir;
  std::vector<double> fractions;
  std::uint32_t threads = 0;
  std::uint64_t checkpoint_every = 0;
};

std::uint64_t checkpoint_dir_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// The sweep, its one-pass engine and its serial cost. These are seconds-
/// long probes, so they run in the first pass only.
void sweep_probes(const Config& cfg, const trace::Trace& t,
                  std::uint64_t capacity, const sim::SimulatorOptions& opts,
                  std::map<std::string, sim::SimResult>& replays, Pass& out,
                  Tracer& tracer, Checks& checks) {
  auto& sec = out.values;
  sim::SweepConfig sweep_cfg;
  sweep_cfg.cache_fractions = cfg.fractions;
  for (const char* name : kSweepPolicies) {
    sweep_cfg.policies.push_back(cache::policy_spec_from_name(name));
  }
  sweep_cfg.simulator = opts;
  sweep_cfg.threads = cfg.threads;
  sim::SweepResult sweep;
  sec["sim.sweep"] = traced(tracer, "sim.run_sweep", 0,
                            [&] { sweep = sim::run_sweep(t, sweep_cfg); });

  const std::uint64_t largest = sim::StackSweep::max_transfer_size(t);
  std::vector<std::uint64_t> stack_caps;
  std::vector<std::size_t> stack_rows;
  for (std::size_t f = 0; f < sweep.points.size(); ++f) {
    if (sweep.points[f].capacity_bytes >= largest) {
      stack_caps.push_back(sweep.points[f].capacity_bytes);
      stack_rows.push_back(f);
    }
  }
  std::vector<sim::SimResult> stack;
  sec["sim.stack_sweep"] = 0.0;  // no row fits the largest transfer
  if (!stack_caps.empty()) {
    sec["sim.stack_sweep"] = traced(tracer, "sim.stack_sweep", 0, [&] {
      stack = sim::StackSweep(stack_caps, opts).run(t);
    });
  }
  for (std::size_t i = 0; i < stack_rows.size(); ++i) {  // column 0 is LRU
    checks.expect(
        same_result(stack[i], sweep.points[stack_rows[i]].results[0]),
        "StackSweep matches the sweep's LRU column");
  }
  // The sweep routes a cell one-pass iff it is in an LRU column and at least
  // the largest transfer; every other cell is a grid simulate().
  std::uint64_t one_pass = 0;
  std::uint64_t grid = 0;
  double serial_cells = 0.0;
  const std::size_t serial_id = tracer.open("sim.sweep_serial_cells", 0);
  for (std::size_t f = 0; f < sweep.points.size(); ++f) {
    const sim::SweepPoint& point = sweep.points[f];
    for (std::size_t p = 0; p < sweep_cfg.policies.size(); ++p) {
      const cache::PolicySpec& spec = sweep_cfg.policies[p];
      if (spec.kind == cache::PolicyKind::kLru &&
          point.capacity_bytes >= largest) {
        ++one_pass;
        continue;
      }
      ++grid;
      sim::SimResult cell;
      serial_cells += traced(tracer, "sim.simulate", 0, [&] {
        cell = sim::simulate(t, point.capacity_bytes, spec, opts);
      });
      checks.expect(same_result(cell, point.results[p]),
                    "serial grid cell matches the parallel sweep");
    }
  }
  tracer.close(serial_id);
  sec["sim.sweep_serial_cells"] = serial_cells + sec["sim.stack_sweep"];
  out.counters["cells_one_pass"] = one_pass;
  out.counters["cells_grid"] = grid;
  for (const sim::SweepPoint& point : sweep.points) {
    if (point.capacity_bytes != capacity) continue;
    for (std::size_t p = 0; p < sweep_cfg.policies.size(); ++p) {
      checks.expect(same_result(point.results[p], replays[kSweepPolicies[p]]),
                    "sweep cell matches simulate() at the probe capacity");
    }
  }
}

Pass run_pass(const Config& cfg, int pass, Tracer& tracer, Checks& checks) {
  Pass out;
  auto& sec = out.values;
  const std::size_t root = tracer.open("bench.probe_suite", pass);

  // ---- trace layer ----
  trace::Trace t;
  sec["trace.load"] = traced(tracer, "trace.read_binary_trace_file", pass,
                             [&] { t = trace::read_binary_trace_file(
                                       cfg.trace_path); });
  std::uint64_t overall = 0;
  sec["trace.size"] = traced(tracer, "trace.overall_size_bytes", pass,
                             [&] { overall = t.overall_size_bytes(); });
  trace::DenseTrace dense;
  sec["trace.densify"] = traced(tracer, "trace.densify", pass,
                                [&] { dense = trace::densify(t); });
  std::uint64_t streamed = 0;
  sec["trace.stream_decode"] =
      traced(tracer, "trace.stream_decode", pass, [&] {
        trace::StreamingTraceReader reader(cfg.trace_path);
        for (auto c = reader.next_chunk(); !c.empty();
             c = reader.next_chunk()) {
          streamed += c.size();
        }
      });
  checks.expect(streamed == t.requests.size(),
                "stream decode yields every request");
  std::vector<trace::DocumentId> online_ids(t.requests.size());
  std::uint64_t online_docs = 0;
  sec["trace.online_densify"] =
      traced(tracer, "trace.online_densify", pass, [&] {
        trace::OnlineDensifier densifier;
        for (std::size_t i = 0; i < t.requests.size(); ++i) {
          online_ids[i] = densifier.densify(t.requests[i].document);
        }
        online_docs = densifier.document_count();
      });
  bool agrees = online_docs == dense.document_count();
  for (std::size_t i = 0; agrees && i < online_ids.size(); ++i) {
    agrees = online_ids[i] == dense.trace.requests[i].document;
  }
  checks.expect(agrees, "OnlineDensifier matches densify()");
  out.counters["distinct_documents"] = dense.document_count();

  const auto capacity = static_cast<std::uint64_t>(
      static_cast<double>(overall) * kCacheFraction);
  sim::SimulatorOptions opts;  // the CLI defaults: 10% warm-up, threshold

  // ---- cache and sim layers, per policy ----
  std::map<std::string, sim::SimResult> replays;
  std::uint64_t evictions = 0;
  std::uint64_t misses = 0;
  for (const PolicyProbe& p : kPolicies) {
    const std::string key = p.key;
    const cache::PolicySpec spec = cache::policy_spec_from_name(p.name);
    AccessCounts sparse_counts;
    sec["cache.access." + key] =
        traced(tracer, "cache.access." + key, pass, [&] {
          cache::Cache c(capacity, cache::make_policy(spec));
          sparse_counts = bare_access(c, t);
        });
    AccessCounts dense_counts;
    sec["cache.access_dense." + key] =
        traced(tracer, "cache.access_dense." + key, pass, [&] {
          cache::Cache c(capacity, cache::make_policy(spec));
          c.reserve_dense_ids(dense.document_count());
          dense_counts = bare_access(c, dense.trace);
        });
    checks.expect(sparse_counts == dense_counts,
                  "dense cache loop matches sparse for " + key);

    sim::SimResult r;
    sec["sim.replay." + key] =
        traced(tracer, "sim.simulate." + key, pass,
               [&] { r = sim::simulate(t, capacity, spec, opts); });
    // Evictions span the whole replay, misses the measured part only (the
    // simulator's own accounting).
    out.counters["evictions." + key] = r.evictions;
    out.counters["misses." + key] = r.overall.requests - r.overall.hits;
    evictions += r.evictions;
    misses += r.overall.requests - r.overall.hits;
    replays[p.name] = r;
  }
  out.counters["evictions"] = evictions;
  out.counters["misses"] = misses;

  if (pass == 0) {
    sweep_probes(cfg, t, capacity, opts, replays, out, tracer, checks);
  }

  // ---- streamed replay, recording sink, checkpoints, metrics writer ----
  // The plain (P), recorded (R) and checkpointed (C) streams run in the
  // order P R C C R P, so that host drift over the pass weighs on each the
  // same; the sink's and the checkpoints' costs are taken from these pairs.
  const cache::PolicySpec stream_spec =
      cache::policy_spec_from_name(kStreamPolicy);
  const std::uint64_t window =
      std::max<std::uint64_t>(1, t.total_requests() / 100);
  sim::SimResult plain;
  const auto run_plain = [&] {
    return traced(tracer, "sim.simulate_stream_densified", pass, [&] {
      trace::StreamingTraceReader reader(cfg.trace_path);
      plain =
          sim::simulate_stream_densified(reader, capacity, stream_spec, opts);
    });
  };
  obs::RecordingSink sink(window);
  sim::SimResult recorded;
  const auto run_recorded = [&] {
    sink = obs::RecordingSink(window);
    return traced(tracer, "obs.simulate_stream_densified_recording", pass,
                  [&] {
                    trace::StreamingTraceReader reader(cfg.trace_path);
                    recorded = sim::simulate_stream_densified(
                        reader, capacity, stream_spec, opts, sink);
                  });
  };
  sim::CheckpointedRun run;
  std::uint64_t checkpoint_bytes = 0;
  const auto run_checkpointed = [&] {
    std::filesystem::remove_all(cfg.checkpoint_dir);
    obs::RecordingSink ckpt_sink(window);
    const double s =
        traced(tracer, "sim.simulate_stream_checkpointed", pass, [&] {
          trace::StreamingTraceReader reader(cfg.trace_path);
          sim::StreamCheckpointJob job;
          job.options = opts;
          job.checkpoint.dir = cfg.checkpoint_dir;
          job.checkpoint.every = cfg.checkpoint_every;
          // Keep every file so the bytes written can be counted exactly.
          job.checkpoint.keep = std::numeric_limits<std::size_t>::max();
          job.checkpoint.trace_source = cfg.trace_path;
          job.densified = true;
          job.sink = &ckpt_sink;
          run = sim::simulate_stream_checkpointed(reader, capacity,
                                                  stream_spec, job);
        });
    checkpoint_bytes = checkpoint_dir_bytes(cfg.checkpoint_dir);
    std::filesystem::remove_all(cfg.checkpoint_dir);
    return s;
  };
  const double p1 = run_plain();
  const double r1 = run_recorded();
  const double c1 = run_checkpointed();
  const double c2 = run_checkpointed();
  const double r2 = run_recorded();
  const double p2 = run_plain();
  sec["sim.stream_replay"] = 0.5 * (p1 + p2);
  sec["obs.recording"] = 0.5 * (r1 + r2);
  sec["sim.checkpointed"] = 0.5 * (c1 + c2);
  sec["obs.recording_ratio"] = (r1 + r2) / (p1 + p2);
  sec["sim.checkpoint_cost"] = 0.5 * ((c1 + c2) - (r1 + r2));
  checks.expect(sec["sim.checkpoint_cost"] > 0.0,
                "checkpointed stream slower than the recorded one");
  out.counters["checkpoints_written"] = run.checkpoints_written;
  out.counters["checkpoint_bytes"] = checkpoint_bytes;
  const sim::SimResult& reference = replays[kStreamPolicy];
  checks.expect(same_result(plain, reference),
                "streamed densified replay matches simulate()");
  checks.expect(same_result(recorded, reference),
                "recording sink leaves the result unchanged");
  checks.expect(same_result(run.result, reference),
                "checkpointed replay matches simulate()");
  checks.expect(run.checkpoints_written > 0, "checkpoints were written");

  const std::string metrics_path = cfg.checkpoint_dir + ".metrics.json";
  sec["obs.metrics_write"] =
      traced(tracer, "obs.write_metrics_json", pass, [&] {
        std::ofstream os(metrics_path);
        sim::write_metrics_json(os, recorded, sink.series());
        os.flush();
        checks.expect(os.good(), "metrics JSON written");
      });
  std::filesystem::remove(metrics_path);

  tracer.close(root);
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> parse_list(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stod(item));
  }
  return out;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::string& workload, const std::string& run_id) {
  std::ofstream os(path);
  os << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i
       << ",\"name\":" << json_string(s.name) << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
       << ",\"workload\":" << json_string(workload)
       << ",\"run_id\":" << json_string(run_id + "." + std::to_string(s.pass))
       << "}";
  }
  os << "\n]\n";
  if (!os.good()) throw std::runtime_error("cannot write " + path);
}

/// Self time of each layer (the span-name prefix before the first '.') in
/// the first pass, the one that runs every probe: span duration minus the
/// time its children cover.
std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += Tracer::seconds(s);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].pass != 0) continue;
    const std::string& name = spans[i].name;
    out[name.substr(0, name.find('.'))] += Tracer::seconds(spans[i]) - child[i];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  Config cfg;
  cfg.trace_path = args.get("trace", "");
  cfg.workload = args.get("workload", "");
  cfg.checkpoint_dir = args.get("checkpoint-dir", "");
  cfg.fractions = parse_list(args.get("fractions", ""));
  cfg.threads = static_cast<std::uint32_t>(args.get_uint("threads", 0));
  cfg.checkpoint_every = args.get_uint("checkpoint-every", 0);
  const std::string spans_out = args.get("spans-out", "");
  const std::string run_id = args.get("run-id", "0");
  const double budget = args.get_double("seconds", 0.0);
  if (cfg.trace_path.empty() || cfg.checkpoint_dir.empty() ||
      spans_out.empty() || cfg.fractions.empty() || cfg.threads == 0 ||
      cfg.checkpoint_every == 0) {
    std::cerr << "layer_trace: --trace, --checkpoint-dir, --spans-out, "
                 "--fractions, --threads and --checkpoint-every are "
                 "required\n";
    return 2;
  }

  const Clock::time_point start = Clock::now();
  Tracer tracer(start);
  Checks checks;
  std::vector<Pass> passes;
  std::uint64_t requests = 0;
  try {
    requests = trace::StreamingTraceReader(cfg.trace_path).total_requests();
    double last = 0.0;
    while (passes.size() < kMinPasses ||
           std::chrono::duration<double>(Clock::now() - start).count() +
                   last <=
               budget) {
      const Clock::time_point pass_start = Clock::now();
      passes.push_back(
          run_pass(cfg, static_cast<int>(passes.size()), tracer, checks));
      last = std::chrono::duration<double>(Clock::now() - pass_start).count();
      bool repeats = true;
      for (const auto& [name, value] : passes.back().counters) {
        repeats &= passes.front().counters.at(name) == value;
      }
      checks.expect(repeats, "counters repeat exactly across passes");
    }
    write_spans(spans_out, tracer.spans(), cfg.workload, run_id);
  } catch (const std::exception& e) {
    std::cerr << "layer_trace: " << e.what() << "\n";
    return 1;
  }

  // Median over the passes that ran the probe (the sweep probes run once).
  const auto med = [&passes](const std::string& key) {
    std::vector<double> v;
    for (const Pass& p : passes) {
      if (const auto it = p.values.find(key); it != p.values.end()) {
        v.push_back(it->second);
      }
    }
    return median(v);
  };
  const Pass& first = passes.front();
  const auto count = [&first](const std::string& key) {
    return static_cast<double>(first.counters.at(key));
  };
  const double n = static_cast<double>(requests);
  const auto per_req = [&](const std::string& key) {
    return med(key) * 1e9 / n;
  };
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  const auto put = [&metrics](const std::string& name, double value,
                              const char* unit) {
    metrics.push_back({name, {value, unit}});
  };
  put("trace.load_ns_per_req", per_req("trace.load"), "ns");
  put("trace.size_ns_per_req", per_req("trace.size"), "ns");
  put("trace.densify_ns_per_req", per_req("trace.densify"), "ns");
  put("trace.stream_decode_ns_per_req", per_req("trace.stream_decode"), "ns");
  put("trace.online_densify_ns_per_req", per_req("trace.online_densify"),
      "ns");
  for (const PolicyProbe& p : kPolicies) {
    const std::string key = p.key;
    put("cache.access_ns_per_req." + key, per_req("cache.access." + key), "ns");
    put("cache.access_dense_ns_per_req." + key,
        per_req("cache.access_dense." + key), "ns");
    put("cache.evictions_per_miss." + key,
        count("evictions." + key) / count("misses." + key), "ratio");
    put("sim.replay_ns_per_req." + key, per_req("sim.replay." + key), "ns");
    put("sim.replay_overhead_ns_per_req." + key,
        per_req("sim.replay." + key) - per_req("cache.access." + key), "ns");
  }
  put("sim.sweep_s", med("sim.sweep"), "s");
  put("sim.stack_sweep_s", med("sim.stack_sweep"), "s");
  put("sim.sweep_serial_cells_s", med("sim.sweep_serial_cells"), "s");
  put("sim.sweep_parallel_eff",
      med("sim.sweep_serial_cells") / (med("sim.sweep") * cfg.threads),
      "ratio");
  put("sim.stream_replay_ns_per_req", per_req("sim.stream_replay"), "ns");
  put("sim.checkpoint_ms",
      med("sim.checkpoint_cost") * 1e3 / count("checkpoints_written"), "ms");
  put("sim.checkpoint_bytes", count("checkpoint_bytes"), "bytes");
  put("obs.recording_ratio", med("obs.recording_ratio"), "ratio");
  put("obs.metrics_write_ms", med("obs.metrics_write") * 1e3, "ms");
  const auto self = layer_self_seconds(tracer.spans());
  for (const char* layer : {"trace", "cache", "sim", "obs"}) {
    const auto it = self.find(layer);
    put(std::string(layer) + ".self_s", it == self.end() ? 0.0 : it->second,
        "s");
  }

  // The workload's CLI command sequence as the sum of the probes that make
  // it up; run.py sets it against the untraced CLI wall time.
  double sequence = med("trace.load") + med("sim.sweep");
  if (cfg.workload == "simulate-dfn") {
    // One CLI process per paper policy (load, size, replay), then the
    // streamed, checkpointed, recorded run and its metrics file.
    sequence = med("sim.checkpointed") + med("obs.metrics_write");
    for (const PolicyProbe& p : kPolicies) {
      if (p.name == std::string(kStreamPolicy)) continue;
      sequence += med("trace.load") + med("trace.size") +
                  med("sim.replay." + std::string(p.key));
    }
  }

  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10)
            << "{\"passes\":" << passes.size() << ",\"requests\":" << requests
            << ",\"sequence_s\":" << sequence << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << json_string(metrics[i].first)
              << ":{\"value\":" << metrics[i].second.first
              << ",\"unit\":" << json_string(metrics[i].second.second) << "}";
  }
  std::cout << "},\"counters\":{";
  bool comma = false;
  for (const auto& [name, value] : first.counters) {
    std::cout << (comma ? "," : "") << json_string(name) << ":" << value;
    comma = true;
  }
  std::cout << "},\"checks\":{\"attempted\":" << checks.attempted
            << ",\"failures\":[";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << json_string(checks.failures[i]);
  }
  std::cout << "]}}\n";
  return 0;
}
