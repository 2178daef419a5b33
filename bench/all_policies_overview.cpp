// Full-spectrum comparison (ours, in the spirit of Arlitt, Friedrich &
// Jin's six-policy study): every implemented replacement scheme on both
// workloads at one mid-ladder cache size, plus the clairvoyant OPT
// reference. A one-stop table for placing a new policy among the classics.
#include <iostream>

#include "cache/factory.hpp"
#include "cache/opt.hpp"
#include "common.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  const util::Args args(argc, argv);
  const double cache_fraction = args.get_double("cache-fraction", 0.04);

  std::cout << "=== All policies overview (scale=" << ctx.scale << ", cache "
            << cache_fraction * 100 << "% of trace) ===\n\n";

  for (const auto& profile :
       {synth::WorkloadProfile::DFN(), synth::WorkloadProfile::RTP()}) {
    const trace::Trace t = ctx.make_trace(profile);
    const auto capacity = static_cast<std::uint64_t>(
        static_cast<double>(t.overall_size_bytes()) * cache_fraction);

    util::Table table(profile.name + " @ " +
                      util::fmt_bytes(static_cast<double>(capacity)));
    table.set_header({"Policy", "HR", "BHR", "Latency saved", "Evictions"});

    auto add = [&](const sim::SimResult& r) {
      table.add_row({r.policy_name, util::fmt_fixed(r.overall.hit_rate(), 4),
                     util::fmt_fixed(r.overall.byte_hit_rate(), 4),
                     util::fmt_percent(r.latency_savings(), 1) + "%",
                     util::fmt_count(r.evictions)});
    };

    cache::SingleCacheFrontend opt_cache(
        capacity, std::make_unique<cache::OptPolicy>(t.requests));
    add(sim::simulate(t, opt_cache, ctx.simulator_options()));
    for (const char* name :
         {"GD*(1)", "GD*(packet)", "GD*(latency)", "GD*C(1)",
          "GD*C(packet)", "GDSF(1)", "GDS(1)",
          "GDS(packet)", "GDS(latency)", "LFU-DA", "LRU-2", "LRU-MIN",
          "SIZE", "LFU", "LRU", "LRU-THOLD(524288)", "FIFO",
          "DELAY-CLOCK:k=8", "CLOCK", "DELAY-LRU:k=16",
          "BATCH-LRU:batch=64", "PROB-LRU:p=0.1", "RANDOM"}) {
      add(sim::simulate(t, capacity, cache::policy_spec_from_name(name),
                        ctx.simulator_options()));
    }
    ctx.emit(table, "overview_" + profile.name);
    std::cout << '\n';
  }
  return 0;
}
