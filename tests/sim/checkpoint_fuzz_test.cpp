// Checkpoint corruption fuzzing: every torn, truncated, bit-flipped or
// cross-wired checkpoint image must be *detectably* damaged — the decoder
// throws a diagnostic naming the failing layer (magic, version, a section's
// CRC), or the damage surfaces as a renamed/missing section that the resume
// path rejects by name. No corruption may ever restore silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/factory.hpp"
#include "cache/frontend.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/request_stream.hpp"
#include "util/state_io.hpp"

namespace webcache::sim {
namespace {

namespace fs = std::filesystem;
using detail::CheckpointSection;

std::vector<CheckpointSection> sample_sections() {
  std::vector<CheckpointSection> sections;
  sections.push_back({"fingerprint", {0x01, 0x02, 0x03, 0x04, 0x05}});
  sections.push_back({"empty", {}});
  CheckpointSection binary{"cache", {}};
  for (int i = 0; i < 64; ++i) {
    binary.payload.push_back(static_cast<std::uint8_t>(i * 37));
  }
  sections.push_back(binary);
  return sections;
}

TEST(CheckpointFuzz, EncodeDecodeRoundTrip) {
  const std::vector<CheckpointSection> original = sample_sections();
  const std::vector<CheckpointSection> decoded =
      detail::decode_checkpoint(detail::encode_checkpoint(original));
  ASSERT_EQ(decoded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(decoded[i].name, original[i].name);
    EXPECT_EQ(decoded[i].payload, original[i].payload);
  }
}

TEST(CheckpointFuzz, EveryTruncationRejected) {
  const std::vector<std::uint8_t> bytes =
      detail::encode_checkpoint(sample_sections());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(detail::decode_checkpoint(prefix), std::runtime_error)
        << "prefix of " << len << " bytes decoded cleanly";
  }
}

TEST(CheckpointFuzz, EveryBitFlipDetected) {
  const std::vector<CheckpointSection> original = sample_sections();
  const std::vector<std::uint8_t> bytes = detail::encode_checkpoint(original);

  std::size_t throws = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const int bit : {0, 7}) {
      std::vector<std::uint8_t> damaged = bytes;
      damaged[i] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        const std::vector<CheckpointSection> decoded =
            detail::decode_checkpoint(damaged);
        // Section names are outside the per-section CRC, so a flip there
        // decodes — but the name no longer matches, which the resume path
        // rejects as a missing section. Anything else must have thrown.
        bool names_differ = decoded.size() != original.size();
        for (std::size_t s = 0; !names_differ && s < decoded.size(); ++s) {
          names_differ = decoded[s].name != original[s].name;
        }
        EXPECT_TRUE(names_differ)
            << "bit " << bit << " of byte " << i
            << " flipped without detection";
      } catch (const std::runtime_error&) {
        ++throws;
      }
    }
  }
  // The overwhelming majority of flips hit CRC-covered payload or structural
  // fields and must throw outright.
  EXPECT_GT(throws, bytes.size());
}

/// Stops a checkpointed run of `policy` after 6000 requests, lets `rewire`
/// edit the newest checkpoint's sections, re-encodes them (so every CRC
/// validates again) as the only file in the directory, and resumes. The
/// resume must throw std::runtime_error; returns its message. `rewire`
/// also receives the number of objects resident at the stop. `densified`
/// runs the stream through the online densifier and dense tables.
template <typename Rewire>
std::string resume_rewired(const std::string& policy, Rewire rewire,
                           bool densified = false) {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  const trace::Trace t = generator.generate();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name(policy);

  // Per-mode directories: ctest runs the tests that share this helper as
  // concurrent processes.
  const std::string dir = testing::TempDir() + "/webcache_ckpt_crosswire" +
                          (densified ? "_densified" : "");
  fs::remove_all(dir);

  StreamCheckpointJob job;
  job.checkpoint.dir = dir;
  job.checkpoint.every = 3000;
  job.checkpoint.trace_source = "synthetic-dfn-0.002";
  job.checkpoint.stop_after_requests = 6000;
  job.densified = densified;
  std::uint64_t resident = 0;
  {
    trace::MemoryRequestStream stream(t, 4096);
    cache::SingleCacheFrontend frontend(capacity, cache::make_policy(spec));
    EXPECT_TRUE(simulate_stream_checkpointed(stream, frontend, job)
                    .stopped_early);
    resident = frontend.occupancy().total_objects;
  }

  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) return "no checkpoint written";
  const fs::path newest = files.back();
  for (const fs::path& older : files) {
    if (older != newest) fs::remove(older);  // no valid fallback may remain
  }
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(newest, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  std::vector<CheckpointSection> sections = detail::decode_checkpoint(bytes);
  rewire(sections, resident);
  {
    const std::vector<std::uint8_t> rewired =
        detail::encode_checkpoint(sections);
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(rewired.data()),
              static_cast<std::streamsize>(rewired.size()));
  }

  job.checkpoint.stop_after_requests = 0;
  job.checkpoint.resume = true;
  trace::MemoryRequestStream stream(t, 4096);
  cache::SingleCacheFrontend frontend(capacity, cache::make_policy(spec));
  std::string what = "resumed silently";
  try {
    simulate_stream_checkpointed(stream, frontend, job);
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  fs::remove_all(dir);
  return what;
}

CheckpointSection& section_named(std::vector<CheckpointSection>& sections,
                                 const std::string& name) {
  for (CheckpointSection& s : sections) {
    if (s.name == name) return s;
  }
  throw std::logic_error("no section '" + name + "'");
}

/// The policy state is the tail of the "cache" section; for the list and
/// ring policies it is a u64 element count followed by `resident` entries
/// of `entry_bytes` each. Overwrites that count with 2^50.
void claim_huge_policy_count(std::vector<CheckpointSection>& sections,
                             std::uint64_t resident, std::size_t entry_bytes) {
  std::vector<std::uint8_t>& payload = section_named(sections, "cache").payload;
  ASSERT_GE(payload.size(), 8 + entry_bytes * resident);
  const std::size_t at = payload.size() - 8 - entry_bytes * resident;
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(payload[at + i]) << (8 * i);
  }
  ASSERT_EQ(stored, resident) << "policy state layout changed";
  const std::uint64_t huge = std::uint64_t{1} << 50;
  for (int i = 0; i < 8; ++i) {
    payload[at + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
}

TEST(CheckpointFuzz, CrossWiredSectionsRejectedOnResume) {
  // Swap the payloads of two sections: each CRC still validates, but the
  // content belongs to the wrong subsystem. The misdelivered payload fails
  // section-level parsing, which names the section it was read as.
  {
    const std::string what =
        resume_rewired("LRU", [](std::vector<CheckpointSection>& sections,
                                 std::uint64_t /*resident*/) {
          std::swap(section_named(sections, "cache").payload,
                    section_named(sections, "lastsize").payload);
        });
    EXPECT_TRUE(what.find("cache") != std::string::npos ||
                what.find("lastsize") != std::string::npos)
        << what;
  }
  // A CRC-valid policy state whose element count claims 2^50 entries: the
  // count must be rejected by name before it sizes any allocation.
  {
    const std::string what =
        resume_rewired("LRU", [](std::vector<CheckpointSection>& sections,
                                 std::uint64_t resident) {
          claim_huge_policy_count(sections, resident, 8);  // u64 id
        });
    EXPECT_NE(what.find("id run count"), std::string::npos) << what;
  }
  {
    const std::string what =
        resume_rewired("CLOCK", [](std::vector<CheckpointSection>& sections,
                                   std::uint64_t resident) {
          claim_huge_policy_count(sections, resident, 12);  // id + counter
        });
    EXPECT_NE(what.find("clock ring count"), std::string::npos) << what;
  }
}

std::uint64_t get_u64_at(const std::vector<std::uint8_t>& bytes,
                         std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes.at(at + i)) << (8 * i);
  }
  return v;
}

void put_u64_at(std::vector<std::uint8_t>& bytes, std::size_t at,
                std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// "cache" section layout: five u64 counters, per-class object and byte
// counts, the resident count, 49-byte resident records, then the policy.
constexpr std::size_t kResidentCountAt =
    8 * (5 + 2 * trace::kDocumentClassCount);
constexpr std::size_t kResidentBytes = 8 + 8 + 1 + 8 + 8 + 8 + 8;

std::size_t policy_state_at(std::uint64_t resident) {
  return kResidentCountAt + 8 + kResidentBytes * resident;
}

/// The densifier section starts with the number of documents it assigned.
std::uint64_t assigned_documents(std::vector<CheckpointSection>& sections) {
  return get_u64_at(section_named(sections, "densifier").payload, 0);
}

TEST(CheckpointFuzz, HostileDenseIdsRejectedByName) {
  // A densified run restores into growable dense tables. A CRC-valid
  // checkpoint naming a dense id at or past the densifier's document count
  // must be rejected by name before that id can size a flat index: never
  // a bad_alloc, never a silent resume.
  const std::uint64_t huge = std::uint64_t{1} << 40;
  const auto rewire_resident_id = [](std::uint64_t id) {
    return [id](std::vector<CheckpointSection>& sections,
                std::uint64_t resident) {
      std::vector<std::uint8_t>& cache = section_named(sections, "cache").payload;
      ASSERT_GT(resident, 0u);
      ASSERT_EQ(get_u64_at(cache, kResidentCountAt), resident);
      put_u64_at(cache, kResidentCountAt + 8,
                 id == 0 ? assigned_documents(sections) : id);
    };
  };
  {
    const std::string what =
        resume_rewired("LRU", rewire_resident_id(huge), /*densified=*/true);
    EXPECT_NE(what.find("resident object id 1099511627776"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("'cache'"), std::string::npos) << what;
  }
  {
    // Exactly one past the bound (0 asks for the assigned count).
    const std::string what =
        resume_rewired("LRU", rewire_resident_id(0), /*densified=*/true);
    EXPECT_NE(what.find("resident object id"), std::string::npos) << what;
    EXPECT_NE(what.find("the densifier assigned"), std::string::npos) << what;
  }
  {
    // The first key of GD*'s heap: u64 entry count, then {key, ...}.
    const std::string what = resume_rewired(
        "GD*(packet)",
        [huge](std::vector<CheckpointSection>& sections,
               std::uint64_t resident) {
          std::vector<std::uint8_t>& cache =
              section_named(sections, "cache").payload;
          const std::size_t at = policy_state_at(resident);
          ASSERT_EQ(get_u64_at(cache, at), resident);
          put_u64_at(cache, at + 8, huge);
        },
        /*densified=*/true);
    EXPECT_NE(what.find("heap key id 1099511627776"), std::string::npos)
        << what;
  }
  {
    // The first id of the LRU list (the same id-run decoder serves every
    // list policy).
    const std::string what = resume_rewired(
        "LRU",
        [huge](std::vector<CheckpointSection>& sections,
               std::uint64_t resident) {
          std::vector<std::uint8_t>& cache =
              section_named(sections, "cache").payload;
          put_u64_at(cache, policy_state_at(resident) + 8, huge);
        },
        /*densified=*/true);
    EXPECT_NE(what.find("id run id 1099511627776"), std::string::npos)
        << what;
  }
  {
    // A last-size table one entry longer than the documents assigned.
    const std::string what = resume_rewired(
        "LRU",
        [](std::vector<CheckpointSection>& sections, std::uint64_t) {
          std::vector<std::uint8_t>& last =
              section_named(sections, "lastsize").payload;
          const std::uint64_t n = get_u64_at(last, 0);
          ASSERT_EQ(n, assigned_documents(sections));
          put_u64_at(last, 0, n + 1);
          last.insert(last.end(), 8, 0xff);
        },
        /*densified=*/true);
    EXPECT_NE(what.find("last-size table covers"), std::string::npos)
        << what;
    EXPECT_NE(what.find("'lastsize'"), std::string::npos) << what;
  }
}

TEST(CheckpointFuzz, FingerprintValidationNamesEveryField) {
  CheckpointFingerprint base;
  base.policy_description = "LRU cap=1000";
  base.capacity_bytes = 1000;
  base.warmup_fraction = 0.1;
  base.modification_rule = 1;
  base.modification_threshold = 0.05;
  base.occupancy_samples = 8;
  base.latency_setup_ms = 2.0;
  base.latency_bytes_per_ms = 4000.0;
  base.densified = false;
  base.hot_capacity = 0;
  base.window_requests = 113;
  base.fault_hash = 7;
  base.trace_source = "trace.wct";
  base.total_requests = 5000;
  base.seed = 42;

  // Round trip first: an unmodified fingerprint must validate.
  util::StateWriter w;
  detail::save_fingerprint(w, base);
  const std::vector<std::uint8_t> encoded = w.take();
  util::StateReader r(encoded.data(), encoded.size(), "fingerprint");
  const CheckpointFingerprint restored = detail::restore_fingerprint(r);
  EXPECT_NO_THROW(detail::validate_fingerprint(base, restored, "f.wckp"));

  struct Case {
    const char* field;
    void (*mutate)(CheckpointFingerprint&);
  };
  const Case cases[] = {
      {"policy", [](CheckpointFingerprint& f) { f.policy_description = "X"; }},
      {"capacity_bytes", [](CheckpointFingerprint& f) { f.capacity_bytes++; }},
      {"warmup_fraction",
       [](CheckpointFingerprint& f) { f.warmup_fraction = 0.2; }},
      {"modification_rule",
       [](CheckpointFingerprint& f) { f.modification_rule = 2; }},
      {"modification_threshold",
       [](CheckpointFingerprint& f) { f.modification_threshold = 0.06; }},
      {"occupancy_samples",
       [](CheckpointFingerprint& f) { f.occupancy_samples = 9; }},
      {"latency_setup_ms",
       [](CheckpointFingerprint& f) { f.latency_setup_ms = 3.0; }},
      {"latency_bytes_per_ms",
       [](CheckpointFingerprint& f) { f.latency_bytes_per_ms = 1.0; }},
      {"densified", [](CheckpointFingerprint& f) { f.densified = true; }},
      {"hot_capacity", [](CheckpointFingerprint& f) { f.hot_capacity = 64; }},
      {"window_requests",
       [](CheckpointFingerprint& f) { f.window_requests = 0; }},
      {"fault_schedule", [](CheckpointFingerprint& f) { f.fault_hash = 8; }},
      {"trace_source",
       [](CheckpointFingerprint& f) { f.trace_source = "other.wct"; }},
      {"total_requests",
       [](CheckpointFingerprint& f) { f.total_requests = 1; }},
      {"seed", [](CheckpointFingerprint& f) { f.seed = 43; }},
  };
  for (const Case& c : cases) {
    CheckpointFingerprint found = base;
    c.mutate(found);
    try {
      detail::validate_fingerprint(base, found, "f.wckp");
      FAIL() << "mismatched " << c.field << " validated";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << "field " << c.field << " not named in: " << e.what();
      EXPECT_NE(std::string(e.what()).find("f.wckp"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckpointFuzz, SimResultStateRoundTrip) {
  SimResult result;
  result.policy_name = "GD*(packet)";
  result.capacity_bytes = 123456;
  result.overall = {100, 40, 987654, 32100};
  for (std::size_t c = 0; c < result.per_class.size(); ++c) {
    result.per_class[c] = {10 + c, 5 + c, 1000 * c, 300 * c};
  }
  result.warmup_requests = 50;
  result.measured_requests = 950;
  result.evictions = 77;
  result.bypasses = 3;
  result.miss_latency_ms = 123.4375;  // exactly representable
  result.all_miss_latency_ms = 987.5;
  result.modification_misses = 4;
  result.interrupted_transfers = 2;
  OccupancySample sample;
  sample.request_index = 500;
  sample.occupancy.objects[0] = 9;
  sample.occupancy.bytes[0] = 900;
  sample.occupancy.total_objects = 9;
  sample.occupancy.total_bytes = 900;
  result.occupancy_series = {sample};
  result.faults.events_applied = 6;
  result.faults.failovers = 5;
  result.faults.lost_requests = 4;
  result.faults.lost_bytes = 4000;
  result.faults.probe_timeouts = 11;
  result.faults.origin_fetches = 2;

  util::StateWriter w;
  detail::save_sim_result(w, result);
  const std::vector<std::uint8_t> bytes = w.take();
  util::StateReader r(bytes.data(), bytes.size(), "result");
  const SimResult restored = detail::restore_sim_result(r);
  r.expect_end();

  EXPECT_EQ(restored.policy_name, result.policy_name);
  EXPECT_EQ(restored.capacity_bytes, result.capacity_bytes);
  EXPECT_EQ(restored.overall.requests, result.overall.requests);
  EXPECT_EQ(restored.overall.hit_bytes, result.overall.hit_bytes);
  for (std::size_t c = 0; c < result.per_class.size(); ++c) {
    EXPECT_EQ(restored.per_class[c].requests, result.per_class[c].requests);
  }
  EXPECT_EQ(restored.miss_latency_ms, result.miss_latency_ms);
  EXPECT_EQ(restored.all_miss_latency_ms, result.all_miss_latency_ms);
  ASSERT_EQ(restored.occupancy_series.size(), 1u);
  EXPECT_EQ(restored.occupancy_series[0].request_index, 500u);
  EXPECT_EQ(restored.occupancy_series[0].occupancy.total_bytes, 900u);
  EXPECT_EQ(restored.faults.probe_timeouts, 11u);
}

TEST(CheckpointFuzz, FaultScheduleHashSeparatesScenarios) {
  FaultSchedule a;
  a.events = {{100, FaultKind::kEdgeCrash, 0}};
  a.seed = 1;
  FaultSchedule b = a;

  EXPECT_NE(fault_schedule_hash(a), 0u);  // 0 is reserved for "no schedule"
  EXPECT_EQ(fault_schedule_hash(a), fault_schedule_hash(b));

  b.seed = 2;
  EXPECT_NE(fault_schedule_hash(a), fault_schedule_hash(b));
  b = a;
  b.events[0].at_request = 101;
  EXPECT_NE(fault_schedule_hash(a), fault_schedule_hash(b));
  b = a;
  b.events.push_back({200, FaultKind::kEdgeRecover, 0});
  EXPECT_NE(fault_schedule_hash(a), fault_schedule_hash(b));
  b = a;
  b.probe_timeout_rate = 0.5;
  EXPECT_NE(fault_schedule_hash(a), fault_schedule_hash(b));

  EXPECT_NE(fault_schedule_hash(FaultSchedule{}), 0u);
}

}  // namespace
}  // namespace webcache::sim
