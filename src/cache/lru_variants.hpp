// Size-aware LRU variants from the pre-GreedyDual literature (Abrams,
// Standridge, Abdulla, Williams & Fox, "Caching proxies: limitations and
// potentials", WWW 1995/1996) — the baselines GDS was designed to beat.
// Included for the extended comparison benchmarks.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "cache/lru_list.hpp"
#include "cache/policy.hpp"

namespace webcache::cache {

/// LRU-Threshold: plain LRU eviction; documents larger than the threshold
/// are never admitted. The admission part is enforced by the container
/// (Cache::set_admission_limit) — this class only carries the name and the
/// threshold so the factory and reports stay self-describing.
class LruThresholdPolicy final : public ReplacementPolicy {
 public:
  explicit LruThresholdPolicy(std::uint64_t threshold_bytes);

  void reserve_ids(std::uint64_t universe) override;
  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& obj) override;
  using ReplacementPolicy::choose_victim;
  ObjectId choose_victim(std::uint64_t incoming_size) override;
  void on_evict(ObjectId id) override;
  std::string_view name() const override { return name_; }
  void clear() override;

  std::uint64_t threshold_bytes() const { return threshold_bytes_; }

  void save_state(util::StateWriter& w) const override;
  void restore_state(util::StateReader& r) override;

 private:
  std::uint64_t threshold_bytes_;
  std::string name_;
  LruIndexList order_;  // front = MRU
};

/// LRU-MIN: prefer evicting documents at least as large as the incoming
/// one. Let S be the incoming size; evict the least recently used document
/// with size >= S; if none exists, halve S and repeat (degenerating to
/// plain LRU at S = 0).
///
/// Implementation: one LRU list per power-of-two size class, global
/// recency stamps. Victim selection inspects the cold end of each class at
/// or above the threshold bucket (walking inside the boundary bucket only),
/// so the naive formulation's full-list scans — O(n) per eviction, ruinous
/// when large multimedia documents arrive — become O(#buckets) with
/// identical victims.
class LruMinPolicy final : public ReplacementPolicy {
 public:
  void reserve_ids(std::uint64_t universe) override;
  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& obj) override;
  using ReplacementPolicy::choose_victim;
  ObjectId choose_victim(std::uint64_t incoming_size) override;
  void on_evict(ObjectId id) override;
  std::string_view name() const override { return "LRU-MIN"; }
  void clear() override;

  void save_state(util::StateWriter& w) const override;
  void restore_state(util::StateReader& r) override;

 private:
  static constexpr std::size_t kBuckets = 64;
  static constexpr std::size_t kAbsent = kBuckets;  // Slot.bucket sentinel

  struct Entry {
    ObjectId id;
    std::uint64_t size;
    std::uint64_t stamp;  // global recency: larger = more recent
  };
  struct Slot {
    std::size_t bucket = kAbsent;
    std::list<Entry>::iterator where;
  };

  static std::size_t bucket_of(std::uint64_t size);
  /// Oldest entry with size >= threshold, or nullptr.
  const Entry* oldest_at_least(std::uint64_t threshold) const;

  Slot* find_slot(ObjectId id);
  Slot& make_slot(ObjectId id);
  void drop_slot(ObjectId id);

  std::array<std::list<Entry>, kBuckets> buckets_;  // front = MRU per class
  std::uint64_t next_stamp_ = 0;
  std::size_t resident_ = 0;

  // id -> slot, hash-backed by default, flat (and grown on demand) after
  // reserve_ids().
  bool dense_ = false;
  std::unordered_map<ObjectId, Slot> where_;
  std::vector<Slot> dense_where_;
};

}  // namespace webcache::cache
