// Bounded-memory online document-id densification.
//
// trace::densify() needs the whole trace in memory plus a hash table over
// every distinct document. Streaming replay can afford neither, but
// the dense fast path (flat arrays indexed by document id) is exactly what
// makes billion-request replays feasible — so the renumbering itself has to
// go online and bounded.
//
// OnlineDensifier assigns dense ids in first-appearance order, identical to
// trace::densify() on the same request sequence. Lookups are answered by a
// bounded hot tier (a slab of at most `hot_capacity` entries on an
// intrusive LRU, found through a flat open-addressing index); evicted
// mappings spill to a compact cold tier of sorted
// (original, dense) runs merged LSM-style, costing 16 bytes per distinct
// document instead of an unordered_map node. Dense ids are allocated
// monotonically and never reassigned, so two distinct original ids can
// never alias the same dense id — the cold tier only ever stores the one
// mapping a document was given at first sight.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/request.hpp"

namespace webcache::util {
class StateWriter;
class StateReader;
}  // namespace webcache::util

namespace webcache::trace {

class OnlineDensifier {
 public:
  struct Options {
    /// Maximum entries held in the exact hot tier before spilling. Tiny
    /// values (the fuzz tests use 2) stay correct — only slower.
    std::size_t hot_capacity = 1 << 20;
  };

  OnlineDensifier() : OnlineDensifier(Options{}) {}
  explicit OnlineDensifier(Options options);

  /// Dense id for `original`: the id assigned at the document's first
  /// appearance (new documents get the next unused id). Equal to what
  /// trace::densify() would produce over the same sequence.
  DocumentId densify(DocumentId original);

  /// Distinct documents seen so far == exclusive upper bound on every dense
  /// id handed out.
  std::uint64_t document_count() const { return next_dense_; }

  /// Hot-tier evictions (mappings pushed to the cold tier).
  std::uint64_t spills() const { return spills_; }

  /// Lookups answered by the cold tier (spilled documents seen again).
  std::uint64_t cold_hits() const { return cold_hits_; }

  std::size_t hot_size() const { return slab_.size(); }

  /// Checkpointing: serializes the assigned mapping as original ids in
  /// dense-id order (dense ids are implicit: 0, 1, 2, ...). restore_state
  /// rebuilds a fresh instance by replaying the first appearances through
  /// densify(), which reassigns the identical ids. The hot/cold tier layout
  /// after restore may differ from the saved instance, but tier placement
  /// only affects lookup cost — the assigned ids, the densifier's only
  /// observable output, are bit-identical. Restore is only legal on an
  /// instance that has densified nothing yet (std::logic_error otherwise).
  void save_state(util::StateWriter& w) const;
  void restore_state(util::StateReader& r);

 private:
  struct HotEntry {
    DocumentId original = 0;
    DocumentId dense = 0;
    // Intrusive LRU links into slab_ (kNil = end).
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Mapping {
    DocumentId original;
    DocumentId dense;
  };

  // Hot-tier index: open addressing with linear probing, at most three
  // quarters full. A slot holds slab index + 1 (0 = empty) and the key is
  // read back from the slab, so a slot is 4 bytes; deletion shifts the
  // probe run back instead of leaving tombstones. Grows by doubling.
  std::size_t home_of(DocumentId original) const {
    return static_cast<std::size_t>((original * 0x9e3779b97f4a7c15ULL) >>
                                    index_shift_);
  }
  std::uint32_t find_hot(DocumentId original) const;
  void index_insert(std::uint32_t idx);
  void index_erase(DocumentId original);
  void grow_index();

  void touch(std::uint32_t idx);
  void insert_hot(DocumentId original, DocumentId dense);
  bool cold_lookup(DocumentId original, DocumentId& dense) const;
  void flush_pending();

  Options options_;
  DocumentId next_dense_ = 0;
  std::uint64_t spills_ = 0;
  std::uint64_t cold_hits_ = 0;

  // Hot tier: slab (every entry live) + intrusive LRU + flat index.
  std::vector<HotEntry> slab_;
  std::vector<std::uint32_t> index_ = std::vector<std::uint32_t>(64, 0);
  std::size_t index_mask_ = 63;
  unsigned index_shift_ = 64 - 6;  // 64 - log2(index_.size())
  std::uint32_t lru_head_ = kNil;  // most recently used
  std::uint32_t lru_tail_ = kNil;  // least recently used

  // Cold tier: bounded O(1)-lookup pending buffer + sorted runs (each
  // ascending by original id, geometrically merged so lookups scan
  // O(log spills) runs).
  std::unordered_map<DocumentId, DocumentId> pending_;
  std::vector<std::vector<Mapping>> runs_;
};

}  // namespace webcache::trace
