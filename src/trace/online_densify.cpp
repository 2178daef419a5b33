#include "trace/online_densify.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/state_io.hpp"

namespace webcache::trace {

namespace {

// Pending mappings are sorted into a run once this many accumulate. Small
// enough that the flush sort stays cache-resident, large enough that run
// counts grow slowly.
constexpr std::size_t kFlushThreshold = 4096;

}  // namespace

OnlineDensifier::OnlineDensifier(Options options) : options_(options) {
  if (options_.hot_capacity == 0) options_.hot_capacity = 1;
}

DocumentId OnlineDensifier::densify(DocumentId original) {
  if (const std::uint32_t idx = find_hot(original); idx != kNil) {
    // Recency only picks the mapping to spill. Until the tier is full
    // nothing spills, so a hit skips the relink; the LRU order is then
    // first-appearance order when the tier first fills.
    if (slab_.size() >= options_.hot_capacity) touch(idx);
    return slab_[idx].dense;
  }
  DocumentId dense = 0;
  if (spills_ != 0 && cold_lookup(original, dense)) {
    ++cold_hits_;
    insert_hot(original, dense);  // promote: likely to be referenced again
    return dense;
  }
  dense = next_dense_++;
  insert_hot(original, dense);
  return dense;
}

std::uint32_t OnlineDensifier::find_hot(DocumentId original) const {
  for (std::size_t i = home_of(original); index_[i] != 0;
       i = (i + 1) & index_mask_) {
    const std::uint32_t idx = index_[i] - 1;
    if (slab_[idx].original == original) return idx;
  }
  return kNil;
}

void OnlineDensifier::index_insert(std::uint32_t idx) {
  // slab_ already holds the new entry: at most 3/4 of the slots are used.
  if (4 * slab_.size() > 3 * index_.size()) grow_index();
  std::size_t i = home_of(slab_[idx].original);
  while (index_[i] != 0) i = (i + 1) & index_mask_;
  index_[i] = idx + 1;
}

void OnlineDensifier::index_erase(DocumentId original) {
  std::size_t hole = home_of(original);
  while (slab_[index_[hole] - 1].original != original) {
    hole = (hole + 1) & index_mask_;
  }
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home lies cyclically after the hole.
  for (std::size_t j = (hole + 1) & index_mask_; index_[j] != 0;
       j = (j + 1) & index_mask_) {
    const std::size_t home = home_of(slab_[index_[j] - 1].original);
    if (((j - home) & index_mask_) >= ((j - hole) & index_mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = 0;
}

void OnlineDensifier::grow_index() {
  std::vector<std::uint32_t> old(index_.size() * 2, 0);
  old.swap(index_);
  index_mask_ = index_.size() - 1;
  --index_shift_;
  for (const std::uint32_t slot : old) {
    if (slot == 0) continue;
    std::size_t i = home_of(slab_[slot - 1].original);
    while (index_[i] != 0) i = (i + 1) & index_mask_;
    index_[i] = slot;
  }
}

void OnlineDensifier::touch(std::uint32_t idx) {
  if (lru_head_ == idx) return;
  HotEntry& e = slab_[idx];
  // Unlink.
  if (e.prev != kNil) slab_[e.prev].next = e.next;
  if (e.next != kNil) slab_[e.next].prev = e.prev;
  if (lru_tail_ == idx) lru_tail_ = e.prev;
  // Relink at head.
  e.prev = kNil;
  e.next = lru_head_;
  if (lru_head_ != kNil) slab_[lru_head_].prev = idx;
  lru_head_ = idx;
  if (lru_tail_ == kNil) lru_tail_ = idx;
}

void OnlineDensifier::insert_hot(DocumentId original, DocumentId dense) {
  std::uint32_t idx;
  if (slab_.size() >= options_.hot_capacity) {
    // Spill the least recently used mapping to the cold tier; the new
    // mapping takes its slab entry, so every slab entry is live.
    idx = lru_tail_;
    assert(idx != kNil);
    HotEntry& v = slab_[idx];
    pending_.emplace(v.original, v.dense);
    ++spills_;
    if (pending_.size() >= kFlushThreshold) flush_pending();
    index_erase(v.original);
    lru_tail_ = v.prev;
    if (lru_tail_ != kNil) slab_[lru_tail_].next = kNil;
    if (lru_head_ == idx) lru_head_ = kNil;
  } else {
    idx = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  HotEntry& e = slab_[idx];
  e.original = original;
  e.dense = dense;
  e.prev = kNil;
  e.next = lru_head_;
  if (lru_head_ != kNil) slab_[lru_head_].prev = idx;
  lru_head_ = idx;
  if (lru_tail_ == kNil) lru_tail_ = idx;
  index_insert(idx);
}

bool OnlineDensifier::cold_lookup(DocumentId original,
                                  DocumentId& dense) const {
  // A document's dense id never changes once assigned, so any tier that
  // holds the mapping returns the same answer — search order is a matter of
  // cost only.
  if (auto it = pending_.find(original); it != pending_.end()) {
    dense = it->second;
    return true;
  }
  for (auto rit = runs_.rbegin(); rit != runs_.rend(); ++rit) {
    const auto& run = *rit;
    auto it = std::lower_bound(run.begin(), run.end(), original,
                               [](const Mapping& m, DocumentId id) {
                                 return m.original < id;
                               });
    if (it != run.end() && it->original == original) {
      dense = it->dense;
      return true;
    }
  }
  return false;
}

void OnlineDensifier::flush_pending() {
  if (pending_.empty()) return;
  std::vector<Mapping> run;
  run.reserve(pending_.size());
  for (const auto& [original, dense] : pending_) {
    run.push_back({original, dense});
  }
  pending_.clear();
  std::sort(run.begin(), run.end(), [](const Mapping& a, const Mapping& b) {
    return a.original < b.original;
  });
  runs_.push_back(std::move(run));
  // Geometric merging: collapse the newest runs while they are within 2x of
  // the run below, keeping the run count logarithmic in total spills.
  while (runs_.size() >= 2) {
    const auto& a = runs_[runs_.size() - 2];
    const auto& b = runs_.back();
    if (b.size() * 2 < a.size()) break;
    std::vector<Mapping> merged;
    merged.reserve(a.size() + b.size());
    auto ai = a.begin();
    auto bi = b.begin();
    while (ai != a.end() && bi != b.end()) {
      if (ai->original < bi->original) {
        merged.push_back(*ai++);
      } else if (bi->original < ai->original) {
        merged.push_back(*bi++);
      } else {
        assert(ai->dense == bi->dense);
        merged.push_back(*ai++);
        ++bi;
      }
    }
    merged.insert(merged.end(), ai, a.end());
    merged.insert(merged.end(), bi, b.end());
    runs_.pop_back();
    runs_.pop_back();
    runs_.push_back(std::move(merged));
  }
}

void OnlineDensifier::save_state(util::StateWriter& w) const {
  // Scatter every assigned mapping from all three tiers into dense-id
  // order. A promoted document lives in the hot tier AND still in
  // pending/runs (promotion copies, it does not remove), but a dense id is
  // assigned to exactly one original, so a repeat writes the same value.
  std::vector<DocumentId> by_dense(static_cast<std::size_t>(next_dense_));
  for (const HotEntry& e : slab_) {
    by_dense[static_cast<std::size_t>(e.dense)] = e.original;
  }
  for (const auto& [original, dense] : pending_) {
    by_dense[static_cast<std::size_t>(dense)] = original;
  }
  for (const auto& run : runs_) {
    for (const Mapping& m : run) {
      by_dense[static_cast<std::size_t>(m.dense)] = m.original;
    }
  }
  w.put_u64(by_dense.size());
  for (const DocumentId original : by_dense) w.put_u64(original);
}

void OnlineDensifier::restore_state(util::StateReader& r) {
  if (next_dense_ != 0) {
    throw std::logic_error(
        "OnlineDensifier::restore_state: instance already assigned ids");
  }
  const std::uint64_t n = r.take_u64();
  for (std::uint64_t dense = 0; dense < n; ++dense) {
    const DocumentId original = r.take_u64();
    if (densify(original) != dense) {
      r.fail("duplicate original id in densifier mapping");
    }
  }
}

}  // namespace webcache::trace
