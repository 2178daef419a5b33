// Resident-object metadata store for the Cache container.
//
// Sparse mode (default) keys an unordered_map by ObjectId — required when
// ids are URL hashes. Dense mode (reserve_dense) keeps the metadata in a
// compact slab vector plus a flat id -> slab-slot index, so the per-request
// lookup is one array load instead of a hash probe, and iteration touches
// only resident objects, contiguously. The index grows on demand
// (dense_index.hpp), so a stream densified online needs no universe.
//
// Pointer validity contract (narrower than unordered_map's): a pointer
// returned by find()/insert() is invalidated by the *next* insert or erase
// on the table. The Cache hot path never holds one across a mutation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "cache/dense_index.hpp"
#include "cache/types.hpp"

namespace webcache::cache {

class ObjectTable {
 public:
  std::uint64_t size() const {
    return dense_ ? slab_.size() : map_.size();
  }
  bool empty() const { return size() == 0; }

  /// Switches to the slab + flat-index representation for small
  /// non-negative ids, sized for [0, universe) up front; a larger id grows
  /// the index. Only legal while empty.
  void reserve_dense(std::uint64_t universe) {
    if (!empty()) {
      throw std::logic_error("ObjectTable: reserve_dense on non-empty table");
    }
    if (universe >= kNoSlot) {
      throw std::invalid_argument("ObjectTable: dense universe too large");
    }
    dense_ = true;
    map_.clear();
    slot_.assign(static_cast<std::size_t>(universe), kNoSlot);
  }

  CacheObject* find(ObjectId id) {
    if (dense_) {
      const auto i = static_cast<std::size_t>(id);
      if (i >= slot_.size() || slot_[i] == kNoSlot) return nullptr;
      return &slab_[slot_[i]];
    }
    const auto it = map_.find(id);
    return it == map_.end() ? nullptr : &it->second;
  }
  const CacheObject* find(ObjectId id) const {
    return const_cast<ObjectTable*>(this)->find(id);
  }
  bool contains(ObjectId id) const { return find(id) != nullptr; }

  /// Inserts a copy of obj (keyed by obj.id); throws on duplicates.
  CacheObject& insert(const CacheObject& obj) {
    if (dense_) {
      const auto i = static_cast<std::size_t>(obj.id);
      if (obj.id >= slot_.size()) {
        grow_dense_index(slot_, obj.id, kNoSlot, "ObjectTable");
      }
      if (slot_[i] != kNoSlot) {
        throw std::logic_error("ObjectTable: duplicate insert");
      }
      slot_[i] = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(obj);
      return slab_.back();
    }
    const auto [it, inserted] = map_.emplace(obj.id, obj);
    if (!inserted) throw std::logic_error("ObjectTable: duplicate insert");
    return it->second;
  }

  /// Removes id; throws when absent.
  void erase(ObjectId id) {
    if (dense_) {
      const auto i = static_cast<std::size_t>(id);
      if (i >= slot_.size() || slot_[i] == kNoSlot) {
        throw std::logic_error("ObjectTable: erasing absent object");
      }
      const std::uint32_t hole = slot_[i];
      const std::uint32_t last = static_cast<std::uint32_t>(slab_.size() - 1);
      if (hole != last) {
        slab_[hole] = slab_[last];
        slot_[static_cast<std::size_t>(slab_[hole].id)] = hole;
      }
      slab_.pop_back();
      slot_[i] = kNoSlot;
      return;
    }
    if (map_.erase(id) == 0) {
      throw std::logic_error("ObjectTable: erasing absent object");
    }
  }

  /// Drops all objects; keeps the dense/sparse mode and reserved index.
  void clear() {
    if (dense_) {
      slot_.assign(slot_.size(), kNoSlot);
      slab_.clear();
    } else {
      map_.clear();
    }
  }

  /// Visits every resident object (arbitrary order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (dense_) {
      for (const CacheObject& obj : slab_) fn(obj);
    } else {
      for (const auto& [id, obj] : map_) fn(obj);
    }
  }

  /// Visits every resident object in ascending id order: a walk of the
  /// flat index in dense mode, a sort of the resident set in sparse mode.
  template <typename Fn>
  void for_each_by_id(Fn&& fn) const {
    if (dense_) {
      for (const std::uint32_t s : slot_) {
        if (s != kNoSlot) fn(slab_[s]);
      }
      return;
    }
    std::vector<const CacheObject*> resident;
    resident.reserve(map_.size());
    for (const auto& [id, obj] : map_) resident.push_back(&obj);
    std::sort(resident.begin(), resident.end(),
              [](const CacheObject* a, const CacheObject* b) {
                return a->id < b->id;
              });
    for (const CacheObject* obj : resident) fn(*obj);
  }

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  bool dense_ = false;
  std::unordered_map<ObjectId, CacheObject> map_;
  std::vector<CacheObject> slab_;
  std::vector<std::uint32_t> slot_;
};

}  // namespace webcache::cache
