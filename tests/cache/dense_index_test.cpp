// Growable dense indexes: ObjectTable, IndexedMinHeap and LruIndexList
// switched to dense mode with a 0 hint (as a stream densified online does)
// must behave operation for operation like their hash-backed sparse mode
// when fed ids in first-appearance order, including one forward jump past
// the current end of the flat index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cache/indexed_heap.hpp"
#include "cache/lru_list.hpp"
#include "cache/object_table.hpp"
#include "util/rng.hpp"

namespace webcache::cache {
namespace {

/// Ids in first-appearance order: either a fresh id (one past the largest
/// so far) or a repeat of an id already handed out. At request `jump_at`
/// the fresh-id counter skips forward by `jump`, so the next fresh id lands
/// far past the flat index's end.
class FirstAppearanceIds {
 public:
  FirstAppearanceIds(std::uint64_t seed, std::size_t jump_at,
                     std::uint64_t jump)
      : rng_(seed), jump_at_(jump_at), jump_(jump) {}

  ObjectId next() {
    if (++drawn_ == jump_at_) next_fresh_ += jump_;
    if (seen_.empty() || rng_.chance(0.4)) {
      seen_.push_back(next_fresh_++);
      return seen_.back();
    }
    return seen_[static_cast<std::size_t>(rng_.below(seen_.size()))];
  }

 private:
  util::Rng rng_;
  std::size_t jump_at_;
  std::uint64_t jump_;
  std::size_t drawn_ = 0;
  ObjectId next_fresh_ = 0;
  std::vector<ObjectId> seen_;
};

constexpr std::size_t kOps = 6000;
constexpr std::size_t kJumpAt = 2500;
constexpr std::uint64_t kJump = 5000;

CacheObject object(ObjectId id, std::uint64_t size) {
  CacheObject obj;
  obj.id = id;
  obj.size = size;
  return obj;
}

std::vector<ObjectId> ids_by_id(const ObjectTable& table) {
  std::vector<ObjectId> ids;
  table.for_each_by_id([&](const CacheObject& obj) { ids.push_back(obj.id); });
  return ids;
}

TEST(DenseIndexGrowth, ObjectTableMatchesSparseOperationForOperation) {
  ObjectTable sparse;
  ObjectTable dense;
  dense.reserve_dense(0);
  FirstAppearanceIds ids(11, kJumpAt, kJump);
  util::Rng rng(12);
  for (std::size_t op = 0; op < kOps; ++op) {
    const ObjectId id = ids.next();
    const CacheObject* s = sparse.find(id);
    const CacheObject* d = dense.find(id);
    ASSERT_EQ(s == nullptr, d == nullptr) << "op " << op << " id " << id;
    if (s == nullptr) {
      const std::uint64_t size = 1 + rng.below(1000);
      sparse.insert(object(id, size));
      dense.insert(object(id, size));
    } else {
      ASSERT_EQ(s->size, d->size) << "op " << op;
      if (rng.chance(0.5)) {
        sparse.erase(id);
        dense.erase(id);
      }
    }
    ASSERT_EQ(sparse.size(), dense.size()) << "op " << op;
  }
  const std::vector<ObjectId> order = ids_by_id(sparse);
  EXPECT_EQ(order, ids_by_id(dense));
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_GT(order.back(), kJump) << "the forward jump was never inserted";
}

TEST(DenseIndexGrowth, IndexedMinHeapMatchesSparseOperationForOperation) {
  using Heap = IndexedMinHeap<ObjectId, double>;
  Heap sparse;
  Heap dense;
  dense.reserve_dense_keys(0);
  FirstAppearanceIds ids(21, kJumpAt, kJump);
  util::Rng rng(22);
  for (std::size_t op = 0; op < kOps; ++op) {
    const ObjectId id = ids.next();
    ASSERT_EQ(sparse.contains(id), dense.contains(id)) << "op " << op;
    // Few distinct priorities, so the sequence tie-break is exercised.
    const double priority = static_cast<double>(rng.below(16));
    if (!sparse.contains(id)) {
      sparse.push(id, priority);
      dense.push(id, priority);
    } else if (rng.chance(0.6)) {
      sparse.update(id, priority);
      dense.update(id, priority);
    } else {
      sparse.erase(id);
      dense.erase(id);
    }
    if (rng.chance(0.1) && !sparse.empty()) {
      ASSERT_EQ(sparse.pop().key, dense.pop().key) << "op " << op;
    }
    ASSERT_EQ(sparse.size(), dense.size()) << "op " << op;
    if (!sparse.empty()) {
      ASSERT_EQ(sparse.top().key, dense.top().key) << "op " << op;
      ASSERT_EQ(sparse.top().sequence, dense.top().sequence) << "op " << op;
    }
  }
  EXPECT_TRUE(dense.check_invariants());
  while (!sparse.empty()) EXPECT_EQ(sparse.pop().key, dense.pop().key);
  EXPECT_TRUE(dense.empty());
}

TEST(DenseIndexGrowth, LruIndexListMatchesSparseOperationForOperation) {
  LruIndexList sparse;
  LruIndexList dense;
  dense.reserve_ids(0);
  FirstAppearanceIds ids(31, kJumpAt, kJump);
  util::Rng rng(32);
  const auto order = [](const LruIndexList& list) {
    std::vector<ObjectId> out;
    list.for_each_front_to_back([&](ObjectId id) { out.push_back(id); });
    return out;
  };
  for (std::size_t op = 0; op < kOps; ++op) {
    const ObjectId id = ids.next();
    ASSERT_EQ(sparse.contains(id), dense.contains(id)) << "op " << op;
    if (!sparse.contains(id)) {
      sparse.push_front(id);
      dense.push_front(id);
    } else if (rng.chance(0.7)) {
      sparse.move_to_front(id);
      dense.move_to_front(id);
    } else {
      sparse.erase(id);
      dense.erase(id);
    }
    ASSERT_EQ(sparse.size(), dense.size()) << "op " << op;
    if (!sparse.empty()) {
      ASSERT_EQ(sparse.back(), dense.back()) << "op " << op;
    }
    if (op % 500 == 0) {
      ASSERT_EQ(order(sparse), order(dense)) << "op " << op;
    }
  }
  EXPECT_EQ(order(sparse), order(dense));
}

TEST(DenseIndexGrowth, IdsPastTheDenseLimitAreRefusedNotAllocated) {
  // A sparse id (a URL hash) handed to a dense table must fail by name
  // instead of sizing a flat index to the id.
  const ObjectId huge = ObjectId{1} << 40;
  ObjectTable table;
  table.reserve_dense(0);
  EXPECT_THROW(table.insert(object(huge, 1)), std::length_error);
  EXPECT_TRUE(table.empty());

  IndexedMinHeap<ObjectId, double> heap;
  heap.reserve_dense_keys(0);
  EXPECT_THROW(heap.push(huge, 1.0), std::length_error);
  EXPECT_TRUE(heap.empty());

  LruIndexList list;
  list.reserve_ids(0);
  EXPECT_THROW(list.push_front(huge), std::length_error);
  EXPECT_TRUE(list.empty());
}

}  // namespace
}  // namespace webcache::cache
