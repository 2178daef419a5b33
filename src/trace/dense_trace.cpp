#include "trace/dense_trace.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace webcache::trace {

namespace {

// Original -> dense id map: open addressing with linear probing, at most
// three quarters full. A slot holds dense id + 1 (0 = empty) and the key is
// read back from the original-id table, so a slot is 4 bytes and an insert
// allocates nothing — densify() runs once per CLI replay, and a node-based
// map made it cost more than the dense replay it enables.
class DenseIdTable {
 public:
  DocumentId find_or_assign(DocumentId original,
                            std::vector<DocumentId>& original_ids) {
    std::size_t i = slot_of(original);
    for (; slots_[i] != 0; i = (i + 1) & mask_) {
      const DocumentId dense = slots_[i] - 1;
      if (original_ids[dense] == original) return dense;
    }
    const DocumentId dense = original_ids.size();
    if (dense >= std::numeric_limits<std::uint32_t>::max() - 1) {
      throw std::length_error("densify: more than 2^32 - 2 documents");
    }
    original_ids.push_back(original);
    slots_[i] = static_cast<std::uint32_t>(dense + 1);
    if (4 * original_ids.size() > 3 * slots_.size()) grow(original_ids);
    return dense;
  }

 private:
  // Fibonacci hashing: the top bits of id * 2^64/phi spread both
  // sequential (synthetic) and hashed (URL) ids over the table.
  std::size_t slot_of(DocumentId original) const {
    return static_cast<std::size_t>((original * 0x9e3779b97f4a7c15ULL) >>
                                    shift_);
  }

  void grow(const std::vector<DocumentId>& original_ids) {
    slots_.assign(slots_.size() * 2, 0);
    mask_ = slots_.size() - 1;
    --shift_;
    for (std::size_t dense = 0; dense < original_ids.size(); ++dense) {
      std::size_t i = slot_of(original_ids[dense]);
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = static_cast<std::uint32_t>(dense + 1);
    }
  }

  std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(64, 0);
  std::size_t mask_ = 63;
  unsigned shift_ = 64 - 6;  // 64 - log2(slots_.size())
};

DenseTrace densify_in_place(Trace&& source) {
  DenseTrace dense;
  DenseIdTable table;
  for (Request& r : source.requests) {
    r.document = table.find_or_assign(r.document, dense.original_ids);
  }
  dense.trace = std::move(source);
  return dense;
}

}  // namespace

std::uint64_t DenseTrace::overall_size_bytes() const {
  std::vector<std::uint64_t> last_size(original_ids.size(), 0);
  for (const Request& r : trace.requests) {
    last_size[static_cast<std::size_t>(r.document)] = r.document_size;
  }
  std::uint64_t total = 0;
  for (const std::uint64_t size : last_size) total += size;
  return total;
}

DenseTrace densify(const Trace& source) {
  Trace copy = source;
  return densify_in_place(std::move(copy));
}

DenseTrace densify(Trace&& source) {
  return densify_in_place(std::move(source));
}

}  // namespace webcache::trace
