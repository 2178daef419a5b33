// Dense document-id remapping.
//
// Real traces identify documents by 64-bit URL hashes, so every per-request
// container in the simulator (object table, LRU index, heap slot index,
// last-size map) has to be an unordered_map keyed by a sparse id. Replaying
// a multi-million-request trace then pays a hash probe — and usually a
// cache miss — per request per container.
//
// densify() makes one pass over a Trace and renumbers documents into the
// compact range [0, distinct_documents), in order of first appearance, while
// keeping a table mapping each dense id back to the original DocumentId.
// Every downstream structure can then be a flat array indexed by document
// id. Remapping changes nothing observable: document identity is only ever
// compared for equality, and policies break ties by insertion sequence, so
// simulation results are bit-identical to the sparse-id path (covered by
// tests/sim/dense_equivalence_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "trace/request.hpp"

namespace webcache::trace {

/// A Trace whose Request::document fields have been renumbered to the dense
/// range [0, document_count()), plus the table to translate back.
struct DenseTrace {
  /// The remapped trace; safe to pass anywhere a Trace is accepted. The
  /// dense simulate()/run_sweep() overloads additionally exploit the bound.
  Trace trace;

  /// original_ids[dense_id] = the DocumentId the source trace used.
  std::vector<DocumentId> original_ids;

  /// Number of distinct documents == the exclusive upper bound on every
  /// Request::document in `trace`.
  std::uint64_t document_count() const { return original_ids.size(); }

  DocumentId original_id(DocumentId dense_id) const {
    return original_ids[dense_id];
  }

  /// Trace::overall_size_bytes() over the dense ids: one pass into a flat
  /// last-size array instead of a hash map keyed by document.
  std::uint64_t overall_size_bytes() const;
};

/// One-pass remap (first appearance order). The copying overload leaves the
/// source untouched; the rvalue overload renumbers in place.
DenseTrace densify(const Trace& source);
DenseTrace densify(Trace&& source);

}  // namespace webcache::trace
