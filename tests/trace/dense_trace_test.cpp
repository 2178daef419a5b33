#include "trace/dense_trace.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "synth/generator.hpp"
#include "synth/profile.hpp"

namespace webcache::trace {
namespace {

Trace tiny_trace() {
  Trace t;
  auto req = [](DocumentId doc, std::uint64_t size) {
    Request r;
    r.document = doc;
    r.document_size = size;
    r.transfer_size = size;
    return r;
  };
  t.requests = {req(900, 10), req(77, 20), req(900, 10), req(5, 30),
                req(77, 20)};
  return t;
}

TEST(DenseTrace, RenumbersInFirstAppearanceOrder) {
  const DenseTrace dense = densify(tiny_trace());
  ASSERT_EQ(dense.document_count(), 3u);
  EXPECT_EQ(dense.trace.requests[0].document, 0u);
  EXPECT_EQ(dense.trace.requests[1].document, 1u);
  EXPECT_EQ(dense.trace.requests[2].document, 0u);
  EXPECT_EQ(dense.trace.requests[3].document, 2u);
  EXPECT_EQ(dense.trace.requests[4].document, 1u);
  EXPECT_EQ(dense.original_id(0), 900u);
  EXPECT_EQ(dense.original_id(1), 77u);
  EXPECT_EQ(dense.original_id(2), 5u);
}

TEST(DenseTrace, PreservesEveryOtherRequestField) {
  const Trace source = tiny_trace();
  const DenseTrace dense = densify(source);
  ASSERT_EQ(dense.trace.requests.size(), source.requests.size());
  for (std::size_t i = 0; i < source.requests.size(); ++i) {
    const Request& a = source.requests[i];
    const Request& b = dense.trace.requests[i];
    EXPECT_EQ(dense.original_id(b.document), a.document);
    EXPECT_EQ(b.timestamp_ms, a.timestamp_ms);
    EXPECT_EQ(b.client, a.client);
    EXPECT_EQ(b.doc_class, a.doc_class);
    EXPECT_EQ(b.status, a.status);
    EXPECT_EQ(b.document_size, a.document_size);
    EXPECT_EQ(b.transfer_size, a.transfer_size);
  }
}

TEST(DenseTrace, MoveOverloadMatchesCopyOverload) {
  Trace source = tiny_trace();
  const DenseTrace copied = densify(source);
  const DenseTrace moved = densify(std::move(source));
  ASSERT_EQ(copied.document_count(), moved.document_count());
  ASSERT_EQ(copied.trace.requests.size(), moved.trace.requests.size());
  for (std::size_t i = 0; i < copied.trace.requests.size(); ++i) {
    EXPECT_EQ(copied.trace.requests[i].document,
              moved.trace.requests[i].document);
  }
}

TEST(DenseTrace, SyntheticTraceIdsStayInBounds) {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  const DenseTrace dense = densify(generator.generate());
  EXPECT_GT(dense.document_count(), 0u);
  for (const Request& r : dense.trace.requests) {
    ASSERT_LT(r.document, dense.document_count());
  }
  // Aggregate trace properties are invariant under renumbering.
  const Trace original =
      synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.002))
          .generate();
  EXPECT_EQ(dense.trace.distinct_documents(), original.distinct_documents());
  EXPECT_EQ(dense.trace.requested_bytes(), original.requested_bytes());
  EXPECT_EQ(dense.trace.overall_size_bytes(), original.overall_size_bytes());
  EXPECT_EQ(dense.overall_size_bytes(), original.overall_size_bytes());
}

TEST(DenseTrace, OverallSizeCountsEachDocumentAtItsLastSize) {
  Trace t = tiny_trace();
  Request resized = t.requests[0];
  resized.document_size = 25;  // document 900 grows from 10 to 25 bytes
  t.requests.push_back(resized);
  const DenseTrace dense = densify(t);
  EXPECT_EQ(dense.overall_size_bytes(), 25u + 20u + 30u);
  EXPECT_EQ(dense.overall_size_bytes(), t.overall_size_bytes());
}

TEST(DenseTrace, MatchesAReferenceRenumberingAcrossTableGrowth) {
  // Sequential, strided and scrambled ids, revisited out of order, so the
  // id table grows many times and probes past occupied slots.
  Trace t;
  std::uint64_t x = 12345;
  for (std::uint64_t i = 0; i < 30000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    Request r;
    switch (i % 3) {
      case 0: r.document = i / 3; break;
      case 1: r.document = (x % 5000) << 40; break;
      default: r.document = x >> (x % 48); break;
    }
    t.requests.push_back(r);
  }
  std::unordered_map<DocumentId, DocumentId> reference;
  std::vector<DocumentId> expected;
  for (const Request& r : t.requests) {
    const auto [it, inserted] = reference.emplace(r.document, reference.size());
    expected.push_back(it->second);
  }

  const DenseTrace dense = densify(t);
  ASSERT_EQ(dense.document_count(), reference.size());
  for (std::size_t i = 0; i < t.requests.size(); ++i) {
    ASSERT_EQ(dense.trace.requests[i].document, expected[i]) << "request " << i;
    ASSERT_EQ(dense.original_id(expected[i]), t.requests[i].document);
  }
}

TEST(DenseTrace, EmptyTrace) {
  const DenseTrace dense = densify(Trace{});
  EXPECT_EQ(dense.document_count(), 0u);
  EXPECT_TRUE(dense.trace.requests.empty());
  EXPECT_EQ(dense.overall_size_bytes(), 0u);
}

}  // namespace
}  // namespace webcache::trace
