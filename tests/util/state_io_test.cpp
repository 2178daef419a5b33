// Checkpoint byte-stream primitives: the CRC every WCKP section carries
// and the dense-id bound a densified restore reads ids through.
#include "util/state_io.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

namespace webcache::util {
namespace {

TEST(Crc32, KnownAnswer) {
  // The CRC-32/IEEE check value: any drift changes every checkpoint.
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32_bytewise(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(check.data(), 0), 0u);
}

TEST(Crc32, SlicedMatchesBytewiseAtEveryLengthAndAlignment) {
  // 8 bytes of slack on each side so every start alignment can be tried.
  alignas(8) std::array<std::uint8_t, 64 + 16> buffer{};
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t n = 0; n <= 64; ++n) {
      const std::uint8_t* p = buffer.data() + align;
      for (const std::uint32_t seed : {0u, 0xDEADBEEFu}) {
        EXPECT_EQ(crc32(p, n, seed), crc32_bytewise(p, n, seed))
            << "length " << n << " alignment " << align << " seed " << seed;
      }
    }
  }
}

TEST(Crc32, RunningDigestEqualsOneShot) {
  std::array<std::uint8_t, 100> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i ^ 0x5A);
  }
  for (const std::size_t split : {0u, 1u, 9u, 37u, 100u}) {
    const std::uint32_t head = crc32(bytes.data(), split);
    EXPECT_EQ(crc32(bytes.data() + split, bytes.size() - split, head),
              crc32(bytes.data(), bytes.size()))
        << "split " << split;
  }
}

TEST(StateReader, TakeIdEnforcesTheDenseBound) {
  StateWriter w;
  w.put_u64(6);
  w.put_u64(7);
  w.put_u64(std::uint64_t{1} << 40);
  const std::vector<std::uint8_t> bytes = w.take();

  StateReader unbounded(bytes.data(), bytes.size(), "cache");
  EXPECT_EQ(unbounded.take_id("resident object"), 6u);
  EXPECT_EQ(unbounded.take_id("resident object"), 7u);
  EXPECT_EQ(unbounded.take_id("resident object"), std::uint64_t{1} << 40);

  StateReader bounded(bytes.data(), bytes.size(), "cache");
  bounded.set_id_bound(7);
  EXPECT_EQ(bounded.id_bound(), 7u);
  EXPECT_EQ(bounded.take_id("resident object"), 6u);
  try {
    bounded.take_id("resident object");
    FAIL() << "id 7 accepted under a bound of 7";
  } catch (const StateError& e) {
    EXPECT_EQ(e.section(), "cache");
    EXPECT_NE(std::string(e.what()).find("resident object id 7"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace webcache::util
