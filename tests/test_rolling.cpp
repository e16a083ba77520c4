// Rolling checksum property: sliding must equal recomputation at every offset.
#include <gtest/gtest.h>

#include "util/adler32.hpp"
#include "util/rng.hpp"

namespace cloudsync {
namespace {

class RollingWindow : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RollingWindow, RollEqualsRecompute) {
  const std::size_t window = GetParam();
  rng r(123);
  const byte_buffer data = random_bytes(r, window * 8 + 13);

  rolling_checksum rc(window);
  rc.reset(byte_view{data}.first(window));
  EXPECT_EQ(rc.value(), weak_checksum(byte_view{data}.first(window)));

  for (std::size_t pos = 1; pos + window <= data.size(); ++pos) {
    rc.roll(data[pos - 1], data[pos + window - 1]);
    ASSERT_EQ(rc.value(),
              weak_checksum(byte_view{data}.subspan(pos, window)))
        << "mismatch at offset " << pos << " window " << window;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, RollingWindow,
                         ::testing::Values(1, 2, 7, 16, 64, 700, 1024, 4096));

TEST(RollingChecksum, SeedFromWeakEqualsResetUnderRolls) {
  // seed() keeps only the packed low 16 bits of each sum; reset() keeps the
  // full 32-bit sums. Every roll must still read the same value.
  rng r(77);
  for (const std::size_t window : {1u, 64u, 700u, 10240u}) {
    const byte_buffer data = random_bytes(r, window * 3 + 11);
    const byte_view first = byte_view{data}.first(window);
    rolling_checksum reset_rc(window), seeded_rc(window);
    reset_rc.reset(first);
    seeded_rc.seed(weak_checksum(first));
    ASSERT_EQ(seeded_rc.value(), reset_rc.value()) << window;
    for (std::size_t pos = 1; pos + window <= data.size(); ++pos) {
      reset_rc.roll(data[pos - 1], data[pos + window - 1]);
      seeded_rc.roll(data[pos - 1], data[pos + window - 1]);
      ASSERT_EQ(seeded_rc.value(), reset_rc.value())
          << "window " << window << " offset " << pos;
    }
  }
}

TEST(RollingChecksum, TextRollMatches) {
  const std::string text =
      "the quick brown fox jumps over the lazy dog again and again";
  const std::size_t window = 10;
  rolling_checksum rc(window);
  rc.reset(as_bytes(text).first(window));
  for (std::size_t pos = 1; pos + window <= text.size(); ++pos) {
    rc.roll(static_cast<std::uint8_t>(text[pos - 1]),
            static_cast<std::uint8_t>(text[pos + window - 1]));
    ASSERT_EQ(rc.value(), weak_checksum(as_bytes(text).subspan(pos, window)));
  }
}

TEST(WeakChecksum, DiffersOnPermutation) {
  // The b-component makes the checksum order-sensitive.
  EXPECT_NE(weak_checksum(as_bytes("abcd")), weak_checksum(as_bytes("dcba")));
}

TEST(WeakChecksum, EmptyIsZero) { EXPECT_EQ(weak_checksum({}), 0u); }

TEST(WeakChecksum, WindowAccessor) {
  rolling_checksum rc(512);
  EXPECT_EQ(rc.window(), 512u);
}

}  // namespace
}  // namespace cloudsync
