#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.hpp"

namespace cloudsync {
namespace {

TEST(Rng, Deterministic) {
  rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInBounds) {
  rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(r.uniform(17), 17u);
  }
}

TEST(Rng, UniformRangeInclusive) {
  rng r(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = r.uniform_range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInUnitInterval) {
  rng r(9);
  running_stats st;
  for (int i = 0; i < 50'000; ++i) {
    const double v = r.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    st.add(v);
  }
  EXPECT_NEAR(st.mean(), 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  rng r(10);
  running_stats st;
  for (int i = 0; i < 100'000; ++i) st.add(r.normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.02);
  EXPECT_NEAR(st.stddev(), 1.0, 0.02);
}

TEST(Rng, LognormalMedian) {
  rng r(11);
  std::vector<double> v;
  for (int i = 0; i < 50'000; ++i) v.push_back(r.lognormal(8.92, 3.11));
  empirical_cdf cdf(std::move(v));
  // Median of lognormal = e^mu ≈ 7.5 KB.
  EXPECT_NEAR(cdf.median(), std::exp(8.92), std::exp(8.92) * 0.15);
}

TEST(Rng, ExponentialMean) {
  rng r(12);
  running_stats st;
  for (int i = 0; i < 100'000; ++i) st.add(r.exponential(0.5));
  EXPECT_NEAR(st.mean(), 2.0, 0.05);
}

TEST(Rng, ZipfSkewsLow) {
  rng r(13);
  std::size_t low = 0;
  constexpr int kDraws = 10'000;
  for (int i = 0; i < kDraws; ++i) {
    if (r.zipf(1000, 1.2) < 10) ++low;
  }
  // A zipf(1.2) distribution concentrates heavily on the first ranks.
  EXPECT_GT(low, kDraws / 3);
}

TEST(Rng, ChanceExtremes) {
  rng r(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(RandomBytes, SizeAndDeterminism) {
  rng a(15), b(15);
  const byte_buffer x = random_bytes(a, 1000);
  const byte_buffer y = random_bytes(b, 1000);
  EXPECT_EQ(x.size(), 1000u);
  EXPECT_EQ(x, y);
}

TEST(RandomBytes, OddSizes) {
  rng r(16);
  for (std::size_t n : {0, 1, 7, 8, 9, 15}) {
    EXPECT_EQ(random_bytes(r, n).size(), n);
  }
}

TEST(RandomBytes, LittleEndianWordsIncludingTail) {
  // Every size from one byte to two words plus one: the bytes are successive
  // next() values in little-endian order, a partial tail takes the low bytes
  // of one more draw, and exactly ceil(n / 8) draws are consumed.
  for (std::size_t n = 1; n <= 17; ++n) {
    rng a(17 + n), b(17 + n);
    const byte_buffer got = random_bytes(a, n);
    byte_buffer want;
    while (want.size() < n) {
      const std::uint64_t v = b.next();
      for (int k = 0; k < 8 && want.size() < n; ++k) {
        want.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
      }
    }
    EXPECT_EQ(got, want) << "n=" << n;
    EXPECT_EQ(a.next(), b.next()) << "n=" << n;
  }
}

TEST(RandomText, LooksLikeWords) {
  rng r(17);
  const byte_buffer t = random_text(r, 500);
  EXPECT_EQ(t.size(), 500u);
  int separators = 0;
  for (std::uint8_t c : t) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                c == ' ' || c == '\n')
        << int(c);
    separators += c == ' ' || c == '\n';
  }
  EXPECT_GT(separators, 50);
}

TEST(SyntheticPayload, HitsTargetRatioApproximately) {
  rng r(18);
  const byte_buffer p = synthetic_payload(r, 100'000, 2.0);
  EXPECT_EQ(p.size(), 100'000u);
  // Roughly half of the runs should be single-byte fills.
  std::size_t repeats = 0;
  for (std::size_t i = 1; i < p.size(); ++i) repeats += p[i] == p[i - 1];
  EXPECT_GT(repeats, p.size() / 3);
  EXPECT_LT(repeats, p.size() * 3 / 4);
}

TEST(SyntheticPayload, RatioOneIsRandom) {
  rng r(19);
  const byte_buffer p = synthetic_payload(r, 10'000, 1.0);
  std::size_t repeats = 0;
  for (std::size_t i = 1; i < p.size(); ++i) repeats += p[i] == p[i - 1];
  EXPECT_LT(repeats, 200u);  // ~1/256 expected
}

}  // namespace
}  // namespace cloudsync
