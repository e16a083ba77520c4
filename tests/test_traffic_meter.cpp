#include "net/traffic_meter.hpp"

#include <gtest/gtest.h>

#include "meter_diff.hpp"

namespace cloudsync {
namespace {

TEST(TrafficMeter, StartsEmpty) {
  traffic_meter m;
  EXPECT_EQ(m.total(), 0u);
  EXPECT_EQ(m.overhead(), 0u);
}

TEST(TrafficMeter, RecordsByDirectionAndCategory) {
  traffic_meter m;
  m.record(direction::up, traffic_category::payload, 100);
  m.record(direction::down, traffic_category::payload, 50);
  m.record(direction::up, traffic_category::metadata, 10);
  EXPECT_EQ(m.total(), 160u);
  EXPECT_EQ(m.total(direction::up), 110u);
  EXPECT_EQ(m.total(direction::down), 50u);
  EXPECT_EQ(m.by_category(traffic_category::payload), 150u);
  EXPECT_EQ(m.get(direction::up, traffic_category::metadata), 10u);
}

TEST(TrafficMeter, OverheadExcludesPayload) {
  traffic_meter m;
  m.record(direction::up, traffic_category::payload, 1000);
  m.record(direction::up, traffic_category::transport, 30);
  m.record(direction::down, traffic_category::notification, 20);
  EXPECT_EQ(m.overhead(), 50u);
}

TEST(TrafficMeter, Reset) {
  traffic_meter m;
  m.record(direction::up, traffic_category::payload, 5);
  m.reset();
  EXPECT_EQ(m.total(), 0u);
}

TEST(TrafficMeter, SnapshotDelta) {
  traffic_meter m;
  m.record(direction::up, traffic_category::payload, 100);
  const auto snap = m.snap();
  m.record(direction::down, traffic_category::metadata, 40);
  m.record(direction::up, traffic_category::payload, 10);
  EXPECT_EQ(m.total_since(snap), 50u);
}

TEST(TrafficMeter, SnapshotDeltaClampsAfterReset) {
  // Regression: a snapshot taken before reset() has counters larger than the
  // live ones; the unsigned subtraction used to wrap to ~2^64 instead of
  // clamping at zero.
  traffic_meter m;
  m.record(direction::up, traffic_category::payload, 1000);
  const auto snap = m.snap();
  m.reset();
  EXPECT_EQ(m.total_since(snap), 0u);
  // Per-counter clamping: growth in one counter is not cancelled by the
  // stale (post-reset) deficit in another.
  m.record(direction::down, traffic_category::metadata, 70);
  EXPECT_EQ(m.total_since(snap), 70u);
  // A counter that regrew past its snapshot value counts only the excess.
  m.record(direction::up, traffic_category::payload, 1010);
  EXPECT_EQ(m.total_since(snap), 80u);
}

TEST(TrafficMeter, RetryCategoryIsTracked) {
  traffic_meter m;
  m.record(direction::up, traffic_category::retry, 300);
  m.record(direction::down, traffic_category::retry, 100);
  EXPECT_EQ(m.by_category(traffic_category::retry), 400u);
  EXPECT_EQ(m.overhead(), 400u);  // wasted bytes are overhead, not payload
  EXPECT_STREQ(to_string(traffic_category::retry), "retry");
  EXPECT_NE(m.summary().find("retry"), std::string::npos);
}

TEST(TrafficMeter, SummaryRendersAllCategories) {
  traffic_meter m;
  m.record(direction::up, traffic_category::payload, 1024);
  const std::string s = m.summary();
  EXPECT_NE(s.find("payload"), std::string::npos);
  EXPECT_NE(s.find("metadata"), std::string::npos);
  EXPECT_NE(s.find("transport"), std::string::npos);
  EXPECT_NE(s.find("notification"), std::string::npos);
  EXPECT_NE(s.find("TOTAL"), std::string::npos);
}

TEST(TrafficMeter, CategoryNames) {
  EXPECT_STREQ(to_string(traffic_category::payload), "payload");
  EXPECT_STREQ(to_string(traffic_category::transport), "transport");
}

TEST(TrafficMeter, RedundancyCategoryIsTracked) {
  // Proactive redundancy (FEC parity shards, losing hedge duplicates) is
  // overhead the transfer scheduler spends on purpose — metered apart from
  // `retry` (reactive) so the frontier bench can price each separately.
  traffic_meter m;
  m.record(direction::up, traffic_category::redundancy, 4096);
  m.record(direction::down, traffic_category::redundancy, 32);
  EXPECT_EQ(m.by_category(traffic_category::redundancy), 4128u);
  EXPECT_EQ(m.overhead(), 4128u);
  EXPECT_STREQ(to_string(traffic_category::redundancy), "redundancy");
  EXPECT_NE(m.summary().find("redundancy"), std::string::npos);
}

TEST(TrafficMeter, RedundancySurvivesResetAndSnapshotClamp) {
  traffic_meter m;
  m.record(direction::up, traffic_category::redundancy, 1000);
  const auto snap = m.snap();
  m.reset();
  EXPECT_EQ(m.by_category(traffic_category::redundancy), 0u);
  // Clamped, not wrapped, against the pre-reset snapshot...
  EXPECT_EQ(m.total_since(snap), 0u);
  // ...and growth after the reset counts only the excess over the snapshot.
  m.record(direction::up, traffic_category::redundancy, 1250);
  EXPECT_EQ(m.total_since(snap), 250u);
}

TEST(TrafficMeter, RehydrateCategoryIsTracked) {
  // Miss-driven re-hydration of the client cache tier (ranged fetches of
  // evicted blocks) is traffic a full-replica client never pays — metered
  // apart from `payload` so the cache bench can price residency misses and
  // the uncapped-identity leg can assert it reads exactly zero.
  traffic_meter m;
  m.record(direction::down, traffic_category::rehydrate, 8192);
  m.record(direction::up, traffic_category::rehydrate, 96);
  EXPECT_EQ(m.by_category(traffic_category::rehydrate), 8288u);
  EXPECT_EQ(m.overhead(), 8288u);
  EXPECT_STREQ(to_string(traffic_category::rehydrate), "rehydrate");
  EXPECT_NE(m.summary().find("rehydrate"), std::string::npos);
}

TEST(TrafficMeter, RehydrateSurvivesResetAndSnapshotClamp) {
  // A meter reset mid-rehydration (crash retirement, window rollover) must
  // clamp against the pre-reset snapshot, never underflow.
  traffic_meter m;
  m.record(direction::down, traffic_category::rehydrate, 1000);
  const auto snap = m.snap();
  m.reset();
  EXPECT_EQ(m.by_category(traffic_category::rehydrate), 0u);
  EXPECT_EQ(m.total_since(snap), 0u);
  m.record(direction::down, traffic_category::rehydrate, 1250);
  EXPECT_EQ(m.total_since(snap), 250u);
}

TEST(TrafficMeter, EqualityComparesEveryCellAndDiffNamesIt) {
  // Same totals, different cells: equality and meter_diff must both see it.
  traffic_meter a, b;
  a.record(direction::up, traffic_category::payload, 100);
  b.record(direction::down, traffic_category::payload, 100);
  EXPECT_EQ(a.total(), b.total());
  EXPECT_FALSE(a == b);
  EXPECT_EQ(meter_diff(a, b),
            "up/payload: 100 vs 0\ndown/payload: 0 vs 100\n");
  b.reset();
  b.record(direction::up, traffic_category::payload, 100);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(meter_diff(a, b), "");
}

}  // namespace
}  // namespace cloudsync
