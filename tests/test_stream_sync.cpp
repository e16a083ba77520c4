// Streaming sync vs legacy whole-file planning: the two worlds must meter
// byte-identical traffic in every category, converge to the same cloud
// state, and the streaming world must never flatten whole files.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "meter_diff.hpp"

namespace cloudsync {
namespace {

/// The same seeded workload replayed in one world: a mix of compressible,
/// text, and incompressible files, then edits and appends — every planning
/// path (full upload, delta, dedup probe) gets exercised.
void run_workload(experiment_env& env) {
  station& st = env.primary();
  rng content(7);
  st.fs.create("a.bin", make_compressed_file(content, 600 * 1024),
               env.clock().now());
  st.fs.create("b.txt", make_text_file(content, 200 * 1024),
               env.clock().now());
  st.fs.create("c.rand", random_bytes(content, 150 * 1024),
               env.clock().now());
  env.settle();
  for (int i = 0; i < 3; ++i) {
    env.clock().advance_to(env.clock().now() + sim_time::from_sec(60));
    modify_random_byte(st.fs, "a.bin", env.random(), env.clock().now());
    env.settle();
  }
  env.clock().advance_to(env.clock().now() + sim_time::from_sec(60));
  append_random(st.fs, "b.txt", env.random(), 32 * 1024, env.clock().now());
  env.settle();
  env.clock().advance_to(env.clock().now() + sim_time::from_sec(60));
  modify_random_byte(st.fs, "c.rand", env.random(), env.clock().now());
  env.settle();
}

struct world_result {
  traffic_meter meter;
  std::uint64_t commits = 0;
  std::uint64_t a_hash = 0, b_hash = 0, c_hash = 0;
};

world_result run_world(service_profile profile, bool whole_file_planning,
                       bool journal) {
  experiment_config cfg{std::move(profile)};
  cfg.method = access_method::pc_client;
  // No process-wide caches: a value computed by one world must never be
  // served to the other, or a divergence would be silently hidden.
  cfg.use_content_cache = false;
  cfg.whole_file_planning = whole_file_planning;
  cfg.journal = journal;
  experiment_env env(cfg);
  run_workload(env);

  world_result res;
  res.meter = env.primary().client->meter();
  res.commits = env.primary().client->commit_count();
  res.a_hash = env.the_cloud().file_content(0, "a.bin")->hash64();
  res.b_hash = env.the_cloud().file_content(0, "b.txt")->hash64();
  res.c_hash = env.the_cloud().file_content(0, "c.rand")->hash64();
  return res;
}

void expect_identical_worlds(const world_result& legacy,
                             const world_result& streaming) {
  // The satellite self-check: per-category, per-direction equality — not
  // just grand totals, which could mask compensating differences.
  EXPECT_TRUE(streaming.meter == legacy.meter)
      << meter_diff(streaming.meter, legacy.meter);
  EXPECT_EQ(streaming.commits, legacy.commits);
  EXPECT_EQ(streaming.a_hash, legacy.a_hash);
  EXPECT_EQ(streaming.b_hash, legacy.b_hash);
  EXPECT_EQ(streaming.c_hash, legacy.c_hash);
}

TEST(StreamSync, DeltaServiceMetersIdenticalTraffic) {
  // Dropbox: IDS + compression + dedup — the full streaming surface.
  expect_identical_worlds(run_world(dropbox(), true, false),
                          run_world(dropbox(), false, false));
}

TEST(StreamSync, FullFileServiceMetersIdenticalTraffic) {
  // Google Drive: no IDS, so this pins the wire_payload_size_ref path.
  expect_identical_worlds(run_world(google_drive(), true, false),
                          run_world(google_drive(), false, false));
}

TEST(StreamSync, ResumableSessionsMeterIdenticalTraffic) {
  // Journaled world: uploads ship through resumable sessions; streaming
  // delta literals must charge the identical resume/payload bytes.
  expect_identical_worlds(run_world(dropbox(), true, true),
                          run_world(dropbox(), false, true));
}

TEST(StreamSync, SugarSyncLargeDeltaBlocksIdentical) {
  // 128 KiB delta blocks stress different tail/boundary cases than 10 KiB.
  expect_identical_worlds(run_world(sugarsync(), true, false),
                          run_world(sugarsync(), false, false));
}

}  // namespace
}  // namespace cloudsync
