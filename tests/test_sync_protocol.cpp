// The pluggable protocol registry and the adaptive selector: registration
// order, the service-default ordering (the byte-identity anchor), forced-
// mode fallback, deterministic tiebreaks, and end-to-end selection through
// the experiment harness at different grid thread counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "core/experiment.hpp"
#include "fs/file_ops.hpp"
#include "meter_diff.hpp"
#include "util/parallel_runner.hpp"

namespace cloudsync {
namespace {

service_profile lab_profile() {
  service_profile s = dropbox();
  s.name = "lab";
  s.delta_chunk_size = 4 * KiB;
  s.dedup = {dedup_granularity::content_defined, 4 * MiB,
             /*cross_user=*/false, cdc_params{}};
  return s;
}

struct fixture {
  service_profile profile = lab_profile();
  cloud cl;
  planning_env env;
  std::string path = "f";

  fixture() : cl(cloud_config{lab_profile().dedup}) {
    env.profile = &profile;
    env.method = access_method::pc_client;
    env.cl = &cl;
  }

  protocol_update update_for(const content_ref& content,
                             shadow_entry* shadow) {
    protocol_update up;
    up.path = &path;
    up.content = &content;
    up.in_cloud = shadow != nullptr;
    up.shadow = shadow;
    return up;
  }
};

TEST(SyncProtocol, RegistryHoldsBuiltinsInIdOrder) {
  protocol_registry& reg = protocol_registry::instance();
  ASSERT_GE(reg.size(), 3u);
  const auto all = reg.all();
  EXPECT_EQ(all[0]->id(), protocol_id::full_file);
  EXPECT_EQ(all[1]->id(), protocol_id::rsync);
  EXPECT_EQ(all[2]->id(), protocol_id::cdc_dedup);
  for (const sync_protocol* p : all) {
    EXPECT_EQ(reg.find(p->id()), p);
    EXPECT_STRNE(p->name(), "");
  }
}

TEST(SyncProtocol, ServiceDefaultReproducesLegacyOrdering) {
  fixture fx;
  rng r(5);
  const byte_buffer data = make_text_file(r, 16 * KiB);
  const content_ref content = content_ref::from_buffer(byte_buffer(data));
  shadow_entry sh;
  sh.content = content;

  // Shadow present + incremental sync: rsync first.
  protocol_update with_shadow = fx.update_for(content, &sh);
  EXPECT_EQ(select_service_default(fx.env, with_shadow).id(),
            protocol_id::rsync);

  // No shadow: dedup participation comes next.
  protocol_update fresh = fx.update_for(content, nullptr);
  EXPECT_EQ(select_service_default(fx.env, fresh).id(),
            protocol_id::cdc_dedup);

  // force_full vetoes the delta path even with a shadow.
  protocol_update vetoed = fx.update_for(content, &sh);
  vetoed.force_full = true;
  EXPECT_EQ(select_service_default(fx.env, vetoed).id(),
            protocol_id::cdc_dedup);

  // Neither mechanism available: full_file is the floor.
  fx.profile.method(access_method::pc_client).incremental_sync = false;
  fx.profile.method(access_method::pc_client).dedup_enabled = false;
  EXPECT_EQ(select_service_default(fx.env, with_shadow).id(),
            protocol_id::full_file);
}

TEST(SyncProtocol, ForcedModeFallsBackWhenIneligible) {
  fixture fx;
  rng r(9);
  const byte_buffer data = make_text_file(r, 16 * KiB);
  const content_ref content = content_ref::from_buffer(byte_buffer(data));

  protocol_options opts;
  opts.mode = protocol_mode::forced;
  opts.forced = protocol_id::rsync;
  protocol_selector sel(opts, link_config::minnesota());

  // No shadow: rsync is ineligible, the service default (cdc here) ships.
  protocol_update fresh = fx.update_for(content, nullptr);
  selector_pick pick;
  EXPECT_EQ(sel.choose(fx.env, fresh, &pick).id(), protocol_id::cdc_dedup);
  EXPECT_FALSE(pick.predicted);

  // With a shadow the forced protocol applies.
  shadow_entry sh;
  sh.content = content;
  protocol_update with_shadow = fx.update_for(content, &sh);
  EXPECT_EQ(sel.choose(fx.env, with_shadow, &pick).id(), protocol_id::rsync);

  const auto& picks = sel.stats().picks;
  EXPECT_EQ(picks[static_cast<std::size_t>(protocol_id::cdc_dedup)], 1u);
  EXPECT_EQ(picks[static_cast<std::size_t>(protocol_id::rsync)], 1u);
}

TEST(SyncProtocol, AdaptiveTieBreaksToLowestId) {
  // An empty file predicts zero app bytes for both full_file and cdc_dedup
  // (no fingerprints, no payload) — a perfect tie. Strict-less-than keeps
  // the first protocol in registration order: full_file, deterministically.
  fixture fx;
  const content_ref empty;
  protocol_options opts;
  opts.mode = protocol_mode::adaptive;
  protocol_selector sel(opts, link_config::minnesota());

  protocol_update up = fx.update_for(empty, nullptr);
  selector_pick pick;
  EXPECT_EQ(sel.choose(fx.env, up, &pick).id(), protocol_id::full_file);
  EXPECT_TRUE(pick.predicted);
  EXPECT_DOUBLE_EQ(pick.predicted_app_up, 0.0);
}

TEST(SyncProtocol, FullFilePlanMatchesEngineSizing) {
  fixture fx;
  rng r(21);
  const byte_buffer data = make_text_file(r, 16 * KiB);
  const content_ref content = content_ref::from_buffer(byte_buffer(data));
  protocol_update up = fx.update_for(content, nullptr);

  const sync_protocol* full =
      protocol_registry::instance().find(protocol_id::full_file);
  ASSERT_NE(full, nullptr);
  ASSERT_TRUE(full->eligible(fx.env, up));
  const upload_plan plan = full->plan(fx.env, up);
  EXPECT_EQ(plan.act, upload_action::full);
  EXPECT_EQ(plan.protocol, protocol_id::full_file);
  const int level = fx.env.mp().upload_compression_level;
  EXPECT_EQ(plan.payload_up, shipped_content_size(fx.env, content, level));
  EXPECT_TRUE(plan.dedup_commit);  // lab cloud runs a dedup index
  EXPECT_LT(plan.predicted_app_up, 0.0);  // no prediction outside adaptive
}

TEST(SyncProtocol, RsyncPlanCarriesBlueprint) {
  fixture fx;
  rng r(25);
  const byte_buffer old_data = make_text_file(r, 16 * KiB);
  byte_buffer new_data = old_data;
  new_data[100] ^= 0x5a;
  const content_ref content =
      content_ref::from_buffer(byte_buffer(new_data));
  shadow_entry sh;
  sh.content = content_ref::from_buffer(byte_buffer(old_data));
  protocol_update up = fx.update_for(content, &sh);

  const sync_protocol* rsync =
      protocol_registry::instance().find(protocol_id::rsync);
  ASSERT_NE(rsync, nullptr);
  ASSERT_TRUE(rsync->eligible(fx.env, up));
  const upload_plan plan = rsync->plan(fx.env, up);
  EXPECT_EQ(plan.act, upload_action::delta);
  EXPECT_EQ(plan.protocol, protocol_id::rsync);
  ASSERT_NE(plan.blueprint, nullptr);
  EXPECT_EQ(plan.payload_up,
            shipped_delta_size(fx.env, *plan.blueprint,
                               fx.env.mp().upload_compression_level));
  // A one-byte edit deltas to a fraction of the file.
  EXPECT_LT(plan.payload_up, new_data.size() / 2);
}

TEST(SyncProtocol, RsyncPlanIdenticalWithPreviousSignature) {
  // After a commit the shadow keeps the version it last signed and that
  // signature, so the next signature and delta take the sums of unchanged
  // blocks instead of hashing them. A chain of Dropbox edits planned with
  // that pair and with a fresh shadow must plan, ship and commit the same.
  const service_profile profile = dropbox();
  const std::string path = "doc";
  const sim_time t = sim_time::from_sec(1);
  rng r(37);
  content_ref cur = content_ref::from_buffer(random_bytes(r, 300 * KiB + 77));
  cloud warm_cl(cloud_config{profile.dedup});
  cloud fresh_cl(cloud_config{profile.dedup});
  warm_cl.put_file(0, 1, path, cur, cur.size(), t);
  fresh_cl.put_file(0, 1, path, cur, cur.size(), t);
  planning_env warm_env, fresh_env;
  warm_env.profile = fresh_env.profile = &profile;
  warm_env.cl = &warm_cl;
  fresh_env.cl = &fresh_cl;
  const sync_protocol* rsync =
      protocol_registry::instance().find(protocol_id::rsync);
  ASSERT_NE(rsync, nullptr);

  shadow_entry warm;
  warm.adopt(cur);  // nothing signed yet: no previous pair
  EXPECT_FALSE(warm.prev_sig);
  const std::size_t block = profile.delta_chunk_size;
  for (int step = 0; step < 8; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    content_ref next;
    switch (step % 4) {
      case 0:  // a small overwrite, as the paper's modification workload
        next = cur.patched(r.uniform(cur.size() - 128), random_bytes(r, 128));
        break;
      case 1:  // across a block boundary
        next = cur.patched(3 * block - 20, random_bytes(r, 40));
        break;
      case 2:  // append
        next = cur.appended(random_bytes(r, 5'000 + r.uniform(20'000)));
        break;
      default: {  // insert, shifting every later block
        content_ref::builder b;
        const std::size_t at = r.uniform(cur.size());
        b.append(cur, 0, at);
        b.append_bytes(random_bytes(r, 1 + r.uniform(500)));
        b.append(cur, at, cur.size() - at);
        next = b.build();
      }
    }
    shadow_entry fresh;
    fresh.content = cur;
    EXPECT_EQ(static_cast<bool>(warm.prev_sig), step > 0);

    protocol_update warm_up, fresh_up;
    warm_up.path = fresh_up.path = &path;
    warm_up.content = fresh_up.content = &next;
    warm_up.in_cloud = fresh_up.in_cloud = true;
    warm_up.shadow = &warm;
    fresh_up.shadow = &fresh;
    ASSERT_TRUE(rsync->eligible(warm_env, warm_up));
    const upload_plan pw = rsync->plan(warm_env, warm_up);
    const upload_plan pf = rsync->plan(fresh_env, fresh_up);
    EXPECT_FALSE(warm.prev_sig);  // dropped once the signature is built
    EXPECT_TRUE(warm.prev_content.empty());

    ASSERT_TRUE(warm.sig && fresh.sig);
    EXPECT_TRUE(warm.sig->blocks == fresh.sig->blocks);
    EXPECT_EQ(warm.sig_salt, fresh.sig_salt);

    ASSERT_EQ(pw.act, upload_action::delta);
    ASSERT_EQ(pf.act, upload_action::delta);
    EXPECT_EQ(pw.payload_up, pf.payload_up);
    EXPECT_EQ(pw.metadata_up, pf.metadata_up);
    EXPECT_EQ(pw.metadata_down, pf.metadata_down);
    EXPECT_EQ(pw.blueprint->wire_size, pf.blueprint->wire_size);
    EXPECT_EQ(pw.blueprint->wire_hash, pf.blueprint->wire_hash);
    const file_delta& dw = pw.blueprint->delta;
    const file_delta& df = pf.blueprint->delta;
    ASSERT_EQ(dw.ops.size(), df.ops.size());
    for (std::size_t i = 0; i < df.ops.size(); ++i) {
      EXPECT_EQ(dw.ops[i].op, df.ops[i].op) << i;
      EXPECT_EQ(dw.ops[i].block_index, df.ops[i].block_index) << i;
      EXPECT_EQ(dw.ops[i].block_count, df.ops[i].block_count) << i;
      EXPECT_EQ(dw.ops[i].literal_size(), df.ops[i].literal_size()) << i;
    }
    EXPECT_EQ(serialize_delta(dw), serialize_delta(df));

    warm_cl.apply_file_delta(0, 1, path, dw, t);
    fresh_cl.apply_file_delta(0, 1, path, df, t);
    const auto warm_stored = warm_cl.file_content(0, path);
    const auto fresh_stored = fresh_cl.file_content(0, path);
    ASSERT_TRUE(warm_stored && fresh_stored);
    EXPECT_TRUE(warm_stored->equal(next));
    EXPECT_TRUE(fresh_stored->equal(next));
    EXPECT_EQ(warm_cl.manifest(0, path)->version,
              fresh_cl.manifest(0, path)->version);
    EXPECT_EQ(warm_cl.manifest(0, path)->logical_size,
              fresh_cl.manifest(0, path)->logical_size);
    EXPECT_EQ(warm_cl.manifest(0, path)->stored_size,
              fresh_cl.manifest(0, path)->stored_size);

    warm.adopt(next);  // the signed version becomes the previous pair
    cur = next;
  }
}

TEST(SyncProtocol, AdaptiveExperimentCalibratesAndCommits) {
  experiment_config cfg{lab_profile()};
  cfg.method = access_method::pc_client;
  cfg.protocol.mode = protocol_mode::adaptive;
  const protocol_run_result r = run_protocol_experiment(
      cfg, protocol_workload::duplicate_copy, 3, 32 * KiB);

  EXPECT_GT(r.commits, 0u);
  EXPECT_GT(r.total_traffic, 0u);
  const protocol_selector_stats& s = r.selector;
  EXPECT_GT(s.observations, 0u);
  EXPECT_LT(s.median_abs_rel_error(), 0.5);
  std::uint64_t picks = 0;
  for (const std::uint64_t p : s.picks) picks += p;
  EXPECT_EQ(picks, s.observations);
  for (std::size_t p = 0; p < protocol_registry::instance().size(); ++p) {
    EXPECT_GE(s.correction[p], 0.1);
    EXPECT_LE(s.correction[p], 10.0);
  }
  // The duplicate copies must ride the dedup index, not re-upload.
  EXPECT_GT(s.picks[static_cast<std::size_t>(protocol_id::cdc_dedup)], 0u);
}

TEST(SyncProtocol, SelectionDeterministicAcrossGridThreads) {
  // The same adaptive cell evaluated on a 1-thread and a 4-thread grid must
  // meter identical bytes per (direction, category) and make identical
  // picks — selection state is per-client, never cross-run.
  const auto run_cell = [](protocol_workload wl) {
    experiment_config cfg{lab_profile()};
    cfg.method = access_method::pc_client;
    cfg.protocol.mode = protocol_mode::adaptive;
    return run_protocol_experiment(cfg, wl, 3, 32 * KiB);
  };
  const protocol_workload cells[] = {
      protocol_workload::small_edits, protocol_workload::fresh_rewrites,
      protocol_workload::duplicate_copy, protocol_workload::small_edits};

  std::vector<protocol_run_result> serial(std::size(cells));
  parallel_runner one(1);
  one.run_indexed(std::size(cells),
                  [&](std::size_t i) { serial[i] = run_cell(cells[i]); });
  std::vector<protocol_run_result> parallel(std::size(cells));
  parallel_runner four(4);
  four.run_indexed(std::size(cells),
                   [&](std::size_t i) { parallel[i] = run_cell(cells[i]); });

  for (std::size_t i = 0; i < std::size(cells); ++i) {
    EXPECT_EQ(serial[i].total_traffic, parallel[i].total_traffic) << i;
    EXPECT_EQ(serial[i].commits, parallel[i].commits) << i;
    EXPECT_EQ(serial[i].selector.picks, parallel[i].selector.picks) << i;
    EXPECT_EQ(serial[i].selector.observations,
              parallel[i].selector.observations)
        << i;
    EXPECT_TRUE(serial[i].meter == parallel[i].meter)
        << i << "\n" << meter_diff(serial[i].meter, parallel[i].meter);
  }
}

/// Sets CLOUDSYNC_THREADS for one scope and restores the previous value.
class scoped_threads_env {
 public:
  explicit scoped_threads_env(const char* value) {
    if (const char* old = std::getenv("CLOUDSYNC_THREADS")) old_ = old;
    setenv("CLOUDSYNC_THREADS", value, 1);
  }
  ~scoped_threads_env() {
    if (old_.empty()) {
      unsetenv("CLOUDSYNC_THREADS");
    } else {
      setenv("CLOUDSYNC_THREADS", old_.c_str(), 1);
    }
  }

 private:
  std::string old_;
};

TEST(SyncProtocol, DedupPlanIdenticalAtAnyFanOutWidth) {
  // A Dropbox PC upload spanning several 4 MB blocks fans its fingerprints
  // and per-block wire sizes out over min(CLOUDSYNC_THREADS, blocks)
  // threads. Neither the plan nor what the cloud commits may depend on the
  // width. No content cache, so every width computes every value.
  rng r(31);
  const byte_buffer data =
      synthetic_payload(r, 3 * 4 * MiB + 300 * KiB, 2.0);
  const content_ref content = content_ref::from_buffer(byte_buffer(data));
  const service_profile profile = dropbox();
  ASSERT_EQ(profile.dedup.granularity, dedup_granularity::fixed_block);

  struct outcome {
    upload_plan plan;
    dedup_result res;
    traffic_meter meter;
    std::uint64_t commits = 0;
    std::optional<content_ref> stored;
    bool duplicate_after_commit = false;
  };
  const auto run_at = [&](const char* threads) {
    scoped_threads_env width(threads);
    outcome o;
    // The plan itself, with the first block already in the index so the
    // new-chunk list is a strict subset.
    cloud cl(cloud_config{profile.dedup});
    cl.dedup().commit(0, content.substr(0, 4 * MiB));
    planning_env env;
    env.profile = &profile;
    env.cl = &cl;
    const std::string path = "big";
    protocol_update up;
    up.path = &path;
    up.content = &content;
    const sync_protocol& proto = select_service_default(env, up);
    EXPECT_EQ(proto.id(), protocol_id::cdc_dedup);
    o.res = cl.dedup().analyze(0, content);
    o.plan = proto.plan(env, up);
    cl.dedup().commit(0, content);
    o.duplicate_after_commit = cl.dedup().analyze(0, content).whole_file_duplicate;

    // The same upload end to end: meters and the committed file.
    experiment_config cfg{profile};
    cfg.use_content_cache = false;
    experiment_env world(cfg);
    world.primary().fs.create("big", content, world.clock().now());
    world.settle();
    o.meter = world.primary().client->meter();
    o.commits = world.primary().client->commit_count();
    o.stored = world.the_cloud().file_content(0, "big");
    return o;
  };
  const outcome one = run_at("1");
  const outcome four = run_at("4");

  EXPECT_EQ(one.res.fingerprints_sent, 4u);
  ASSERT_EQ(one.res.new_chunks.size(), 3u);
  EXPECT_EQ(one.res.fingerprints_sent, four.res.fingerprints_sent);
  EXPECT_EQ(one.res.duplicate_bytes, four.res.duplicate_bytes);
  EXPECT_EQ(one.res.new_bytes, four.res.new_bytes);
  ASSERT_EQ(one.res.new_chunks.size(), four.res.new_chunks.size());
  for (std::size_t i = 0; i < one.res.new_chunks.size(); ++i) {
    EXPECT_EQ(one.res.new_chunks[i].offset, four.res.new_chunks[i].offset);
    EXPECT_EQ(one.res.new_chunks[i].size, four.res.new_chunks[i].size);
  }
  EXPECT_GT(one.plan.payload_up, 0u);
  EXPECT_EQ(one.plan.payload_up, four.plan.payload_up);
  EXPECT_EQ(one.plan.metadata_up, four.plan.metadata_up);
  EXPECT_EQ(one.plan.metadata_down, four.plan.metadata_down);
  EXPECT_TRUE(one.duplicate_after_commit);
  EXPECT_TRUE(four.duplicate_after_commit);

  EXPECT_EQ(one.commits, 1u);
  EXPECT_EQ(one.commits, four.commits);
  EXPECT_TRUE(one.meter == four.meter) << meter_diff(one.meter, four.meter);
  ASSERT_TRUE(one.stored.has_value());
  ASSERT_TRUE(four.stored.has_value());
  EXPECT_TRUE(*one.stored == content);
  EXPECT_TRUE(*four.stored == content);
}

TEST(SyncProtocol, ForcedExperimentShipsEveryProtocol) {
  // Forcing each protocol on the same workload must converge (same commits)
  // while shifting traffic between payload and metadata as the protocol
  // dictates: full-file ships the most payload, cdc the most metadata.
  const auto run_forced = [](protocol_id id) {
    experiment_config cfg{lab_profile()};
    cfg.method = access_method::pc_client;
    cfg.protocol.mode = protocol_mode::forced;
    cfg.protocol.forced = id;
    return run_protocol_experiment(cfg, protocol_workload::small_edits, 3,
                                   32 * KiB);
  };
  const protocol_run_result full = run_forced(protocol_id::full_file);
  const protocol_run_result rsync = run_forced(protocol_id::rsync);
  const protocol_run_result cdc = run_forced(protocol_id::cdc_dedup);

  EXPECT_EQ(full.commits, rsync.commits);
  EXPECT_EQ(full.commits, cdc.commits);
  EXPECT_GT(full.meter.get(direction::up, traffic_category::payload),
            rsync.meter.get(direction::up, traffic_category::payload));
  EXPECT_GT(cdc.meter.get(direction::down, traffic_category::metadata),
            full.meter.get(direction::down, traffic_category::metadata));
  EXPECT_LT(rsync.total_traffic, full.total_traffic);
}

}  // namespace
}  // namespace cloudsync
