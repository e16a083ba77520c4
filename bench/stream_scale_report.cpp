// Streaming sync: kernel identity, golden engine worlds, and the post-cap
// scale leg.
//
// Three legs:
//   - kernel identity: signature / delta / wire bytes from the streaming
//     jobs must be byte-identical to the whole-buffer functions on a
//     multi-MB input.
//   - engine worlds: forked streaming worlds replay a seeded workload; each
//     world's traffic_meter cells (category x direction), commit count and
//     cloud content hash form its golden digest. Worlds fork so one's
//     store high-water mark never shows in another's.
//   - scale leg (full mode only): a 4 GiB incompressible file — a rope
//     tiling a 32 x 1 MiB segment pool, so unique bytes stay O(pool) — is
//     created and then delta-synced twice through a journaled client with
//     resumable sessions. The self-check requires convergence and a content
//     store peak under 64 MiB: the cap the streaming rework removed is now
//     the *memory* budget, not the file-size ceiling. ru_maxrss corroborates.
//
// Writes BENCH_stream.json (`cloudsync_report stream_scale [--small]
// [out.json]`). `--small` shrinks the kernel input and skips the scale leg;
// both modes check the engine worlds' golden digests. Exit status is the
// self-check verdict.
#include <sys/resource.h>

#include <chrono>
#include <cstring>
#include <string>

#include "chunking/rsync.hpp"
#include "core/experiment.hpp"
#include "report.hpp"
#include "store/content_ref.hpp"
#include "store/content_store.hpp"
#include "util/content_cache.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

// ---------------------------------------------------------------------------
// Kernel identity: streaming jobs vs whole-buffer functions on one input.
// ---------------------------------------------------------------------------

bool kernel_identity(std::size_t base_bytes) {
  rng r(31);
  const byte_buffer base = synthetic_payload(r, base_bytes, 1.8);
  // An edited cousin: two interior patches plus an appended tail — copy runs,
  // literal runs, and a tail block all appear in the delta.
  byte_buffer edited = base;
  const byte_buffer patch1 = random_bytes(r, 9000);
  const byte_buffer patch2 = random_bytes(r, 513);
  std::memcpy(edited.data() + base_bytes / 5, patch1.data(), patch1.size());
  std::memcpy(edited.data() + (3 * base_bytes) / 4, patch2.data(),
              patch2.size());
  const byte_buffer tail = random_bytes(r, 70000);
  edited.insert(edited.end(), tail.begin(), tail.end());

  const std::size_t bs = 64 * KiB;
  // Whole-buffer path.
  const file_signature sig = compute_signature(base, bs);
  const file_delta delta = compute_delta(sig, edited);
  const byte_buffer wire = serialize_delta(delta);

  // Streaming path over ropes.
  const content_ref old_ref = content_ref::from_bytes(base);
  const content_ref new_ref = content_ref::from_bytes(edited);
  const file_signature sig2 = compute_signature_ref(old_ref, bs);
  const auto events = compute_delta_events(sig2, new_ref);
  const file_delta delta2 = delta_from_events(sig2.block_size, new_ref, events);

  bool ok = true;
  ok &= serialize_delta(delta2) == wire;
  ok &= delta_wire_size(delta2) == wire.size();
  content_hasher64 h;
  walk_delta_wire(delta2, [&](byte_view v) { h.update(v); });
  ok &= h.finish() == content_hash64(wire);
  ok &= apply_delta_ref(old_ref, delta2).equal(edited);
  ok &= new_ref.equal(apply_delta(base, parse_delta(wire)));
  return ok;
}

// ---------------------------------------------------------------------------
// Engine worlds: one seeded workload per service, forked.
// ---------------------------------------------------------------------------

struct workload_sizes {
  std::size_t a, b, c, append;
};

void run_workload(experiment_env& env, const workload_sizes& sz) {
  station& st = env.primary();
  rng content(7);
  st.fs.create("a.bin", make_compressed_file(content, sz.a),
               env.clock().now());
  st.fs.create("b.txt", make_text_file(content, sz.b), env.clock().now());
  st.fs.create("c.rand", random_bytes(content, sz.c), env.clock().now());
  env.settle();
  for (int i = 0; i < 3; ++i) {
    env.clock().advance_to(env.clock().now() + sim_time::from_sec(60));
    modify_random_byte(st.fs, "a.bin", env.random(), env.clock().now());
    env.settle();
  }
  env.clock().advance_to(env.clock().now() + sim_time::from_sec(60));
  append_random(st.fs, "b.txt", env.random(), sz.append, env.clock().now());
  env.settle();
  env.clock().advance_to(env.clock().now() + sim_time::from_sec(60));
  modify_random_byte(st.fs, "c.rand", env.random(), env.clock().now());
  env.settle();
}

struct world_run {
  double wall_ms = 0;
  traffic_meter meter;
  std::uint64_t commits = 0;
  std::uint64_t cloud_hash = 0;
  std::uint64_t peak_store_bytes = 0;
  bool ok = false;
};

/// One engine world in a forked child, so its store peak is its own.
world_run run_world(const service_profile& profile, bool journal,
                    const workload_sizes& sz) {
  return run_in_child([&] {
    content_store::global().reset_peak();
    experiment_config cfg{profile};
    cfg.method = access_method::pc_client;
    cfg.use_content_cache = false;
    cfg.journal = journal;
    const auto t0 = std::chrono::steady_clock::now();
    experiment_env env(cfg);
    run_workload(env, sz);
    world_run w;
    w.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    w.meter = env.primary().client->meter();
    w.commits = env.primary().client->commit_count();
    std::uint64_t h = 0;
    for (const char* path : {"a.bin", "b.txt", "c.rand"}) {
      h = mix64(h ^ env.the_cloud().file_content(0, path)->hash64());
    }
    w.cloud_hash = h;
    w.peak_store_bytes = content_store::global().stats().peak_live_bytes;
    w.ok = true;
    return w;
  });
}

// ---------------------------------------------------------------------------
// Scale leg: one 4 GiB file through a journaled streaming client.
// ---------------------------------------------------------------------------

struct scale_run {
  double create_ms = 0;
  double update_ms = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t payload_up = 0;
  std::uint64_t total_traffic = 0;
  std::uint64_t commits = 0;
  std::uint64_t peak_store_bytes = 0;
  std::uint64_t maxrss_kb = 0;
  bool converged = false;
  bool ok = false;
};

constexpr std::uint64_t kScaleFileBytes = 4ull * GiB;
constexpr std::uint64_t kPeakBudget = 64 * MiB;

/// The big file: a rope tiling a pool of 32 seeded 1 MiB incompressible
/// segments (the same shape core/fleet gives uncapped trace files). Unique
/// bytes are O(pool); the logical file is as large as we like.
content_ref make_pooled_file(std::uint64_t size) {
  constexpr std::size_t kSegments = 32;
  constexpr std::size_t kSegBytes = 1 * MiB;
  rng r(99);
  std::vector<content_ref> pool;
  pool.reserve(kSegments);
  for (std::size_t i = 0; i < kSegments; ++i) {
    pool.push_back(content_ref::from_buffer(random_bytes(r, kSegBytes)));
  }
  content_ref::builder b;
  std::uint64_t j = 0;
  for (std::uint64_t left = size; left > 0; ++j) {
    const std::size_t len =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, kSegBytes));
    b.append(pool[mix64(0x5eedull ^ j) % kSegments], 0, len);
    left -= len;
  }
  return b.build();
}

scale_run run_scale_leg() {
  return run_in_child([] {
    content_store::global().reset_peak();

    // Dropbox-shaped client with the knobs that matter at this size: IDS on,
    // delta blocks widened to 4 MiB (1024 signature blocks for 4 GiB), dedup
    // off (the tiled pool would self-dedup and dodge the transfer under
    // test), compression level kept so the incompressible probe fast path is
    // what prices the payload.
    service_profile prof = dropbox();
    prof.name = "stream_scale";
    prof.delta_chunk_size = 4 * MiB;
    prof.dedup = dedup_policy::disabled();
    for (const access_method m : all_access_methods) {
      prof.method(m).dedup_enabled = false;
    }

    experiment_config cfg{prof};
    cfg.method = access_method::pc_client;
    cfg.journal = true;                     // resumable sessions at 4 GiB
    cfg.recovery.chunk_bytes = 4 * MiB;     // 1024 session ranges

    experiment_env env(cfg);
    station& st = env.primary();

    scale_run s;
    const content_ref big = make_pooled_file(kScaleFileBytes);
    s.file_bytes = big.size();

    const auto t0 = std::chrono::steady_clock::now();
    st.fs.create("big.bin", big, env.clock().now());
    env.settle();
    const auto t1 = std::chrono::steady_clock::now();
    s.create_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();

    for (int i = 0; i < 2; ++i) {
      env.clock().advance_to(env.clock().now() + sim_time::from_sec(120));
      modify_random_byte(st.fs, "big.bin", env.random(), env.clock().now());
      env.settle();
    }
    s.update_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t1)
                      .count();

    const traffic_meter& m = env.primary().client->meter();
    s.payload_up = m.get(direction::up, traffic_category::payload);
    s.total_traffic = m.total();
    s.commits = env.primary().client->commit_count();
    s.converged =
        env.the_cloud().file_content(0, "big.bin")->equal(st.fs.read("big.bin"));
    s.peak_store_bytes = content_store::global().stats().peak_live_bytes;
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    s.maxrss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
    s.ok = true;
    return s;
  });
}

}  // namespace

namespace cloudsync::bench {

void stream_scale_report(report& rep) {
  const bool small = rep.small;
  print_section(small ? "Streaming sync report (small identity legs)"
                      : "Streaming sync report: identity + 4 GiB scale leg");

  // Kernel identity: the streaming jobs against the whole-buffer functions.
  const std::size_t kernel_bytes = small ? 1 * MiB : 8 * MiB;
  const bool kernel_ok =
      rep.checks.check("kernel identity", kernel_identity(kernel_bytes));
  std::printf("kernel identity (%s base): %s\n",
              human(static_cast<double>(kernel_bytes)).c_str(),
              kernel_ok ? "byte-identical" : "DIVERGED");

  // Engine worlds at the sizes tests/golden/report_identity.txt pins, in
  // both modes.
  const workload_sizes sz{384 * KiB, 192 * KiB, 128 * KiB, 16 * KiB};
  struct world_case {
    const char* key;
    world_run w;
  };
  world_case cases[] = {
      {"dropbox", {}},          // IDS + compression
      {"google_drive", {}},     // full-file, no IDS
      {"dropbox_journal", {}},  // resumable sessions
  };
  std::printf("engine worlds: workload %s/%s/%s\n",
              human(static_cast<double>(sz.a)).c_str(),
              human(static_cast<double>(sz.b)).c_str(),
              human(static_cast<double>(sz.c)).c_str());
  bool worlds_ok = true;
  for (world_case& c : cases) {
    const bool journal = std::strcmp(c.key, "dropbox_journal") == 0;
    const service_profile prof =
        std::strcmp(c.key, "google_drive") == 0 ? google_drive() : dropbox();
    c.w = run_world(prof, journal, sz);
    std::printf("  %-16s %7.0f ms  traffic %10s  commits %llu\n", c.key,
                c.w.wall_ms,
                human(static_cast<double>(c.w.meter.total())).c_str(),
                static_cast<unsigned long long>(c.w.commits));
    worlds_ok &= c.w.ok;
    rep.golden(std::string("stream_scale/") + c.key,
               golden_digest()
                   .add(c.w.meter)
                   .add(c.w.commits)
                   .add(c.w.cloud_hash)
                   .value());
  }
  rep.checks.check("engine worlds ran", worlds_ok);

  // Scale leg (full mode): the file the 64 MiB cap used to forbid.
  scale_run sc;
  bool scale_ok = true;  // vacuously true for --small
  if (!small) {
    std::printf("scale leg: %s pooled file, journaled streaming client\n",
                human(static_cast<double>(kScaleFileBytes)).c_str());
    sc = run_scale_leg();
    scale_ok = rep.checks.check(
        "4 GiB leg converged within the 64 MiB store budget",
        sc.ok && sc.converged && sc.file_bytes >= kScaleFileBytes &&
            sc.peak_store_bytes <= kPeakBudget);
    std::printf("  create %8.0f ms   updates %8.0f ms   payload up %10s\n",
                sc.create_ms, sc.update_ms,
                human(static_cast<double>(sc.payload_up)).c_str());
    std::printf("  peak store %10s (budget %s): %s   maxrss %10s   "
                "converged: %s\n",
                human(static_cast<double>(sc.peak_store_bytes)).c_str(),
                human(static_cast<double>(kPeakBudget)).c_str(),
                sc.peak_store_bytes <= kPeakBudget ? "yes" : "OVER",
                human(static_cast<double>(sc.maxrss_kb) * 1024.0).c_str(),
                sc.converged ? "yes" : "NO");
  }

  const bool passed = kernel_ok && worlds_ok && scale_ok;

  json_writer& j = rep.json;
  j.field("bench", "stream_scale").field("small", small);
  j.object("kernel_identity")
      .field("base_bytes", kernel_bytes)
      .field("identical", kernel_ok)
      .end();
  j.object("engine_worlds");
  for (const world_case& c : cases) {
    j.object(c.key)
        .field("wall_ms", c.w.wall_ms)
        .field("total_traffic", c.w.meter.total())
        .field("commits", c.w.commits)
        .field("peak_store_bytes", c.w.peak_store_bytes)
        .end();
  }
  j.end();
  if (!small) {
    j.object("scale_leg")
        .field("file_bytes", sc.file_bytes)
        .field("create_ms", sc.create_ms)
        .field("update_ms", sc.update_ms)
        .field("payload_up", sc.payload_up)
        .field("total_traffic", sc.total_traffic)
        .field("commits", sc.commits)
        .field("peak_store_bytes", sc.peak_store_bytes)
        .field("peak_budget_bytes", kPeakBudget)
        .field("maxrss_kb", sc.maxrss_kb)
        .field("converged", sc.converged)
        .field("within_budget", sc.peak_store_bytes <= kPeakBudget)
        .end();
  }
  j.field("self_check_passed", passed);
}

}  // namespace cloudsync::bench
