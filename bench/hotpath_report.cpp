// Before/after harness for the simulator's performance layer: evaluates the
// same TUE experiment grid twice —
//
//   baseline : serial, content cache disabled (the seed behaviour)
//   optimized: parallel runner across cores, process-wide content cache on
//
// — asserts the outputs are byte-identical (caching and parallelism must
// never change a result), and records the wall-clock trajectory in
// machine-readable form (BENCH_hotpath.json, or argv[1]) so the speedup is
// tracked over time. See docs/PERFORMANCE.md for how to read it.
#include <chrono>
#include <cstdio>

#include "report.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

using job = std::function<std::uint64_t()>;

/// The measured workload: a representative slice of the paper's grids
/// (creation / modification / text upload cells across all six services).
/// Service profiles are captured by value so the jobs own their configs.
std::vector<job> build_jobs(bool cached) {
  std::vector<job> jobs;
  auto cfg_for = [cached](const service_profile& s, access_method m) {
    experiment_config cfg = make_config(s, m);
    cfg.use_content_cache = cached;
    return cfg;
  };
  for (const std::uint64_t z : {64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB}) {
    for (const service_profile& s : all_services()) {
      jobs.push_back([cfg = cfg_for(s, access_method::pc_client), z] {
        return measure_creation_traffic(cfg, z);
      });
    }
  }
  for (const std::uint64_t z : {256 * KiB, 1 * MiB}) {
    for (const service_profile& s : all_services()) {
      jobs.push_back([cfg = cfg_for(s, access_method::pc_client), z] {
        return measure_modification_traffic(cfg, z);
      });
    }
  }
  for (const service_profile& s : all_services()) {
    jobs.push_back([cfg = cfg_for(s, access_method::pc_client)] {
      return measure_text_upload_traffic(cfg, 1 * MiB);
    });
  }
  // A second, identical round of the modification cells for the IDS-capable
  // services: re-planning the same edit against the same shadow content is
  // the workload the signature/delta memos exist for, and without a repeated
  // cell the grid never revisited a key (their hit rates read 0%).
  for (const std::uint64_t z : {256 * KiB, 1 * MiB}) {
    for (const service_profile& s : all_services()) {
      if (!s.method(access_method::pc_client).incremental_sync) continue;
      jobs.push_back([cfg = cfg_for(s, access_method::pc_client), z] {
        return measure_modification_traffic(cfg, z);
      });
    }
  }
  return jobs;
}

struct run_result {
  std::vector<std::uint64_t> values;
  double wall_ms = 0;
};

run_result timed_run(bool cached, unsigned threads) {
  const std::vector<job> jobs = build_jobs(cached);
  run_result res;
  res.values.resize(jobs.size());
  parallel_runner pool(threads);
  const auto t0 = std::chrono::steady_clock::now();
  pool.run_indexed(jobs.size(),
                   [&](std::size_t i) { res.values[i] = jobs[i](); });
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return res;
}

}  // namespace

namespace cloudsync::bench {

void hotpath_report(report& rep) {
  print_section("Hot-path report: serial+uncached vs parallel+cached");

  const unsigned threads = parallel_runner::default_thread_count();

  const run_result baseline = timed_run(/*cached=*/false, /*threads=*/1);
  // Start the optimized run with every process-wide memo cold, so the hit
  // counters below describe exactly this run.
  content_cache::global().clear();
  global_fingerprint_cache().clear();
  clear_incremental_sync_memos();
  clear_generation_memo();
  const run_result optimized = timed_run(/*cached=*/true, threads);

  struct named_stats {
    const char* name;
    content_cache_stats s;
  };
  const named_stats caches[] = {
      {"shipped_size", content_cache::global().stats()},
      {"fingerprint", global_fingerprint_cache().stats()},
      {"signature", signature_memo_stats()},
      {"delta", delta_memo_stats()},
      {"generation", generation_memo_stats()},
  };

  const double speedup =
      optimized.wall_ms > 0 ? baseline.wall_ms / optimized.wall_ms : 0.0;

  text_table table;
  table.header({"mode", "wall ms", "cells"});
  table.row({"serial + uncached (seed)", strfmt("%.1f", baseline.wall_ms),
             strfmt("%zu", baseline.values.size())});
  table.row({strfmt("parallel(%u) + cached", threads),
             strfmt("%.1f", optimized.wall_ms),
             strfmt("%zu", optimized.values.size())});
  std::printf("%s\n", table.str().c_str());
  std::printf("speedup: %.2fx\n", speedup);
  for (const named_stats& c : caches) {
    std::printf("  memo %-12s %5.1f%% hit rate (%llu hits / %llu misses)\n",
                c.name, 100.0 * c.s.hit_rate(), (unsigned long long)c.s.hits,
                (unsigned long long)c.s.misses);
  }

  // Caching/parallelism changing any output is a correctness failure.
  const bool identical = rep.checks.check(
      "outputs identical", baseline.values == optimized.values);
  // The grid repeats the IDS modification cells precisely so these two memo
  // tiers get revisited; a zero hit count means a dead cache tier.
  rep.checks.check("signature+delta memo hits",
                   signature_memo_stats().hits > 0 &&
                       delta_memo_stats().hits > 0);

  json_writer& j = rep.json;
  j.field("bench", "hotpath")
      .field("threads", threads)
      .field("cells", baseline.values.size());
  j.object("baseline")
      .field("mode", "serial+uncached")
      .field("wall_ms", baseline.wall_ms)
      .end();
  j.object("optimized")
      .field("mode", "parallel+cached")
      .field("wall_ms", optimized.wall_ms)
      .end();
  j.field("speedup", speedup).field("identical_outputs", identical);
  j.object("caches");
  for (const named_stats& c : caches) {
    j.object(c.name)
        .field("hits", c.s.hits)
        .field("misses", c.s.misses)
        .field("evictions", c.s.evictions)
        .field("hit_rate", c.s.hit_rate())
        .end();
  }
  j.end();
}

}  // namespace cloudsync::bench
