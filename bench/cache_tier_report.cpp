// Client cache-tier sweep: does the limited-disk block cache pay for its
// complexity — and does it stay invisible when it has room to?
//
// Four legs, each a grid of run_cache_experiment cells:
//   identity — the uncapped write-through cache (LRU and ARC) must be
//     byte-identical per (direction, traffic category) to the cacheless
//     engine on the looping-scan and frequent-modification workloads. The
//     tier never changes what the wire carries until capacity forces it to
//     (and rehydrate must read exactly 0 in these runs).
//   scan — hit-ratio grid over capacity x {LRU, ARC} on the looping-scan
//     workload (hot set re-read between full scans). Gates: ARC >= LRU at
//     every capacity (the frequency list must protect the hot set from
//     scan churn), and the LRU hit ratio is monotone non-decreasing in
//     capacity (LRU is a stack algorithm; the inclusion property makes
//     this exact, so any violation is a cache bug, not noise). ARC does
//     not have the inclusion property, so its monotonicity is reported
//     but not gated.
//   write-mode — TUE grid over {write-through, write-back x coalescing
//     window} on the frequent-modification workload, under a defer-free
//     profile (a fixed-defer profile would batch the edits for
//     write-through too and mask the comparison). Gate: write-back TUE is
//     strictly below write-through TUE at every tested window.
//   determinism — the whole grid evaluated serially and with N worker
//     threads must match cell-for-cell (meters, counters, gauges).
//
// Machine-readable output: BENCH_cache.json (`cloudsync_report cache_tier
// [--small] [out.json]`). `--small` shrinks the grids for the sanitizer
// builds and checks the uncapped cells' golden meter digests. Exit code is
// the verdict.
#include <cstdio>
#include <vector>

#include "meter_diff.hpp"
#include "report.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

constexpr std::uint64_t kFileBytes = 64 * KiB;
constexpr std::size_t kBlockBytes = 8 * KiB;

/// Windows for the write-back leg. The frequent_mods workload edits each
/// file 3x at 2 s spacing, so even the shortest window coalesces a burst.
const double kWindowsSec[] = {2.0, 5.0, 15.0};

experiment_config cache_cfg(std::uint64_t capacity, cache_eviction policy,
                            cache_write_mode mode, double window_sec,
                            bool defer_free) {
  service_profile s = dropbox();
  if (defer_free) s = with_defer(s, defer_config::none());
  experiment_config cfg = make_config(s, access_method::pc_client);
  cfg.cache_tier = true;
  cfg.cache.capacity_bytes = capacity;
  cfg.cache.block_bytes = kBlockBytes;
  cfg.cache.policy = policy;
  cfg.cache.write_mode = mode;
  cfg.cache.coalesce_window = sim_time::from_sec(window_sec);
  return cfg;
}

experiment_config cacheless_cfg(bool defer_free) {
  service_profile s = dropbox();
  if (defer_free) s = with_defer(s, defer_config::none());
  return make_config(s, access_method::pc_client);
}

bool same(const cache_run_result& a, const cache_run_result& b) {
  return a.meter == b.meter && a.total_traffic == b.total_traffic &&
         a.rehydrate_traffic == b.rehydrate_traffic &&
         a.data_update_bytes == b.data_update_bytes &&
         a.commits == b.commits && a.cache.hits == b.cache.hits &&
         a.cache.misses == b.cache.misses &&
         a.cache.evictions == b.cache.evictions &&
         a.cache.dirty_marked == b.cache.dirty_marked &&
         a.cache.dirty_coalesced == b.cache.dirty_coalesced &&
         a.cache.flushes == b.cache.flushes &&
         a.resident_blocks == b.resident_blocks &&
         a.resident_bytes == b.resident_bytes;
}

using job = std::function<cache_run_result()>;

}  // namespace

namespace cloudsync::bench {

void cache_tier_report(report& rep) {
  const bool small = rep.small;
  print_section(small ? "Client cache tier (small grid)"
                      : "Client cache tier: hit ratio and TUE sweep");

  const std::size_t files = small ? 8 : 16;
  const std::uint64_t total_bytes = files * kFileBytes;
  const std::vector<double> fractions =
      small ? std::vector<double>{0.5, 1.0}
            : std::vector<double>{0.3, 0.5, 0.75, 1.0};
  std::vector<std::uint64_t> capacities;
  for (const double f : fractions) {
    capacities.push_back(
        static_cast<std::uint64_t>(f * static_cast<double>(total_bytes)));
  }
  const std::size_t num_windows = small ? 2 : std::size(kWindowsSec);

  // Grid layout (one flat job vector so the determinism leg covers every
  // cell):
  //   [0]                        cacheless, looping_scan
  //   [1]                        cacheless, frequent_mods (defer-free)
  //   [2 .. 3]                   uncapped {lru, arc}, looping_scan
  //   [4 .. 5]                   uncapped {lru, arc}, frequent_mods (df)
  //   [6 .. 6+2C)                capped scan: [cap][lru, arc]
  //   [6+2C]                     write-through, frequent_mods (defer-free)
  //   [6+2C+1 .. +num_windows]   write-back per window, frequent_mods (df)
  std::vector<job> jobs;
  auto push = [&](experiment_config cfg, cache_workload wl,
                  std::size_t pin = 0) {
    jobs.push_back([cfg = std::move(cfg), wl, files, pin] {
      return run_cache_experiment(cfg, wl, files, kFileBytes, pin);
    });
  };
  push(cacheless_cfg(false), cache_workload::looping_scan);
  push(cacheless_cfg(true), cache_workload::frequent_mods);
  for (const cache_eviction p : {cache_eviction::lru, cache_eviction::arc}) {
    push(cache_cfg(0, p, cache_write_mode::write_through, 8.0, false),
         cache_workload::looping_scan);
  }
  for (const cache_eviction p : {cache_eviction::lru, cache_eviction::arc}) {
    push(cache_cfg(0, p, cache_write_mode::write_through, 8.0, true),
         cache_workload::frequent_mods);
  }
  const std::size_t scan_base = jobs.size();
  for (const std::uint64_t cap : capacities) {
    for (const cache_eviction p :
         {cache_eviction::lru, cache_eviction::arc}) {
      push(cache_cfg(cap, p, cache_write_mode::write_through, 8.0, false),
           cache_workload::looping_scan);
    }
  }
  const std::size_t wt_run = jobs.size();
  push(cache_cfg(0, cache_eviction::lru, cache_write_mode::write_through,
                 8.0, true),
       cache_workload::frequent_mods);
  const std::size_t wb_base = jobs.size();
  for (std::size_t w = 0; w < num_windows; ++w) {
    push(cache_cfg(0, cache_eviction::lru, cache_write_mode::write_back,
                   kWindowsSec[w], true),
         cache_workload::frequent_mods);
  }

  const auto [serial, deterministic] = evaluate_1_vs_n(rep, jobs, same);

  // Gate: uncapped cache is invisible on the wire — per-category identity
  // with the cacheless engine, and its rehydrate counter is exactly zero.
  bool identity = true;
  const struct {
    const char* name;
    std::size_t baseline, cached;
  } kIdentityPairs[] = {
      {"scan/lru", 0, 2},  {"scan/arc", 0, 3},
      {"mods/lru", 1, 4},  {"mods/arc", 1, 5},
  };
  for (const auto& pr : kIdentityPairs) {
    const cache_run_result& base = serial[pr.baseline];
    const cache_run_result& cached = serial[pr.cached];
    if (base.meter != cached.meter || cached.rehydrate_traffic != 0) {
      identity = false;
      std::fprintf(stderr, "identity violation: %s\n%s", pr.name,
                   meter_diff(base.meter, cached.meter).c_str());
    }
    if (small) {
      rep.golden(std::string("cache_tier/") + pr.name,
                 golden_digest().add(cached.meter).value());
    }
  }

  // Gates: ARC beats (or ties) LRU at every scan capacity; LRU hit ratio
  // is monotone non-decreasing in capacity. ARC monotonicity is recorded
  // in the JSON but not gated (no inclusion property).
  bool arc_ge_lru = true;
  bool lru_monotone = true;
  bool arc_monotone = true;
  double prev_lru = -1.0, prev_arc = -1.0;
  for (std::size_t c = 0; c < capacities.size(); ++c) {
    const cache_run_result& lru = serial[scan_base + 2 * c];
    const cache_run_result& arc = serial[scan_base + 2 * c + 1];
    if (arc.hit_ratio + 1e-12 < lru.hit_ratio) {
      arc_ge_lru = false;
      std::fprintf(stderr, "ARC < LRU at capacity %llu: %.4f vs %.4f\n",
                   (unsigned long long)capacities[c], arc.hit_ratio,
                   lru.hit_ratio);
    }
    if (lru.hit_ratio + 1e-12 < prev_lru) {
      lru_monotone = false;
      std::fprintf(stderr, "LRU hit ratio regressed at capacity %llu\n",
                   (unsigned long long)capacities[c]);
    }
    if (arc.hit_ratio + 1e-12 < prev_arc) arc_monotone = false;
    prev_lru = lru.hit_ratio;
    prev_arc = arc.hit_ratio;
  }

  // Gate: write-back strictly beats write-through TUE at every window.
  bool wb_wins = true;
  const double wt_tue = serial[wt_run].tue;
  for (std::size_t w = 0; w < num_windows; ++w) {
    const double wb_tue = serial[wb_base + w].tue;
    if (!(wb_tue < wt_tue)) {
      wb_wins = false;
      std::fprintf(stderr,
                   "write-back does not beat write-through at %.0fs window: "
                   "%.3f vs %.3f\n",
                   kWindowsSec[w], wb_tue, wt_tue);
    }
  }

  {
    text_table t;
    t.header({"capacity", "policy", "hit ratio", "rehydrate", "evictions",
              "TUE"});
    for (std::size_t c = 0; c < capacities.size(); ++c) {
      for (std::size_t p = 0; p < 2; ++p) {
        const cache_run_result& r = serial[scan_base + 2 * c + p];
        t.row({human(static_cast<double>(capacities[c])),
               p == 0 ? "lru" : "arc", strfmt("%.4f", r.hit_ratio),
               human(static_cast<double>(r.rehydrate_traffic)),
               strfmt("%llu", (unsigned long long)r.cache.evictions),
               strfmt("%.3f", r.tue)});
      }
    }
    std::printf("--- looping scan: capacity x policy (%zu files x %s) ---\n%s\n",
                files, human(kFileBytes).c_str(), t.str().c_str());
  }
  {
    text_table t;
    t.header({"mode", "window", "TUE", "commits", "coalesced", "total"});
    const cache_run_result& wt = serial[wt_run];
    t.row({"write-through", "-", strfmt("%.3f", wt.tue),
           strfmt("%llu", (unsigned long long)wt.commits), "-",
           human(static_cast<double>(wt.total_traffic))});
    for (std::size_t w = 0; w < num_windows; ++w) {
      const cache_run_result& wb = serial[wb_base + w];
      t.row({"write-back", strfmt("%.0fs", kWindowsSec[w]),
             strfmt("%.3f", wb.tue),
             strfmt("%llu", (unsigned long long)wb.commits),
             strfmt("%llu", (unsigned long long)wb.cache.dirty_coalesced),
             human(static_cast<double>(wb.total_traffic))});
    }
    std::printf("--- frequent mods: write mode x window (defer-free) ---\n%s\n",
                t.str().c_str());
  }

  rep.checks.check("uncapped identity", identity);
  rep.checks.check("ARC>=LRU", arc_ge_lru);
  rep.checks.check("LRU monotone", lru_monotone);
  rep.checks.note("ARC monotone (ungated)", arc_monotone ? "yes" : "no");
  rep.checks.check("write-back wins", wb_wins);

  json_writer& j = rep.json;
  j.field("bench", "cache_tier")
      .field("small", small)
      .field("files", files)
      .field("file_bytes", kFileBytes)
      .field("block_bytes", kBlockBytes)
      .field("deterministic", deterministic)
      .field("uncapped_identity", identity)
      .field("arc_ge_lru", arc_ge_lru)
      .field("lru_monotone", lru_monotone)
      .field("arc_monotone", arc_monotone)
      .field("write_back_wins", wb_wins);
  j.array("scan");
  for (std::size_t c = 0; c < capacities.size(); ++c) {
    for (std::size_t p = 0; p < 2; ++p) {
      const cache_run_result& r = serial[scan_base + 2 * c + p];
      j.object()
          .field("capacity", capacities[c])
          .field("policy", p == 0 ? "lru" : "arc")
          .field("hit_ratio", r.hit_ratio)
          .field("hits", r.cache.hits)
          .field("misses", r.cache.misses)
          .field("evictions", r.cache.evictions)
          .field("rehydrate", r.rehydrate_traffic)
          .field("tue", r.tue)
          .end();
    }
  }
  j.end();
  j.array("write_mode");
  const cache_run_result& wt = serial[wt_run];
  j.object()
      .field("mode", "write_through")
      .field("window_sec", 0)
      .field("tue", wt.tue)
      .field("commits", wt.commits)
      .field("total", wt.total_traffic)
      .field("coalesced", 0)
      .end();
  for (std::size_t w = 0; w < num_windows; ++w) {
    const cache_run_result& wb = serial[wb_base + w];
    j.object()
        .field("mode", "write_back")
        .field("window_sec", kWindowsSec[w])
        .field("tue", wb.tue)
        .field("commits", wb.commits)
        .field("total", wb.total_traffic)
        .field("coalesced", wb.cache.dirty_coalesced)
        .end();
  }
  j.end();
}

}  // namespace cloudsync::bench
