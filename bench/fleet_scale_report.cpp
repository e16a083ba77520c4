// Fleet replay at scale on the CoW content store.
//
// Three legs, each in a forked child so no two share interned chunks, memo
// entries, or a high-water mark; the child reports the store's peak live
// bytes (primary metric) and ru_maxrss (corroboration):
//   - golden leg (scale 0.005, 100 files/service, 2 MiB clamp, 1 replay
//     thread): its report hash is the `fleet_scale/cow` golden digest, so
//     every run pins the replay's outputs byte for byte.
//   - identity grid: the same replay on 1 and 4 threads must give
//     byte-identical reports (CLOUDSYNC_THREADS equivalent). --small uses
//     the golden leg's config; the full run uses the old caps (scale 0.02,
//     2500 files/service).
//   - scale grid (full run only; whole trace, 64 MiB clamp, dedup-heavy by
//     construction — duplicate byte share raised to 45 % and version churn
//     doubled over the calibrated trace, modelling collaboration folders):
//     peak store memory and wall-clock, gated by a fixed store budget.
//
// Writes BENCH_fleet.json (`cloudsync_report fleet_scale [--small]
// [out.json]`). Exit status is the self-check verdict.
#include <sys/resource.h>

#include <chrono>
#include <sstream>
#include <string>

#include "core/fleet.hpp"
#include "report.hpp"
#include "store/content_store.hpp"
#include "util/content_cache.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

struct run_result {
  double wall_ms = 0;
  std::uint64_t peak_store_bytes = 0;
  std::uint64_t maxrss_kb = 0;
  std::uint64_t report_hash = 0;  ///< content_hash64 of the serialized reports
  std::uint64_t files = 0;
  std::uint64_t update_bytes = 0;
  std::uint64_t sync_traffic = 0;
  bool ok = false;
};

/// Every field a fleet report carries, serialized for byte-identity hashing.
std::string serialize_reports(const std::vector<fleet_service_report>& reports) {
  std::ostringstream os;
  for (const fleet_service_report& r : reports) {
    os << r.service << '|' << r.files << '|' << r.dropped_files << '|'
       << r.users << '|' << r.update_bytes << '|' << r.sync_traffic << '|'
       << r.commits << '|' << r.mean_staleness_sec << '|'
       << r.backend_retained_bytes << '|' << r.backend_live_bytes << '|'
       << r.tue() << '|' << r.bill.total_usd() << '\n';
  }
  return os.str();
}

/// Run one replay leg in a forked child: leg isolation is total (no shared
/// intern table, wire-size cache, identity memo, or rss high-water mark).
run_result run_leg(const fleet_config& cfg) {
  return run_in_child([&] {
    content_store::global().reset_peak();
    const auto t0 = std::chrono::steady_clock::now();
    const auto reports = replay_trace_fleet(cfg);
    run_result r;
    r.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    r.peak_store_bytes = content_store::global().stats().peak_live_bytes;
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    r.maxrss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
    const std::string s = serialize_reports(reports);
    r.report_hash = content_hash64(
        byte_view{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
    for (const fleet_service_report& rep : reports) {
      r.files += rep.files;
      r.update_bytes += rep.update_bytes;
      r.sync_traffic += rep.sync_traffic;
    }
    r.ok = true;
    return r;
  });
}

void print_leg(const char* label, const run_result& r) {
  std::printf("  %-12s %8.0f ms   peak store %10s   maxrss %10s   "
              "traffic %s\n",
              label, r.wall_ms, human(static_cast<double>(r.peak_store_bytes)).c_str(),
              human(static_cast<double>(r.maxrss_kb) * 1024.0).c_str(),
              human(static_cast<double>(r.sync_traffic)).c_str());
}

void json_leg(json_writer& j, const char* key, const run_result& r) {
  j.object(key)
      .field("wall_ms", r.wall_ms)
      .field("peak_store_bytes", r.peak_store_bytes)
      .field("maxrss_kb", r.maxrss_kb)
      .field("files", r.files)
      .field("update_bytes", r.update_bytes)
      .field("sync_traffic", r.sync_traffic)
      .end();
}

}  // namespace

namespace cloudsync::bench {

/// Peak-store budget of the scale grid. The last run that still had the
/// flat per-layer-copy mode peaked at 16,975,126,037 B of store memory on
/// this grid (recorded in EXPERIMENTS.md, "Fleet memory at scale") and
/// required the CoW store to cut that at least 5x; with the flat leg gone
/// the same bar is a fixed budget of that peak / 5.
constexpr std::uint64_t kScalePeakBudget = 16'975'126'037ull / 5;

void fleet_scale_report(report& rep) {
  const bool small = rep.small;
  print_section(small ? "Fleet scale report (small identity grid)"
                      : "Fleet scale report: identity and scale grids");

  // Golden leg: the configuration tests/golden/report_identity.txt pins.
  fleet_config golden_cfg;
  golden_cfg.trace.scale = 0.005;
  golden_cfg.max_files_per_service = 100;
  golden_cfg.trace.max_file_bytes = 2 * MiB;  // the old clamp
  golden_cfg.replay_threads = 1;

  // Identity grid: 1 vs 4 replay threads, at the historical caps when full.
  fleet_config id_cfg = golden_cfg;
  if (!small) {
    id_cfg.trace.scale = 0.02;
    id_cfg.max_files_per_service = 2500;
  }
  std::printf("identity grid: scale %.3f, cap %zu files/service, clamp %s\n",
              id_cfg.trace.scale, id_cfg.max_files_per_service,
              human(static_cast<double>(id_cfg.trace.max_file_bytes)).c_str());
  const run_result golden = run_leg(golden_cfg);
  const run_result id_cow = small ? golden : run_leg(id_cfg);
  fleet_config id_mt_cfg = id_cfg;
  id_mt_cfg.replay_threads = 4;
  const run_result id_cow_mt = run_leg(id_mt_cfg);
  if (!small) print_leg("golden", golden);
  print_leg("cow", id_cow);
  print_leg("cow x4thr", id_cow_mt);

  const bool legs_ok = golden.ok && id_cow.ok && id_cow_mt.ok;
  const bool identical_threads = rep.checks.check(
      "reports 1==4 replay threads",
      legs_ok && id_cow.report_hash == id_cow_mt.report_hash);
  rep.golden("fleet_scale/cow", golden.report_hash);

  // Scale grid at the new defaults: whole trace, 64 MiB clamp, and a
  // dedup-heavy workload — the duplicate byte share is raised from the
  // trace's calibrated 18.8 % to 45 % and the version churn roughly doubled
  // (collaboration-style folders: shared documents re-saved many times).
  // A CoW version shares all but the patched chunk with its predecessor, so
  // this grid is where per-layer copying would hurt.
  run_result sc_cow;
  bool budget_ok = true;  // the scale grid does not run with --small
  fleet_config sc_cfg;  // whole trace
  sc_cfg.trace.max_file_bytes = 64 * MiB;
  sc_cfg.trace.scale = 0.03;
  sc_cfg.trace.p_full_duplicate = 0.45;
  sc_cfg.trace.p_partial_duplicate = 0.12;
  sc_cfg.trace.modify_geometric_p = 0.25;
  sc_cfg.replay_threads = 1;
  if (!small) {
    std::printf("scale grid: scale %.3f, whole trace, clamp %s, "
                "dup share %.2f, modify p %.2f\n",
                sc_cfg.trace.scale,
                human(static_cast<double>(sc_cfg.trace.max_file_bytes)).c_str(),
                sc_cfg.trace.p_full_duplicate,
                sc_cfg.trace.modify_geometric_p);
    sc_cow = run_leg(sc_cfg);
    print_leg("cow", sc_cow);
    budget_ok = rep.checks.check(
        "scale grid peak store within budget",
        sc_cow.ok && sc_cow.peak_store_bytes <= kScalePeakBudget);
    std::printf("  peak store %s, budget %s: %s\n",
                human(static_cast<double>(sc_cow.peak_store_bytes)).c_str(),
                human(static_cast<double>(kScalePeakBudget)).c_str(),
                budget_ok ? "yes" : "OVER");
  }

  const bool passed = legs_ok && identical_threads && budget_ok;

  json_writer& j = rep.json;
  j.field("bench", "fleet_scale").field("small", small);
  j.object("identity_grid")
      .field("scale", id_cfg.trace.scale)
      .field("max_files_per_service", id_cfg.max_files_per_service)
      .field("max_file_bytes", id_cfg.trace.max_file_bytes);
  json_leg(j, "golden", golden);
  json_leg(j, "cow", id_cow);
  json_leg(j, "cow_threads4", id_cow_mt);
  j.field("reports_identical_threads_1_vs_4", identical_threads).end();
  if (!small) {
    j.object("scale_grid")
        .field("scale", sc_cfg.trace.scale)
        .field("max_files_per_service", "whole-trace")
        .field("max_file_bytes", sc_cfg.trace.max_file_bytes)
        .field("p_full_duplicate", sc_cfg.trace.p_full_duplicate)
        .field("modify_geometric_p", sc_cfg.trace.modify_geometric_p);
    json_leg(j, "cow", sc_cow);
    j.field("peak_store_budget_bytes", kScalePeakBudget)
        .field("within_budget", budget_ok)
        .end();
  }
  j.field("self_check_passed", passed);
}

}  // namespace cloudsync::bench
