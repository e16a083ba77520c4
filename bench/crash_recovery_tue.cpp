// Crash-recovery sweep: what does a crashing client cost at the network
// level, and how much of that cost do resumable transfers claw back? For
// each service, runs the crash workload (distinct creations + one-byte
// modifications, journaled, through resumable upload sessions) under
// increasingly frequent seeded client crashes, once with session resume on
// and once restarting every interrupted transfer from scratch — the paper's
// §5 observation (Box and Ubuntu One re-send the whole file after a
// disruption) against the engineered alternative.
//
// Self-checks (nonzero exit on violation):
//   - every cell is byte-identical between a serial and a parallel grid
//     evaluation (CLOUDSYNC_THREADS=1 vs N — crash schedules, restarts, and
//     recovery compose with the parallel runner);
//   - the full invariant suite (convergence, journal/session quiescence, no
//     lost or duplicated commits, per-incarnation byte conservation) holds
//     in every cell;
//   - at zero crash rate, resume-on and resume-off are byte-identical (the
//     recovery disposition must not matter when nobody crashes);
//   - every nonzero-rate cell actually crashed, and its resume-on variant
//     resumed at least one transfer mid-flight (otherwise the comparison
//     is vacuous — tune seeds/rates rather than accept it);
//   - averaged resume-on TUE is strictly below restart-from-scratch TUE at
//     every nonzero crash rate.
//
// Machine-readable output: BENCH_crash.json (`cloudsync_report
// crash_recovery_tue [out.json]`).
#include <cstdio>
#include <vector>

#include "report.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

constexpr std::size_t kFiles = 6;
constexpr std::uint64_t kFileBytes = 256 * KiB;
const double kCrashRates[] = {0.0, 0.1, 0.2, 0.4};
const std::uint64_t kSeeds[] = {1234, 4711, 9001};

experiment_config cfg_for(const service_profile& s, double crash_rate,
                          bool resume, std::uint64_t seed) {
  experiment_config cfg = make_config(s, access_method::pc_client);
  cfg.seed = seed;
  cfg.journal = true;
  cfg.recovery.resume = resume;
  cfg.faults = fault_plan::crashes(crash_rate, /*seed=*/seed ^ 0x5bd1);
  return cfg;
}

bool same(const crash_run_result& a, const crash_run_result& b) {
  return a.total_traffic == b.total_traffic &&
         a.resume_traffic == b.resume_traffic &&
         a.retry_traffic == b.retry_traffic &&
         a.data_update_bytes == b.data_update_bytes && a.tue == b.tue &&
         a.completion_sec == b.completion_sec && a.crashes == b.crashes &&
         a.resumes == b.resumes &&
         a.recovery_restarts == b.recovery_restarts &&
         a.journal_begun == b.journal_begun &&
         a.journal_committed == b.journal_committed &&
         a.journal_aborted == b.journal_aborted;
}

/// Seed-averaged view of one (service, rate, resume) cell.
struct cell_avg {
  double tue = 0;
  double completion_sec = 0;
  double resume_traffic = 0;
  std::uint64_t crashes = 0;
  std::uint64_t resumes = 0;
  std::uint64_t recovery_restarts = 0;
};

cell_avg average(const crash_run_result* runs, std::size_t n) {
  cell_avg avg;
  for (std::size_t i = 0; i < n; ++i) {
    avg.tue += runs[i].tue;
    avg.completion_sec += runs[i].completion_sec;
    avg.resume_traffic += static_cast<double>(runs[i].resume_traffic);
    avg.crashes += runs[i].crashes;
    avg.resumes += runs[i].resumes;
    avg.recovery_restarts += runs[i].recovery_restarts;
  }
  avg.tue /= static_cast<double>(n);
  avg.completion_sec /= static_cast<double>(n);
  avg.resume_traffic /= static_cast<double>(n);
  return avg;
}

using job = std::function<crash_run_result()>;

}  // namespace

namespace cloudsync::bench {

void crash_recovery_report(report& rep) {
  print_section("Crash sweep: TUE with resumable transfers vs restart");

  const std::vector<service_profile> services = {dropbox(), box(), onedrive()};
  constexpr std::size_t kNumRates = std::size(kCrashRates);
  constexpr std::size_t kNumSeeds = std::size(kSeeds);

  // Grid layout: [service][rate][resume? 0=on 1=off][seed].
  std::vector<job> jobs;
  for (const service_profile& s : services) {
    for (const double rate : kCrashRates) {
      for (const bool resume : {true, false}) {
        for (const std::uint64_t seed : kSeeds) {
          jobs.push_back([cfg = cfg_for(s, rate, resume, seed)] {
            return run_crash_experiment(cfg, kFiles, kFileBytes);
          });
        }
      }
    }
  }

  const auto [serial, deterministic] = evaluate_1_vs_n(rep, jobs, same);

  bool invariants_ok = true;
  for (const crash_run_result& r : serial) {
    if (!r.invariants.ok()) {
      invariants_ok = false;
      std::fprintf(stderr, "invariant violation:\n%s\n",
                   r.invariants.summary().c_str());
    }
  }

  auto cell_at = [&](std::size_t svc, std::size_t rate, bool resume,
                     std::size_t seed) -> const crash_run_result& {
    return serial[((svc * kNumRates + rate) * 2 + (resume ? 0 : 1)) *
                      kNumSeeds +
                  seed];
  };

  // Zero crashes → the recovery disposition is dead code, byte for byte.
  bool zero_rate_identical = true;
  for (std::size_t svc = 0; svc < services.size(); ++svc) {
    for (std::size_t seed = 0; seed < kNumSeeds; ++seed) {
      zero_rate_identical =
          zero_rate_identical &&
          same(cell_at(svc, 0, true, seed), cell_at(svc, 0, false, seed));
    }
  }

  bool cells_crashed = true;
  bool resume_wins = true;
  // table_cells[svc][rate][resume? 0=on 1=off]
  std::vector<std::vector<std::vector<cell_avg>>> table_cells(services.size());
  for (std::size_t svc = 0; svc < services.size(); ++svc) {
    table_cells[svc].resize(kNumRates);
    for (std::size_t rate = 0; rate < kNumRates; ++rate) {
      for (const bool resume : {true, false}) {
        crash_run_result runs[kNumSeeds];
        for (std::size_t seed = 0; seed < kNumSeeds; ++seed) {
          runs[seed] = cell_at(svc, rate, resume, seed);
        }
        table_cells[svc][rate].push_back(average(runs, kNumSeeds));
      }
      const cell_avg& on = table_cells[svc][rate][0];
      const cell_avg& off = table_cells[svc][rate][1];
      if (rate > 0) {
        // The comparison is only meaningful if the schedule actually killed
        // clients and the resume variant continued a transfer mid-flight.
        cells_crashed = cells_crashed && on.crashes > 0 && off.crashes > 0 &&
                        on.resumes > 0;
        resume_wins = resume_wins && on.tue < off.tue;
      }
    }
  }

  for (std::size_t svc = 0; svc < services.size(); ++svc) {
    text_table table;
    table.header({"crash rate", "TUE resume", "TUE restart", "crashes",
                  "resumes", "re-sent", "resume traffic", "completion s"});
    for (std::size_t rate = 0; rate < kNumRates; ++rate) {
      const cell_avg& on = table_cells[svc][rate][0];
      const cell_avg& off = table_cells[svc][rate][1];
      table.row({strfmt("%.2f", kCrashRates[rate]), strfmt("%.3f", on.tue),
                 strfmt("%.3f", off.tue),
                 strfmt("%llu", (unsigned long long)(on.crashes + off.crashes)),
                 strfmt("%llu", (unsigned long long)on.resumes),
                 strfmt("%llu", (unsigned long long)off.recovery_restarts),
                 human(on.resume_traffic),
                 strfmt("%.1f", on.completion_sec)});
    }
    std::printf("--- %s (PC client, journaled sessions, %zu seeds) ---\n%s\n",
                services[svc].name.c_str(), kNumSeeds, table.str().c_str());
  }

  rep.checks.check("invariants", invariants_ok);
  rep.checks.check("zero-rate resume==restart", zero_rate_identical);
  rep.checks.check("nonzero cells crashed+resumed", cells_crashed);
  rep.checks.check("resume TUE < restart TUE", resume_wins);

  json_writer& j = rep.json;
  j.field("bench", "crash_recovery")
      .field("files", kFiles)
      .field("file_bytes", kFileBytes)
      .field("seeds", kNumSeeds)
      .field("deterministic", deterministic)
      .field("invariants_ok", invariants_ok)
      .field("zero_rate_identical", zero_rate_identical)
      .field("cells_crashed", cells_crashed)
      .field("resume_wins", resume_wins);
  j.object("services");
  for (std::size_t svc = 0; svc < services.size(); ++svc) {
    j.array(services[svc].name);
    for (std::size_t rate = 0; rate < kNumRates; ++rate) {
      const cell_avg& on = table_cells[svc][rate][0];
      const cell_avg& off = table_cells[svc][rate][1];
      j.object()
          .field("crash_rate", kCrashRates[rate])
          .field("tue_resume", on.tue)
          .field("tue_restart", off.tue)
          .field("crashes_resume", on.crashes)
          .field("crashes_restart", off.crashes)
          .field("resumes", on.resumes)
          .field("recovery_restarts", off.recovery_restarts)
          .field("resume_traffic", on.resume_traffic)
          .field("completion_resume_sec", on.completion_sec)
          .field("completion_restart_sec", off.completion_sec)
          .end();
    }
    j.end();
  }
  j.end();
}

}  // namespace cloudsync::bench
