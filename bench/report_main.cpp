// cloudsync_report: the self-checking reports behind the BENCH_*.json
// files, one executable.
//
//   cloudsync_report <name> [--small] [out.json]
//
// Runs one report, prints its tables and a `checks:` line, and writes its
// JSON (default: the report's BENCH_*.json in the working directory). The
// exit status is the verdict: 0 when every check passed and the JSON was
// written, 1 otherwise, 2 on a usage error. `--small` runs the reduced grid
// the sanitizer builds use, where a report has one. The report's golden
// identity digests (tests/golden/report_identity.txt) are checked on every
// `--small` run and on every full run that records them.
#include <cstring>
#include <fstream>
#include <map>

#include "report.hpp"

namespace cloudsync::bench {
void cache_tier_report(report&);
void crash_recovery_report(report&);
void failure_report(report&);
void fleet_scale_report(report&);
void hotpath_report(report&);
void kernel_report(report&);
void protocol_selector_report(report&);
void server_scale_report(report&);
void stream_scale_report(report&);
void transfer_frontier_report(report&);
}  // namespace cloudsync::bench

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

struct report_entry {
  const char* name;
  const char* default_json;
  bool has_small;
  void (*run)(report&);
};

const report_entry kReports[] = {
    {"cache_tier", "BENCH_cache.json", true, cache_tier_report},
    {"crash_recovery_tue", "BENCH_crash.json", false, crash_recovery_report},
    {"failure_tue", "BENCH_failure.json", false, failure_report},
    {"fleet_scale", "BENCH_fleet.json", true, fleet_scale_report},
    {"hotpath", "BENCH_hotpath.json", false, hotpath_report},
    {"kernel", "BENCH_kernels.json", false, kernel_report},
    {"protocol_selector", "BENCH_protocol.json", true,
     protocol_selector_report},
    {"server_scale", "BENCH_server.json", true, server_scale_report},
    {"stream_scale", "BENCH_stream.json", true, stream_scale_report},
    {"transfer_frontier", "BENCH_transfer.json", true,
     transfer_frontier_report},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: cloudsync_report <name> [--small] "
               "[out.json]\nreports:",
               why);
  for (const report_entry& e : kReports) {
    std::fprintf(stderr, " %s%s", e.name, e.has_small ? "" : "(no --small)");
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Compares the run's golden digests with the checked-in file: every line
/// of this report must be produced and match, and every digest produced
/// must have a line.
bool goldens_match(const std::string& name, const report& rep) {
  std::map<std::string, std::string> expected;
  std::ifstream in(CLOUDSYNC_GOLDEN_FILE);
  if (!in) {
    std::fprintf(stderr, "golden: cannot read %s\n", CLOUDSYNC_GOLDEN_FILE);
    return false;
  }
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find(' ');
    const std::string key = line.substr(0, sp);
    if (key.starts_with(name + "/") && sp != std::string::npos) {
      expected[key] = line.substr(sp + 1);
    }
  }
  bool ok = true;
  for (const auto& [key, value] : rep.goldens) {
    const std::string got = strfmt("%016llx", (unsigned long long)value);
    std::printf("golden: %s %s\n", key.c_str(), got.c_str());
    const auto it = expected.find(key);
    if (it == expected.end() || it->second != got) {
      ok = false;
      std::fprintf(stderr, "golden mismatch: %s expected %s got %s\n",
                   key.c_str(),
                   it == expected.end() ? "(no line)" : it->second.c_str(),
                   got.c_str());
    }
    if (it != expected.end()) expected.erase(it);
  }
  for (const auto& [key, value] : expected) {
    ok = false;
    std::fprintf(stderr, "golden mismatch: %s expected %s, not produced\n",
                 key.c_str(), value.c_str());
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing report name");
  const report_entry* entry = nullptr;
  for (const report_entry& e : kReports) {
    if (std::strcmp(argv[1], e.name) == 0) entry = &e;
  }
  if (entry == nullptr) {
    return usage(strfmt("unknown report '%s'", argv[1]).c_str());
  }

  report rep;
  const char* out_path = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0 && entry->has_small) {
      rep.small = true;
    } else if (argv[i][0] == '-') {
      return usage(strfmt("unknown flag '%s' for %s", argv[i], entry->name)
                       .c_str());
    } else if (out_path != nullptr) {
      return usage("more than one output path");
    } else {
      out_path = argv[i];
    }
  }
  if (out_path == nullptr) out_path = entry->default_json;

  // Open the output first so a bad path fails before the run, not after.
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", out_path);
    return 1;
  }

  entry->run(rep);
  if (rep.small || !rep.goldens.empty()) {
    rep.checks.check("golden digests", goldens_match(entry->name, rep));
  }
  rep.checks.print();

  out << rep.json.str();
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return rep.checks.passed() ? 0 : 1;
}
