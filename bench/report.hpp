// Shared plumbing of the self-checking reports that cloudsync_report runs
// (see report_main.cpp for the table of reports). A report builds its grid,
// records named checks in a verdict, writes its fields through the JSON
// writer and, for an identity leg, records golden digests; the driver owns
// argument parsing, the `checks:` line, the output file and the exit status.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_util.hpp"

namespace cloudsync::bench {

/// Named pass/fail checks of one report run. The driver prints them as one
/// `checks:` line and exits non-zero unless every check passed.
class verdict {
 public:
  /// Records `name=yes` or `name=NO`; returns `ok` so the report can keep the
  /// flag for its JSON.
  bool check(std::string name, bool ok) {
    entries_.push_back({std::move(name), ok ? "yes" : "NO"});
    passed_ = passed_ && ok;
    return ok;
  }
  /// Records a value that is shown but never gates (an ungated property, or
  /// a check this run cannot make).
  void note(std::string name, std::string value) {
    entries_.push_back({std::move(name), std::move(value)});
  }
  bool passed() const { return passed_; }
  void print() const {
    std::printf("checks:");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::printf("%s %s=%s", i == 0 ? "" : ",", entries_[i].first.c_str(),
                  entries_[i].second.c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
  bool passed_ = true;
};

/// Streaming JSON writer for one report object. Numbers go through a
/// default-formatted std::ostream (six significant digits for doubles), the
/// formatting every report has always used. Members of the root object and
/// of its direct children go one per line; deeper containers stay on one
/// line.
class json_writer {
 public:
  json_writer() {
    os_ << "{";
    open_.push_back({false, false, '}'});
  }

  template <typename T>
  json_writer& field(std::string_view key, const T& value) {
    member(key);
    scalar(value);
    return *this;
  }
  template <typename T>
  json_writer& element(const T& value) {
    member({});
    scalar(value);
    return *this;
  }
  /// Opens an object (or array) member; with no key, an array element.
  json_writer& object(std::string_view key = {}) { return open(key, '{'); }
  json_writer& array(std::string_view key = {}) { return open(key, '['); }
  json_writer& end() {
    const frame f = open_.back();
    open_.pop_back();
    if (f.any && !f.inline_) newline();
    os_ << f.closer;
    return *this;
  }

  /// The finished document (the root object closed).
  std::string str() const {
    return os_.str() + (open_.front().any ? "\n}\n" : "}\n");
  }

 private:
  struct frame {
    bool any;      ///< a member was written
    bool inline_;  ///< members stay on the opening line
    char closer;
  };

  void newline() {
    os_ << "\n" << std::string(2 * (open_.size()), ' ');
  }
  void member(std::string_view key) {
    frame& f = open_.back();
    if (f.any) os_ << ",";
    if (f.inline_) {
      if (f.any) os_ << " ";
    } else {
      newline();
    }
    f.any = true;
    if (!key.empty()) {
      scalar(key);
      os_ << ": ";
    }
  }
  json_writer& open(std::string_view key, char opener) {
    member(key);
    os_ << opener;
    open_.push_back({false, open_.size() >= 2, opener == '{' ? '}' : ']'});
    return *this;
  }

  void scalar(bool v) { os_ << (v ? "true" : "false"); }
  void scalar(std::nullptr_t) { os_ << "null"; }
  void scalar(const char* v) { scalar(std::string_view(v)); }
  void scalar(const std::string& v) { scalar(std::string_view(v)); }
  void scalar(std::string_view v) {
    os_ << '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') os_ << '\\';
      os_ << c;
    }
    os_ << '"';
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  void scalar(T v) {
    os_ << v;
  }

  std::ostringstream os_;
  std::vector<frame> open_;
};

/// One run of one report: what it was asked for and what it produced.
struct report {
  bool small = false;  ///< `--small`: the reduced, sanitizer-friendly grid
  verdict checks;
  json_writer json;
  /// Golden digests of the run's identity legs, keyed `<report>/<leg>`,
  /// recorded only by legs run at the golden file's configuration. Checked
  /// against tests/golden/report_identity.txt on every `--small` run and
  /// every run that records any.
  std::vector<std::pair<std::string, std::uint64_t>> goldens;

  void golden(std::string key, std::uint64_t digest) {
    goldens.emplace_back(std::move(key), digest);
  }
};

/// Order-sensitive 64-bit digest of a leg's outputs (doubles by bit
/// pattern), for the golden file.
class golden_digest {
 public:
  golden_digest& add(std::uint64_t v) {
    h_ = mix64(h_ ^ v);
    return *this;
  }
  golden_digest& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  /// Every (direction, category) counter.
  golden_digest& add(const traffic_meter& m) {
    for (const direction d : {direction::up, direction::down}) {
      for (std::size_t c = 0;
           c < static_cast<std::size_t>(traffic_category::kCount); ++c) {
        add(m.get(d, static_cast<traffic_category>(c)));
      }
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x636c6f756473796eull;
};

template <typename R>
struct determinism_run {
  std::vector<R> cells;  ///< the serial evaluation, in job order
  bool deterministic = true;
};

/// Evaluates `jobs` serially and on the default worker count (the
/// CLOUDSYNC_THREADS=1 vs N contract: seeded cells must not care), records
/// the `deterministic(1 vs N threads)` check and returns the serial cells.
template <typename R, typename Same>
determinism_run<R> evaluate_1_vs_n(report& rep,
                                   const std::vector<std::function<R()>>& jobs,
                                   Same&& same) {
  const auto evaluate = [&jobs](unsigned threads) {
    std::vector<R> out(jobs.size());
    parallel_runner pool(threads);
    pool.run_indexed(jobs.size(), [&](std::size_t i) { out[i] = jobs[i](); });
    return out;
  };
  const unsigned threads = parallel_runner::default_thread_count();
  determinism_run<R> run{evaluate(1), true};
  const std::vector<R> parallel = evaluate(threads);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!same(run.cells[i], parallel[i])) {
      run.deterministic = false;
      std::fprintf(stderr, "determinism violation: job %zu differs\n", i);
    }
  }
  rep.checks.check(strfmt("deterministic(1 vs %u threads)", threads),
                   run.deterministic);
  return run;
}

/// Runs `fn` in a forked child and returns its result through a pipe, or a
/// value-initialized result if the child fails. The child shares no
/// process-wide state with the parent after the fork: interned chunks, memo
/// entries and the rss high-water mark are its own.
template <typename Fn>
std::invoke_result_t<Fn&> run_in_child(Fn&& fn) {
  using T = std::invoke_result_t<Fn&>;
  static_assert(std::is_trivially_copyable_v<T>);
  int fd[2];
  if (pipe(fd) != 0) return T{};
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fd[0]);
    close(fd[1]);
    return T{};
  }
  if (pid == 0) {
    close(fd[0]);
    const T r = fn();
    std::fflush(nullptr);
    std::size_t off = 0;
    const auto* p = reinterpret_cast<const std::uint8_t*>(&r);
    while (off < sizeof r) {
      const ssize_t n = write(fd[1], p + off, sizeof(r) - off);
      if (n <= 0) _exit(2);
      off += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fd[1]);
  T r{};
  std::size_t off = 0;
  auto* p = reinterpret_cast<std::uint8_t*>(&r);
  while (off < sizeof r) {
    const ssize_t n = read(fd[0], p + off, sizeof(r) - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (off != sizeof r || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return T{};
  }
  return r;
}

}  // namespace cloudsync::bench
