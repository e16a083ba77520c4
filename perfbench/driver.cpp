// perfbench driver: ONE cold measurement of one workload, in its own process.
//
// The memos behind content_cache, the fingerprint/signature/delta/generation
// caches and the record/identity pools are process-wide, so a second
// measurement in the same process would start warm. run.py therefore starts
// this program once per measurement and aggregates the results; this file
// only measures, checks and reports one run as a JSON object on stdout.
//
//   perfbench_driver --workload fleet_replay|edit_sync|server_sessions
//                    --seed N [--smoke] [--trace FILE] [--identity]
//
// --trace FILE  records spans around every call the driver makes into the
//               library, runs the layer probes, and writes the spans to FILE.
// --identity    re-runs the workload's deterministic outputs a second way
//               (1 thread instead of N, or warm instead of cold) and fails the
//               run when the two disagree.
// --smoke       minimal sizes, for the benchmark's own tests.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chunking/cdc.hpp"
#include "chunking/rsync.hpp"
#include "client/service_profile.hpp"
#include "client/sync_protocol.hpp"
#include "compress/lzss.hpp"
#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "dedup/dedup_engine.hpp"
#include "fs/file_ops.hpp"
#include "pipeline/byte_pipeline.hpp"
#include "server/session.hpp"
#include "server/sync_server.hpp"
#include "store/content_store.hpp"
#include "trace/generator.hpp"
#include "util/content_cache.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace cs = cloudsync;

namespace {

// ---------------------------------------------------------------------------
// Clocks and process counters
// ---------------------------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

unsigned host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Tracing: spans around the driver's own calls into each layer. Off unless
// --trace is given; a disabled span_scope costs one branch.
// ---------------------------------------------------------------------------

struct span {
  std::string name;  ///< "<layer>.<call>"
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 = root
  std::uint32_t thread = 0;
};

class tracer {
 public:
  static tracer& get() {
    static tracer t;
    return t;
  }
  bool on() const { return on_; }
  void enable() { on_ = true; }

  std::int64_t open(const char* name, std::uint64_t op) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t parent = stack().empty() ? -1 : stack().back();
    spans_.push_back({name, op, now_ns(), 0, parent, thread_index()});
    const auto idx = static_cast<std::int64_t>(spans_.size() - 1);
    stack().push_back(idx);
    return idx;
  }
  void close(std::int64_t idx) {
    const std::int64_t end = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(idx)].end_ns = end;
    stack().pop_back();
  }
  const std::vector<span>& spans() const { return spans_; }

 private:
  static std::vector<std::int64_t>& stack() {
    thread_local std::vector<std::int64_t> s;
    return s;
  }
  std::uint32_t thread_index() {
    thread_local std::uint32_t id = next_thread_++;
    return id;
  }
  bool on_ = false;
  std::mutex mu_;
  std::vector<span> spans_;
  std::atomic<std::uint32_t> next_thread_{0};
};

class span_scope {
 public:
  span_scope(const char* name, std::uint64_t op) {
    if (tracer::get().on()) idx_ = tracer::get().open(name, op);
  }
  ~span_scope() {
    if (idx_ >= 0) tracer::get().close(idx_);
  }
  span_scope(const span_scope&) = delete;
  span_scope& operator=(const span_scope&) = delete;

 private:
  std::int64_t idx_ = -1;
};

// ---------------------------------------------------------------------------
// Minimal JSON writer (flat objects of numbers, strings, arrays, objects).
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

class json_object {
 public:
  json_object& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  json_object& integer(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  json_object& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + json_escape(v) + "\"");
  }
  json_object& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  json_object& nums(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(k, s + "]");
  }
  json_object& obj(const std::string& k, const json_object& v) {
    return raw(k, v.str());
  }
  json_object& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + json_escape(k) + "\":" + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Memo counters (the cold-start proof and the memo hit ratios)
// ---------------------------------------------------------------------------

struct memo_counts {
  std::map<std::string, cs::content_cache_stats> by_name;

  static memo_counts take() {
    memo_counts m;
    m.by_name["shipped_size"] = cs::content_cache::global().stats();
    m.by_name["fingerprint"] = cs::global_fingerprint_cache().stats();
    m.by_name["signature"] = cs::signature_memo_stats();
    m.by_name["delta"] = cs::delta_memo_stats();
    m.by_name["generation"] = cs::generation_memo_stats();
    return m;
  }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const auto& [_, s] : by_name) t += s.hits + s.misses;
    return t;
  }
  json_object json() const {
    json_object o;
    for (const auto& [name, s] : by_name) {
      o.integer(name + "_hits", s.hits).integer(name + "_misses", s.misses);
    }
    return o;
  }
};

/// Memo traffic between two snapshots, as per-layer metrics.
void memo_metrics(json_object& layer, const memo_counts& before,
                  const memo_counts& after) {
  for (const auto& [name, s] : after.by_name) {
    const cs::content_cache_stats& b = before.by_name.at(name);
    const std::uint64_t hits = s.hits - b.hits;
    const std::uint64_t misses = s.misses - b.misses;
    const std::uint64_t total = hits + misses;
    layer.num("memo." + name + "_hit_ratio",
              total == 0 ? 0.0 : static_cast<double>(hits) / total);
    layer.integer("memo." + name + "_hits", hits);
    layer.integer("memo." + name + "_misses", misses);
  }
}

void store_metrics(json_object& layer) {
  const auto st = cs::content_store::global().stats();
  const std::uint64_t interns = st.intern_hits + st.intern_misses;
  layer.num("store.peak_live_mb", static_cast<double>(st.peak_live_bytes) / kMiB);
  layer.num("store.intern_hit_ratio",
            interns == 0 ? 0.0
                         : static_cast<double>(st.intern_hits) / interns);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Run result shared by the workloads
// ---------------------------------------------------------------------------

struct run_result {
  double setup_s = 0;
  double cpu_s = 0;           ///< user+sys CPU of the timed phase
  double update_mb_s = 0;     ///< user update bytes per wall second
  double peak_rss_mb = 0;     ///< before identity re-runs and probes
  std::vector<double> op_ms;  ///< per-op latency samples
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks
  json_object check;                ///< deterministic outputs (reference)
  json_object info;                 ///< workload-specific human figures
  json_object layer;                ///< per-layer metrics (traced runs)
  memo_counts timed_start;          ///< memo counters as the timed phase began
};

void expect(run_result& r, bool ok, const std::string& what) {
  if (!ok) r.errors.push_back(what);
}

// ---------------------------------------------------------------------------
// Layer probes: time each layer's public kernels over the workload's own
// content. Run only in traced runs, after the timed phase.
// ---------------------------------------------------------------------------

/// Run `fn` until ~min_s elapsed, at least three times; returns the median
/// seconds per call.
double time_kernel(double min_s, const std::function<void()>& fn) {
  std::vector<double> secs;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(min_s * 1e9);
  while (secs.size() < 3 || now_ns() < deadline) {
    const std::int64_t t0 = now_ns();
    fn();
    secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(secs);
}

template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// `sample`: the workload's content, as separate files (each at least one
/// byte). Every kernel walks all of it, so throughput is per workload mix.
void kernel_probes(json_object& layer, const std::vector<cs::byte_buffer>& sample,
                   double min_s) {
  std::uint64_t bytes = 0;
  for (const auto& f : sample) bytes += f.size();
  const double mb = static_cast<double>(bytes) / kMiB;
  auto rate = [mb](double s) { return s > 0 ? mb / s : 0.0; };

  // Stream sizer at every distinct upload level the six profiles use (PC
  // client), so the figure is the sizing work a fleet replay pays per byte.
  std::vector<int> levels;
  for (const cs::service_profile& p : cs::all_services()) {
    const int lvl = p.method(cs::access_method::pc_client).upload_compression_level;
    if (lvl > 0 && std::find(levels.begin(), levels.end(), lvl) == levels.end()) {
      levels.push_back(lvl);
    }
  }
  double sizer_s = 0;
  for (int lvl : levels) {
    span_scope s("compress.stream_sizer", 0);
    sizer_s += time_kernel(min_s, [&] {
      for (const auto& f : sample) {
        cs::lzss_stream_sizer sizer(f.size(), cs::lzss_params{lvl});
        sizer.feed(f);
        keep(sizer.finish());
      }
    });
  }
  const double sizer_mb = mb * static_cast<double>(levels.size());
  layer.num("compress.sizer_s", sizer_s);
  layer.num("compress.sizer_mb_s", sizer_s > 0 ? sizer_mb / sizer_s : 0.0);

  {
    span_scope s("util.sha256", 0);
    layer.num("util.sha256_mb_s", rate(time_kernel(min_s, [&] {
                for (const auto& f : sample) keep(cs::sha256(f));
              })));
  }
  {
    span_scope s("util.md5", 0);
    layer.num("util.md5_mb_s", rate(time_kernel(min_s, [&] {
                for (const auto& f : sample) keep(cs::md5(f));
              })));
  }

  // rsync on old/new pairs shaped like the workloads' edits: a few small
  // patches per file, Dropbox's block size.
  const std::size_t block = cs::dropbox().delta_chunk_size;
  cs::rng r(0x5eed);
  std::vector<cs::byte_buffer> edited;
  for (const auto& f : sample) {
    cs::byte_buffer n = f;
    for (int k = 0; k < 4; ++k) {
      const std::size_t len = std::min<std::size_t>(n.size(), 1 + r.uniform(64));
      const std::size_t off = r.uniform(n.size() - len + 1);
      for (std::size_t i = 0; i < len; ++i) n[off + i] ^= 0x5a;
    }
    edited.push_back(std::move(n));
  }
  std::vector<cs::file_signature> sigs(sample.size());
  std::vector<cs::file_delta> deltas(sample.size());
  {
    span_scope s("chunking.rsync_signature", 0);
    layer.num("chunking.rsync_sig_mb_s", rate(time_kernel(min_s, [&] {
                for (std::size_t i = 0; i < sample.size(); ++i) {
                  sigs[i] = cs::compute_signature(sample[i], block);
                }
              })));
  }
  {
    span_scope s("chunking.rsync_delta", 0);
    layer.num("chunking.rsync_delta_mb_s", rate(time_kernel(min_s, [&] {
                for (std::size_t i = 0; i < sample.size(); ++i) {
                  deltas[i] = cs::compute_delta(sigs[i], edited[i]);
                }
              })));
  }
  {
    span_scope s("chunking.rsync_patch", 0);
    bool patched_ok = true;
    layer.num("chunking.rsync_patch_mb_s", rate(time_kernel(min_s, [&] {
                for (std::size_t i = 0; i < sample.size(); ++i) {
                  patched_ok &= cs::apply_delta(sample[i], deltas[i]) == edited[i];
                }
              })));
    if (!patched_ok) throw std::runtime_error("rsync probe: patch mismatch");
  }
  {
    span_scope s("chunking.cdc", 0);
    layer.num("chunking.cdc_mb_s", rate(time_kernel(min_s, [&] {
                for (const auto& f : sample) {
                  keep(cs::content_defined_chunks(f));
                }
              })));
  }
  {
    span_scope s("pipeline.analyze_content", 0);
    cs::content_request req;
    req.sha256 = req.md5 = req.crc32 = req.weak = req.entropy = true;
    req.cdc = cs::cdc_params{};
    layer.num("pipeline.fused_mb_s", rate(time_kernel(min_s, [&] {
                for (const auto& f : sample) keep(cs::analyze_content(f, req));
              })));
  }
}

// ---------------------------------------------------------------------------
// Edit/fetch loop: one Dropbox account, device A edits, device B fetches.
// The edit_sync workload's timed phase, and the client probe of the others.
// ---------------------------------------------------------------------------

constexpr std::size_t kPatchBytes = 128;  ///< bytes each edit overwrites

struct edit_loop_result {
  std::vector<double> edit_ms, fetch_ms, round_ms;
  std::uint64_t patched_bytes = 0;
  std::uint64_t commits = 0, exchanges = 0, handshakes = 0, fallbacks = 0;
  std::uint64_t fetched = 0;
};

struct two_devices {
  cs::experiment_env env;
  cs::station& a;
  cs::station& b;
  std::vector<std::string> paths;

  explicit two_devices(std::uint64_t seed)
      : env([&] {
          cs::experiment_config cfg{cs::dropbox()};
          cfg.seed = seed;
          return cfg;
        }()),
        a(env.primary()),
        b(env.add_station(env.primary().user)) {}

  /// Initial sync: A creates the working set, B pulls it.
  void populate(const std::vector<cs::content_ref>& files) {
    for (std::size_t i = 0; i < files.size(); ++i) {
      paths.push_back("ws/file" + std::to_string(i) + ".bin");
      a.fs.create(paths.back(), files[i], env.clock().now());
    }
    env.settle();
    b.client->poll_remote_changes();
    env.settle();
  }

  std::uint64_t counter(std::uint64_t (cs::sync_client::*get)() const) const {
    return (*a.client.*get)() + (*b.client.*get)();
  }

  /// `ops` edits of `patch_bytes` random bytes at random offsets.
  edit_loop_result run(std::uint64_t seed, std::size_t ops,
                       std::size_t patch_bytes) {
    edit_loop_result out;
    const std::uint64_t c0 = counter(&cs::sync_client::commit_count);
    const std::uint64_t e0 = counter(&cs::sync_client::exchange_count);
    const std::uint64_t h0 = counter(&cs::sync_client::handshake_count);
    const std::uint64_t f0 = counter(&cs::sync_client::fallback_count);
    cs::rng r(cs::mix64(seed ^ 0xed17));
    for (std::size_t op = 0; op < ops; ++op) {
      const std::string& path = paths[r.uniform(paths.size())];
      const std::size_t size = a.fs.size(path);
      const std::size_t len = std::min(size, patch_bytes);
      const std::size_t off = r.uniform(size - len + 1);
      const cs::byte_buffer data = cs::random_bytes(r, len);
      out.patched_bytes += len;

      span_scope root("bench.op", op);
      const std::int64_t t0 = now_ns();
      {
        span_scope s("fs.patch", op);
        a.fs.patch(path, off, data, env.clock().now());
      }
      {
        span_scope s("client.upload_settle", op);
        env.settle();
      }
      const std::int64_t t1 = now_ns();
      {
        span_scope s("client.poll", op);
        out.fetched += b.client->poll_remote_changes();
      }
      {
        span_scope s("client.download_settle", op);
        env.settle();
      }
      const std::int64_t t2 = now_ns();
      out.edit_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      out.fetch_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
      out.round_ms.push_back(static_cast<double>(t2 - t0) * 1e-6);
    }
    out.commits = counter(&cs::sync_client::commit_count) - c0;
    out.exchanges = counter(&cs::sync_client::exchange_count) - e0;
    out.handshakes = counter(&cs::sync_client::handshake_count) - h0;
    out.fallbacks = counter(&cs::sync_client::fallback_count) - f0;
    return out;
  }

  /// A, B and the cloud hold the same bytes for every path.
  bool converged() {
    for (const std::string& p : paths) {
      const auto cloud_copy = env.the_cloud().file_content(a.user, p);
      if (!cloud_copy || !b.fs.exists(p)) return false;
      const std::uint64_t h = a.fs.read(p).hash64();
      if (b.fs.read(p).hash64() != h || cloud_copy->hash64() != h) return false;
    }
    return true;
  }

  json_object meters() const {
    json_object o;
    const cs::traffic_meter ma = a.aggregate_meter();
    const cs::traffic_meter mb = b.aggregate_meter();
    o.integer("a_up", ma.total(cs::direction::up))
        .integer("a_down", ma.total(cs::direction::down))
        .integer("b_up", mb.total(cs::direction::up))
        .integer("b_down", mb.total(cs::direction::down))
        .integer("commits", a.client->commit_count() + b.client->commit_count());
    return o;
  }
};

/// Median span duration (ms) of every span with this name.
double span_median_ms(const std::string& name) {
  std::vector<double> d;
  for (const span& s : tracer::get().spans()) {
    if (s.name == name) d.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return median(d);
}

void client_metrics(json_object& layer, const edit_loop_result& loop) {
  const double ops = std::max<double>(1.0, static_cast<double>(loop.round_ms.size()));
  layer.num("fs.patch_ms", span_median_ms("fs.patch"));
  layer.num("client.upload_settle_ms", span_median_ms("client.upload_settle"));
  layer.num("client.poll_ms", span_median_ms("client.poll"));
  layer.num("client.download_settle_ms", span_median_ms("client.download_settle"));
  layer.num("client.commits", static_cast<double>(loop.commits) / ops);
  layer.num("client.exchanges", static_cast<double>(loop.exchanges) / ops);
  layer.num("client.handshakes", static_cast<double>(loop.handshakes) / ops);
  layer.num("client.fallbacks", static_cast<double>(loop.fallbacks) / ops);
  layer.num("client.edit_p50_ms", percentile(loop.edit_ms, 0.5));
  layer.num("client.fetch_p50_ms", percentile(loop.fetch_ms, 0.5));
  layer.num("client.edit_p99_ms", percentile(loop.edit_ms, 0.99));
  layer.num("client.fetch_p99_ms", percentile(loop.fetch_ms, 0.99));
}

/// Client probe for workloads that do not run the client loop themselves:
/// the same edit/fetch loop over a few of the workload's own files.
void client_probe(json_object& layer, const std::vector<cs::byte_buffer>& sample,
                  std::uint64_t seed) {
  two_devices dev(seed);
  std::vector<cs::content_ref> files;
  for (std::size_t i = 0; i < sample.size() && files.size() < 8; ++i) {
    if (sample[i].size() >= 4096) files.push_back(cs::content_ref::from_bytes(sample[i]));
  }
  if (files.empty()) throw std::runtime_error("client probe: no file >= 4 KiB");
  dev.populate(files);
  const edit_loop_result loop = dev.run(seed, 40, kPatchBytes);
  if (!dev.converged()) throw std::runtime_error("client probe: not converged");
  client_metrics(layer, loop);
}

// ---------------------------------------------------------------------------
// Server sessions: open loop at fixed rates, closed-loop capacity burst.
// ---------------------------------------------------------------------------

constexpr double kSessionP99LimitMs = 10.0;  ///< latency limit for max rate
constexpr std::uint32_t kBursts = 5;         ///< closed-loop bursts per process
constexpr double kNominalRate = 1000.0;      ///< sessions/s, below saturation
/// Admission window per shard on the rate ladder's server: below the worker
/// count, so near saturation sessions queue at admit() and the admission
/// metrics measure that queue. The timed phases keep the default window.
constexpr std::uint32_t kLadderAdmissionLimit = 1;

struct session_phase {
  std::vector<double> latency_ms;  ///< due → completion
  std::vector<double> core_ms;     ///< due → completion on dedicated cores (below)
  std::vector<double> late_ms;   ///< due → start, for sessions a worker awaited
  std::vector<double> queue_ms;  ///< due → session start (worker + admission)
  std::vector<double> diff_ms, transfer_ms, apply_ms;
  std::uint64_t update_bytes = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
  double cpu_s = 0;  ///< thread CPU inside run_session (no idle spinning)
  double last_lag_ms = 0;  ///< completion lag of the last session due
};

class session_driver {
 public:
  session_driver(std::uint64_t seed, std::uint32_t total_sessions,
                 std::uint32_t admission_limit = cs::server_config{}.admission_limit)
      : server_([admission_limit] {
          cs::server_config cfg;
          cfg.shards = 4;
          cfg.admission_limit = admission_limit;
          cfg.verify_uploads = true;
          return cfg;
        }()) {
    params_.seed = seed;
    params_.user_population = 4'000'000;
    params_.sessions = total_sessions;
    work_ = cs::make_session_workloads(params_);
    results_.resize(work_.size());
    // Identity-pool warm-up: resolve and materialize every identity more
    // than one session draws (the zipf pool), so the timed phase pays for
    // sessions, not for first-touch generation of shared content.
    std::map<std::uint64_t, std::uint32_t> draws;
    for (const cs::session_workload& w : work_) {
      for (const cs::session_file& f : w.files) ++draws[f.content_seed];
    }
    for (const cs::session_workload& w : work_) {
      for (const cs::session_file& f : w.files) {
        if (draws[f.content_seed] > 1) {
          keep(cs::identity_for(f.content_seed, f.size).content.hash64());
        }
      }
    }
  }

  /// Sessions [next_, next_+n) due at `rate` per second on a seeded Poisson
  /// schedule (rate 0 = closed loop: all due at once). Each worker claims
  /// the next session in due order and starts it at its due time, or as soon
  /// as it is free if it is late, so a session waits exactly as it would in
  /// a FIFO queue in front of the workers. Idle workers spin instead of
  /// sleeping: a thread wake-up costs a VM tens of microseconds, which would
  /// otherwise be measured as session latency.
  session_phase run(std::uint32_t n, double rate, unsigned workers,
                    std::uint64_t schedule_seed) {
    n = std::min<std::uint32_t>(n, static_cast<std::uint32_t>(work_.size() - next_));
    const std::size_t first = next_;
    next_ += n;
    std::vector<std::int64_t> due(n, 0);
    cs::rng r(schedule_seed);
    double t = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (rate > 0) t += r.exponential(rate);
      due[i] = static_cast<std::int64_t>(t * 1e9);
    }

    session_phase out;
    std::vector<std::int64_t> started(n, 0), done(n, 0), cpu_ns(n, 0);
    std::vector<double> late(n, -1.0);  ///< -1: the worker was busy at due time
    std::atomic<std::uint32_t> claim{0};
    const std::int64_t start = now_ns() + 2'000'000;  // 2 ms to start workers

    auto worker = [&] {
      for (std::uint32_t i; (i = claim.fetch_add(1)) < n;) {
        const std::int64_t at = start + due[i];
        if (now_ns() < at) {
          while (now_ns() < at) {
          }
          late[i] = static_cast<double>(now_ns() - at) * 1e-6;
        }
        span_scope s("server.run_session", first + i);
        started[i] = now_ns();
        const std::int64_t c0 = thread_cpu_ns();
        try {
          results_[first + i] = cs::run_session(server_, work_[first + i]);
        } catch (const std::exception&) {
          results_[first + i].failed = true;  // counted, and fails the run
        }
        cpu_ns[i] = thread_cpu_ns() - c0;
        done[i] = now_ns();
      }
    };
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
    const std::int64_t end = *std::max_element(done.begin(), done.end());
    out.wall_s = static_cast<double>(end - start) * 1e-9;

    for (std::uint32_t i = 0; i < n; ++i) {
      const cs::session_result& res = results_[first + i];
      out.latency_ms.push_back(static_cast<double>(done[i] - (start + due[i])) * 1e-6);
      if (late[i] >= 0) out.late_ms.push_back(late[i]);
      out.cpu_s += static_cast<double>(cpu_ns[i]) * 1e-9;
      out.update_bytes += res.update_bytes;
      out.failed += res.failed ? 1 : 0;
      const auto& ns = res.timings.ns;
      auto ms = [&](cs::session_state st) {
        return static_cast<double>(ns[static_cast<std::size_t>(st)]) * 1e-6;
      };
      out.queue_ms.push_back(static_cast<double>(started[i] - (start + due[i])) * 1e-6);
      out.diff_ms.push_back(ms(cs::session_state::computing_diff));
      out.transfer_ms.push_back(ms(cs::session_state::transferring));
      out.apply_ms.push_back(ms(cs::session_state::applying));
    }
    out.last_lag_ms = out.latency_ms.back();
    out.core_ms = dedicated_core_latency_ms(due, cpu_ns, workers);
    return out;
  }

  /// Each session's latency from due time on `cores` cores that run nothing
  /// else: a FIFO queue in due order whose service times are the sessions'
  /// measured thread CPU times. Steal and preemption by the host's other
  /// tenants add wall time to a session but no CPU time, and in an open loop
  /// they also delay every session queued behind it, so the wall latency's
  /// tail measures the host as much as the program; this one does not.
  static std::vector<double> dedicated_core_latency_ms(
      const std::vector<std::int64_t>& due, const std::vector<std::int64_t>& cpu_ns,
      unsigned cores) {
    std::vector<std::int64_t> free_at(std::max(1u, cores), 0);
    std::vector<double> out;
    out.reserve(due.size());
    for (std::size_t i = 0; i < due.size(); ++i) {
      std::int64_t& core = *std::min_element(free_at.begin(), free_at.end());
      core = std::max(core, due[i]) + cpu_ns[i];
      out.push_back(static_cast<double>(core - due[i]) * 1e-6);
    }
    return out;
  }

  /// Highest fixed rate meeting the p99 limit with the backlog drained
  /// within the limit, interpolated (log latency) between the last rate that
  /// passes and the first that fails.
  double max_rate(const std::vector<double>& rates, std::uint32_t per_step_ms,
                  unsigned workers) {
    double pass_rate = 0, pass_p99 = 0;
    for (std::size_t k = 0; k < rates.size(); ++k) {
      const auto n = static_cast<std::uint32_t>(rates[k] * per_step_ms / 1000.0);
      if (n == 0 || remaining() < n) break;
      const session_phase ph = run(n, rates[k], workers, params_.seed * 131 + k);
      const double p99 = percentile(ph.latency_ms, 0.99);
      const bool ok = ph.failed == 0 && p99 <= kSessionP99LimitMs &&
                      ph.last_lag_ms <= kSessionP99LimitMs;
      if (ok) {
        pass_rate = rates[k];
        pass_p99 = p99;
        continue;
      }
      if (pass_rate == 0) return rates[k] * kSessionP99LimitMs / std::max(p99, kSessionP99LimitMs);
      const double lo = std::log(std::max(pass_p99, 1e-3));
      const double hi = std::log(std::max(p99, kSessionP99LimitMs));
      const double f = hi > lo ? (std::log(kSessionP99LimitMs) - lo) / (hi - lo) : 1.0;
      return pass_rate + std::clamp(f, 0.0, 1.0) * (rates[k] - pass_rate);
    }
    return pass_rate;
  }

  std::size_t remaining() const { return work_.size() - next_; }
  std::size_t used() const { return next_; }
  cs::sync_server& server() { return server_; }
  const std::vector<cs::session_workload>& work() const { return work_; }
  std::vector<cs::session_result> results() const {
    return {results_.begin(), results_.begin() + static_cast<std::ptrdiff_t>(next_)};
  }

 private:
  cs::workload_params params_;
  cs::sync_server server_;
  std::vector<cs::session_workload> work_;
  std::vector<cs::session_result> results_;
  std::size_t next_ = 0;
};

unsigned session_workers() { return std::max(1u, host_threads() - 1); }

struct ladder_result {
  double max_rate = 0;
  cs::shard_stats stats;  ///< the ladder server's shards, aggregated
};

/// Server metrics: session timings and lock/dedup counters of the nominal
/// phase (`shards` is the shard_stats snapshot taken right after it),
/// admission and saturation from the ladder.
void server_metrics(json_object& layer, const cs::shard_stats& shards,
                    const session_phase& nominal, const ladder_result& ladder) {
  layer.num("server.diff_ms", median(nominal.diff_ms));
  layer.num("server.transfer_ms", median(nominal.transfer_ms));
  layer.num("server.apply_ms", median(nominal.apply_ms));
  layer.num("server.queue_wait_ms", percentile(nominal.queue_ms, 0.99));
  layer.num("server.session_wall_p99_ms", percentile(nominal.latency_ms, 0.99));
  layer.num("server.lock_contention_ratio",
            shards.lock_acquisitions == 0
                ? 0.0
                : static_cast<double>(shards.lock_contentions) /
                      shards.lock_acquisitions);
  layer.num("server.lock_busy_s", static_cast<double>(shards.busy_ns) * 1e-9);
  layer.integer("server.admission_waits", ladder.stats.admission_waits);
  layer.integer("server.queue_depth_peak", ladder.stats.queue_depth_peak);
  layer.num("server.dedup_hit_ratio",
            shards.dedup_probes == 0
                ? 0.0
                : static_cast<double>(shards.dedup_hits) / shards.dedup_probes);
  layer.num("server.max_rate_sps", ladder.max_rate);
  layer.num("bench.generator_late_ms", percentile(nominal.late_ms, 0.99));
}

const std::vector<double> kLadder = {1000, 1500, 2000, 2500, 3000,
                                     3500, 4000, 5000, 6000, 8000};

/// max_rate_sps on a fresh server (admission window kLadderAdmissionLimit)
/// and its own wave of users, so the ladder never changes the sessions (and
/// the identity digest) of a timed phase.
ladder_result ladder_max_rate(std::uint64_t seed, std::uint32_t step_ms) {
  std::uint32_t total = 0;
  for (double r : kLadder) total += static_cast<std::uint32_t>(r * step_ms / 1000.0);
  session_driver drv(cs::mix64(seed ^ 0x1add3), total, kLadderAdmissionLimit);
  ladder_result out;
  out.max_rate = drv.max_rate(kLadder, step_ms, session_workers());
  out.stats = drv.server().stats().aggregate();
  return out;
}

/// Server probe for workloads that do not run sessions themselves: a short
/// nominal-rate phase on a fresh server, then the rate ladder.
void server_probe(json_object& layer, std::uint64_t seed, bool smoke) {
  const std::uint32_t n = smoke ? 100 : 600;
  session_driver drv(seed, n);
  const session_phase nominal = drv.run(n, kNominalRate, session_workers(), seed);
  server_metrics(layer, drv.server().stats().aggregate(), nominal,
                 ladder_max_rate(seed, smoke ? 50 : 300));
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
  bool identity = false;
  std::string trace_out;
};

// One fixed calibrated trace, the one `cloudsync replay --scale 0.001` replays
// (the CLI's default seed). The trace's lognormal sizes (sigma 3.11) make the
// replayed volume differ up to 10x between trace seeds at this scale, so the
// benchmark seed does not pick the trace: a per-seed trace would measure the
// seed, not the code.
constexpr std::uint64_t kFleetTraceSeed = 1234;
constexpr double kFleetScale = 0.001;
constexpr double kFleetSmokeScale = 0.0002;

cs::fleet_config fleet_cfg(const options& o) {
  cs::fleet_config cfg;
  cfg.trace.seed = kFleetTraceSeed;
  cfg.trace.scale = o.smoke ? kFleetSmokeScale : kFleetScale;
  cfg.replay_threads = std::min(host_threads(), 6u);
  return cfg;
}

/// The bytes record_content would produce for a trace record.
cs::byte_buffer record_bytes(const cs::trace_file_record& rec) {
  cs::rng r(rec.full_md5.prefix64());
  return cs::synthetic_payload(r, static_cast<std::size_t>(rec.original_size),
                               rec.compression_ratio());
}

run_result run_fleet(const options& o) {
  run_result r;
  cs::fleet_config cfg = fleet_cfg(o);

  const std::int64_t s0 = now_ns();
  cs::trace_dataset ds;
  {
    span_scope s("trace.generate_trace", 0);
    ds = cs::generate_trace(cfg.trace);
  }
  std::map<std::string, std::size_t> expected_files;
  for (const auto& rec : ds.files) ++expected_files[rec.service];
  r.setup_s = static_cast<double>(now_ns() - s0) * 1e-9;

  r.timed_start = memo_counts::take();
  cs::content_store::global().reset_peak();
  const double c0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  std::vector<cs::fleet_service_report> reports;
  {
    span_scope s("core.replay_trace_fleet", 0);
    reports = cs::replay_trace_fleet(cfg);
  }
  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
  r.cpu_s = cpu_seconds() - c0;
  r.op_ms.push_back(wall * 1e3);

  std::uint64_t update_bytes = 0;
  for (const auto& rep : reports) {
    update_bytes += rep.update_bytes;
    r.attempted += rep.files;
    expect(r, rep.files == expected_files[rep.service],
           rep.service + ": replayed files differ from the trace");
    expect(r, rep.dropped_files == 0, rep.service + ": files dropped");
    char tue[32];
    std::snprintf(tue, sizeof tue, "%.6f", rep.tue());
    json_object svc;
    svc.integer("files", rep.files)
        .integer("update_bytes", rep.update_bytes)
        .integer("sync_traffic", rep.sync_traffic)
        .integer("commits", rep.commits)
        .str("tue", tue);
    r.check.obj(rep.service, svc);
  }
  expect(r, reports.size() == 6, "fleet: expected six service reports");
  r.update_mb_s = static_cast<double>(update_bytes) / kMiB / wall;
  r.peak_rss_mb = peak_rss_mb();
  r.info.integer("files", r.attempted).integer("update_bytes", update_bytes);

  if (tracer::get().on()) {
    memo_metrics(r.layer, r.timed_start, memo_counts::take());
    store_metrics(r.layer);
  }

  if (o.identity) {
    // 1 thread instead of N (and warm memos instead of cold): same reports.
    cs::fleet_config serial = cfg;
    serial.replay_threads = 1;
    const auto again = cs::replay_trace_fleet(serial);
    bool same = again.size() == reports.size();
    for (std::size_t i = 0; same && i < again.size(); ++i) {
      same = again[i].service == reports[i].service &&
             again[i].files == reports[i].files &&
             again[i].update_bytes == reports[i].update_bytes &&
             again[i].sync_traffic == reports[i].sync_traffic &&
             again[i].commits == reports[i].commits;
    }
    expect(r, same, "fleet: 1-thread replay differs from the N-thread replay");
  }

  if (tracer::get().on()) {
    // Probe sample: the trace's files in order, skipping any over 1 MiB,
    // until 4 MiB (smoke: 256 KiB) of the replay's own content.
    const std::uint64_t budget = o.smoke ? 256 * 1024 : 4 * 1024 * 1024;
    std::vector<cs::byte_buffer> sample;
    std::uint64_t got = 0;
    for (const auto& rec : ds.files) {
      if (got >= budget) break;
      if (rec.original_size == 0 || rec.original_size > (1u << 20)) continue;
      sample.push_back(record_bytes(rec));
      got += sample.back().size();
    }
    kernel_probes(r.layer, sample, o.smoke ? 0.01 : 0.1);
    client_probe(r.layer, sample, o.seed);
    server_probe(r.layer, o.seed, o.smoke);
  }
  return r;
}

/// Device A's working set: `files` incompressible files, then the initial
/// sync of A and B.
void populate_working_set(two_devices& dev, std::size_t files, std::size_t bytes) {
  std::vector<cs::content_ref> ws;
  {
    span_scope s("fs.make_compressed_file", 0);
    for (std::size_t i = 0; i < files; ++i) {
      ws.push_back(cs::content_ref::from_buffer(dev.env.gen_compressed(bytes)));
    }
  }
  span_scope s("client.initial_sync", 0);
  dev.populate(ws);
}

run_result run_edit(const options& o) {
  run_result r;
  const std::size_t files = o.smoke ? 4 : 32;
  const std::size_t file_bytes = o.smoke ? 64 * 1024 : 1024 * 1024;
  const std::size_t ops = o.smoke ? 20 : 200;

  const std::int64_t s0 = now_ns();
  auto dev = std::make_unique<two_devices>(o.seed);
  populate_working_set(*dev, files, file_bytes);
  r.setup_s = static_cast<double>(now_ns() - s0) * 1e-9;

  r.timed_start = memo_counts::take();
  cs::content_store::global().reset_peak();
  const double c0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  const edit_loop_result loop = dev->run(o.seed, ops, kPatchBytes);
  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
  r.cpu_s = cpu_seconds() - c0;
  r.op_ms = loop.round_ms;
  r.attempted = ops;
  r.update_mb_s = static_cast<double>(loop.patched_bytes) / kMiB / wall;
  r.peak_rss_mb = peak_rss_mb();
  r.info.nums("edit_ms", loop.edit_ms).nums("fetch_ms", loop.fetch_ms);

  expect(r, dev->converged(), "edit_sync: A, B and the cloud diverged");
  expect(r, loop.fetched >= ops, "edit_sync: B missed remote changes");
  r.check = dev->meters();

  // Probe sample: the first working-set files as they stand after the ops.
  std::vector<cs::byte_buffer> sample;
  if (tracer::get().on()) {
    memo_metrics(r.layer, r.timed_start, memo_counts::take());
    store_metrics(r.layer);
    client_metrics(r.layer, loop);
    for (std::size_t i = 0; i < (o.smoke ? 2 : 4); ++i) {
      sample.push_back(dev->a.fs.read(dev->paths[i]).flatten());
    }
  }

  if (o.identity) {
    // The same seeded workload again, warm: identical meters.
    dev = std::make_unique<two_devices>(o.seed);
    populate_working_set(*dev, files, file_bytes);
    dev->run(o.seed, ops, kPatchBytes);
    expect(r, dev->meters().str() == r.check.str(),
           "edit_sync: warm re-run metered different traffic");
  }

  if (tracer::get().on()) {
    kernel_probes(r.layer, sample, o.smoke ? 0.01 : 0.1);
    server_probe(r.layer, o.seed, o.smoke);
  }
  return r;
}

run_result run_server(const options& o) {
  run_result r;
  const std::uint32_t nominal_n = o.smoke ? 200 : 1500;
  const std::uint32_t burst_n = o.smoke ? 200 : 3000;
  const unsigned workers = session_workers();

  const std::int64_t s0 = now_ns();
  std::optional<session_driver> drv;
  drv.emplace(o.seed, nominal_n + burst_n);
  r.setup_s = static_cast<double>(now_ns() - s0) * 1e-9;

  r.timed_start = memo_counts::take();
  cs::content_store::global().reset_peak();
  const session_phase nominal = drv->run(nominal_n, kNominalRate, workers, o.seed);
  std::optional<cs::shard_stats> nominal_stats;
  if (tracer::get().on()) nominal_stats = drv->server().stats().aggregate();
  double session_cpu_s = nominal.cpu_s;
  // Capacity: the closed-loop sessions run as kBursts back-to-back bursts,
  // and the median burst is reported, so one stall of the host does not
  // decide the figure.
  std::vector<double> burst_mb_s, burst_sps;
  std::uint64_t burst_failed = 0;
  for (std::uint32_t k = 0; k < kBursts; ++k) {
    const session_phase b = drv->run(burst_n / kBursts, 0, workers, o.seed + 1 + k);
    burst_mb_s.push_back(static_cast<double>(b.update_bytes) / kMiB / b.wall_s);
    burst_sps.push_back((burst_n / kBursts) / b.wall_s);
    burst_failed += b.failed;
    session_cpu_s += b.cpu_s;
  }
  r.cpu_s = session_cpu_s;
  r.op_ms = nominal.core_ms;
  r.attempted = nominal_n + burst_n;
  r.failed = nominal.failed + burst_failed;
  r.update_mb_s = median(burst_mb_s);
  r.peak_rss_mb = peak_rss_mb();
  r.info.num("burst_sps", median(burst_sps))
      .num("wall_p50_ms", percentile(nominal.latency_ms, 0.5))
      .num("wall_p99_ms", percentile(nominal.latency_ms, 0.99))
      .num("generator_late_p99_ms", percentile(nominal.late_ms, 0.99));

  if (tracer::get().on()) {
    memo_metrics(r.layer, r.timed_start, memo_counts::take());
    store_metrics(r.layer);
    server_metrics(r.layer, *nominal_stats, nominal,
                   ladder_max_rate(o.seed, o.smoke ? 100 : 500));
  }

  const std::vector<cs::session_result> results = drv->results();
  std::uint64_t failed_sessions = 0;
  for (const auto& res : results) failed_sessions += res.failed ? 1 : 0;
  expect(r, failed_sessions == 0, "server_sessions: failed sessions");
  const std::uint64_t ident = cs::results_identity_hash(results);
  r.check.str("identity_hash", std::to_string(ident))
      .integer("sessions", results.size());

  // Probe sample: the wave's first 4 MiB (smoke: 256 KiB) of session files.
  std::vector<cs::byte_buffer> sample;
  if (tracer::get().on()) {
    std::uint64_t got = 0;
    const std::uint64_t budget = o.smoke ? 256 * 1024 : 4 * 1024 * 1024;
    for (const auto& w : drv->work()) {
      for (const auto& f : w.files) {
        if (got >= budget) break;
        sample.push_back(cs::identity_for(f.content_seed, f.size).content.flatten());
        got += f.size;
      }
    }
  }

  if (o.identity) {
    // 1 shard, 1 thread, no schedule: the same identity digest.
    const std::vector<cs::session_workload> work(
        drv->work().begin(), drv->work().begin() + static_cast<std::ptrdiff_t>(drv->used()));
    drv.reset();
    cs::server_config one;
    one.shards = 1;
    cs::sync_server serial(one);
    std::vector<cs::session_result> again;
    for (const auto& w : work) again.push_back(cs::run_session(serial, w));
    expect(r, cs::results_identity_hash(again) == ident,
           "server_sessions: 1-shard serial run differs from the 4-shard open loop");
  }

  if (tracer::get().on()) {
    kernel_probes(r.layer, sample, o.smoke ? 0.01 : 0.1);
    client_probe(r.layer, sample, o.seed);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

json_object host_facts() {
  json_object h;
  h.integer("nproc", host_threads());
  h.str("compiler", PERFBENCH_CXX_ID);
  h.str("build_type", PERFBENCH_BUILD_TYPE);
  h.str("cxx_flags", PERFBENCH_CXX_FLAGS);
  h.boolean("march_native",
            std::string(PERFBENCH_CXX_FLAGS).find("-march=native") != std::string::npos);
#ifdef NDEBUG
  h.boolean("assertions", false);
#else
  h.boolean("assertions", true);
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  h.boolean("sanitizer", true);
#else
  h.boolean("sanitizer", false);
#endif
  return h;
}

/// Per-layer self time: each span's duration minus what its children cover,
/// summed by layer (the name's prefix before the first '.').
json_object self_times() {
  const auto& spans = tracer::get().spans();
  std::vector<double> child_s(spans.size(), 0.0);
  for (const span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = spans[i].name.substr(0, spans[i].name.find('.'));
    by_layer[layer] += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9 -
                       child_s[i];
  }
  json_object o;
  for (const auto& [layer, s] : by_layer) o.num(layer, s);
  return o;
}

void write_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const auto& spans = tracer::get().spans();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"self_s\":" << self_times().str() << ",\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"op\":" << s.op << ",\"start_ns\":" << (s.start_ns - origin)
        << ",\"end_ns\":" << (s.end_ns - origin) << ",\"parent\":" << s.parent
        << ",\"thread\":" << s.thread << "}";
  }
  out << "]}\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload fleet_replay|edit_sync|"
               "server_sessions --seed N [--smoke] [--identity] [--trace FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--smoke") o.smoke = true;
      else if (a == "--identity") o.identity = true;
      else if (a == "--trace") o.trace_out = value();
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }

  // Cold-start proof: nothing may have touched a memo before this run.
  const memo_counts entry = memo_counts::take();
  if (!o.trace_out.empty()) tracer::get().enable();

  run_result r;
  try {
    if (o.workload == "fleet_replay") r = run_fleet(o);
    else if (o.workload == "edit_sync") r = run_edit(o);
    else if (o.workload == "server_sessions") r = run_server(o);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  expect(r, entry.total() == 0, "warm start: memo counters nonzero at entry");

  std::string errors = "[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    errors += (i ? ",\"" : "\"") + json_escape(r.errors[i]) + "\"";
  }
  errors += "]";

  json_object out;
  out.str("workload", o.workload)
      .integer("seed", o.seed)
      .boolean("smoke", o.smoke)
      .obj("host", host_facts())
      .obj("memo_at_entry", entry.json())
      .obj("memo_at_timed_start", r.timed_start.json())
      .num("setup_s", r.setup_s)
      .num("cpu_s", r.cpu_s)
      .num("peak_rss_mb", r.peak_rss_mb)
      .num("update_mb_s", r.update_mb_s)
      .nums("op_ms", r.op_ms)
      .integer("attempted", r.attempted)
      .integer("failed", r.failed)
      .raw("errors", errors)
      .obj("check", r.check)
      .obj("info", r.info)
      .obj("layer", r.layer);
  if (!o.trace_out.empty()) {
    out.obj("self_s", self_times());
    write_trace(o.trace_out);
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}
