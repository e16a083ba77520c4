// Thread pool that fans independent, index-addressed tasks across cores.
//
// The simulator's unit of work is one experiment_env — a clock, a cloud, and
// its filesystems, all single-threaded by design (net/sim_clock.hpp). Whole
// environments share nothing, so a parameter sweep (a bench table's cells, a
// fleet replay's per-service runs) is embarrassingly parallel. The rule:
// simulation state never crosses threads; pure kernels over immutable
// `content_ref` ranges may fan out inside one experiment (the dedup engine's
// per-chunk fingerprints, the dedup protocol's per-chunk wire sizes).
//
// Determinism: tasks are identified by index and write only their own slot,
// so results are in index order regardless of completion order or thread
// count — a parallel sweep is bit-identical to the serial one.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cloudsync {

class parallel_runner {
 public:
  /// `threads` == 0 picks a default: the CLOUDSYNC_THREADS environment
  /// variable if set, else std::thread::hardware_concurrency(). With an
  /// effective count of 1 no workers are spawned and tasks run inline on
  /// the calling thread (the serial path, byte-identical by construction).
  explicit parallel_runner(unsigned threads = 0);
  ~parallel_runner();

  parallel_runner(const parallel_runner&) = delete;
  parallel_runner& operator=(const parallel_runner&) = delete;

  unsigned thread_count() const { return threads_; }

  /// Run fn(0), fn(1), ..., fn(n-1) across the pool and block until all
  /// completed. Tasks must be independent (each owning its whole simulation
  /// world, or computing a pure function of shared immutable input). If any
  /// task throws, the first exception is rethrown here after the batch
  /// drains.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// The thread count a default-constructed runner would use.
  static unsigned default_thread_count();

 private:
  void worker_loop();
  bool claim_and_run();  ///< returns false when the current batch is drained

  unsigned threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< wakes workers for a new batch
  std::condition_variable done_cv_;  ///< wakes run_indexed when batch drains
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_size_ = 0;
  std::size_t next_index_ = 0;
  std::size_t completed_ = 0;
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

/// Evaluate `fn(i)` for i in [0, n) and collect the results in index order.
template <typename R, typename Fn>
std::vector<R> parallel_map_n(parallel_runner& pool, std::size_t n, Fn&& fn) {
  std::vector<R> out(n);
  pool.run_indexed(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Work over less content than this runs on the calling thread: starting a
/// pool costs more than splitting the work saves.
inline constexpr std::uint64_t kFanOutMinBytes = 1 << 20;

/// fn(i) for i in [0, n), in index order, where the n pieces together cover
/// `bytes` of content. One rule for fanning out inside an experiment: run
/// serially when there is one piece or less than kFanOutMinBytes, else on a
/// local pool of min(default_thread_count(), n) threads. `fn` must be a pure
/// function of immutable input; the result never depends on the width.
template <typename R, typename Fn>
std::vector<R> fan_out_map(std::size_t n, std::uint64_t bytes, Fn&& fn) {
  if (n < 2 || bytes < kFanOutMinBytes) {
    std::vector<R> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(fn(i));
    return out;
  }
  parallel_runner pool(static_cast<unsigned>(std::min<std::size_t>(
      parallel_runner::default_thread_count(), n)));
  return parallel_map_n<R>(pool, n, fn);
}

}  // namespace cloudsync
