#include "util/parallel_runner.hpp"

#include <cstdlib>
#include <string>

namespace cloudsync {

unsigned parallel_runner::default_thread_count() {
  if (const char* env = std::getenv("CLOUDSYNC_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

parallel_runner::parallel_runner(unsigned threads)
    : threads_(threads == 0 ? default_thread_count() : threads) {
  // The calling thread participates in every batch, so spawn one fewer
  // worker than the requested parallelism.
  for (unsigned i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

parallel_runner::~parallel_runner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool parallel_runner::claim_and_run() {
  // Called with mu_ held; returns with mu_ held.
  if (job_ == nullptr || next_index_ >= job_size_) return false;
  const std::size_t i = next_index_++;
  const auto* job = job_;
  mu_.unlock();
  std::exception_ptr err;
  try {
    (*job)(i);
  } catch (...) {
    err = std::current_exception();
  }
  mu_.lock();
  if (err && !first_error_) first_error_ = err;
  if (++completed_ == job_size_) done_cv_.notify_all();
  return true;
}

void parallel_runner::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return shutdown_ || (job_ != nullptr && next_index_ < job_size_);
    });
    if (shutdown_) return;
    while (claim_and_run()) {
    }
  }
}

void parallel_runner::run_indexed(std::size_t n,
                                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads_ <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::unique_lock<std::mutex> lock(mu_);
  job_ = &fn;
  job_size_ = n;
  next_index_ = 0;
  completed_ = 0;
  first_error_ = nullptr;
  work_cv_.notify_all();
  while (claim_and_run()) {
  }
  done_cv_.wait(lock, [this] { return completed_ == job_size_; });
  job_ = nullptr;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace cloudsync
