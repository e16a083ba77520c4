// Discrete-event virtual clock.
//
// Single-threaded by design: experiments are deterministic replays, so the
// event loop is a plain priority queue with stable FIFO ordering for events
// scheduled at the same instant.
//
// Threading contract: one sim_clock — together with the cloud, filesystems,
// and clients attached to it — must only ever be driven from a single
// thread. Scale-out happens one level up: util/parallel_runner fans whole
// independent experiment environments (each owning its own clock) across
// worker threads. Simulation state never crosses threads; pure kernels over
// immutable content_ref ranges may fan out inside one experiment (see
// docs/PERFORMANCE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "util/sim_time.hpp"

namespace cloudsync {

using event_id = std::uint64_t;

class sim_clock {
 public:
  sim_time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (clamped to now()).
  /// Returns an id usable with cancel().
  event_id schedule_at(sim_time at, std::function<void()> fn);

  /// Schedule `fn` to run `delay` from now.
  event_id schedule_after(sim_time delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a pending event. Cancelling an already-fired or unknown id is a
  /// no-op; returns whether something was cancelled.
  bool cancel(event_id id);

  /// Run the next pending event, advancing the clock. False when idle.
  bool run_one();

  /// Run events until the queue is empty or the next event is after `t`;
  /// the clock ends at exactly `t` if it was reached.
  void run_until(sim_time t);

  /// Drain every pending event (bounded by `max_events` as a runaway guard).
  void run_all(std::size_t max_events = 10'000'000);

  /// Move the clock forward with no events in between (idle time).
  void advance_to(sim_time t);

  std::size_t pending() const { return live_.size(); }

 private:
  struct entry {
    sim_time at;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    event_id id;
    std::function<void()> fn;
  };
  struct later {
    bool operator()(const entry& a, const entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  sim_time now_{};
  std::uint64_t next_seq_ = 0;
  event_id next_id_ = 1;
  std::priority_queue<entry, std::vector<entry>, later> queue_;
  std::unordered_set<event_id> live_;  ///< scheduled and not yet fired/cancelled
};

}  // namespace cloudsync
