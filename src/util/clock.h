// Injectable time sources — the single time authority of the library.
//
// Advertisement aging (paper §2.1: "each advertisement encompasses an age to
// distinguish stale advertisements from new ones"), discovery-cache expiry,
// pipe-resolution timeouts, reactor deadlines and the fabric's deliver-at
// scheduling all depend on time. Every component takes a Clock& (and
// schedules deadlines on a util::TimerQueue that itself holds a Clock&), so
// the whole overlay can run on simulated time: a SimClock advanced by a
// driver makes runs deterministic and faster than realtime (src/sim/).
//
// Rules of the time plane (see DESIGN.md "The time plane"):
//   * No src/ code outside this header reads std::chrono::steady_clock /
//     system_clock directly (enforced by tools/lint.py wall-clock rule).
//   * Virtualizable time — ages, expiries, timer deadlines, backoff math —
//     flows through an injected Clock&.
//   * Deadlines for blocking condition-variable waits are real-thread
//     concerns and always use SystemClock::instance() explicitly: a cv
//     cannot be woken by virtual time, so blocking convenience APIs are
//     wall-time by contract and sim scenarios never enter them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace p2p::util {

using Duration = std::chrono::milliseconds;
using TimePoint = std::chrono::steady_clock::time_point;

// Abstract time source. Implementations must be thread-safe.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual TimePoint now() const = 0;

  // Milliseconds since an arbitrary but fixed epoch; convenient for ages.
  [[nodiscard]] std::int64_t now_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               now().time_since_epoch())
        .count();
  }
};

// Real wall-progress time backed by steady_clock.
class SystemClock final : public Clock {
 public:
  [[nodiscard]] TimePoint now() const override {
    return std::chrono::steady_clock::now();
  }

  // A shared instance for the common case.
  static SystemClock& instance();
};

// Manually advanced virtual time: the one manual time source, driving both
// deterministic unit tests and whole-overlay simulations (a TimerQueue in
// kSimulated mode steps a SimClock deadline-by-deadline; src/sim/ owns one
// per scenario). Time only moves when advance()/set() is called.
class SimClock final : public Clock {
 public:
  [[nodiscard]] TimePoint now() const override {
    return TimePoint{std::chrono::nanoseconds{now_ns_.load()}};
  }

  // Moves time forward by d (must be non-negative).
  void advance(Duration d) {
    now_ns_ +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  }

  // Jumps to t; never moves backwards (a no-op when t is in the past, so
  // concurrent advancement stays monotonic).
  void set(TimePoint t) {
    const std::int64_t target = t.time_since_epoch().count();
    std::int64_t cur = now_ns_.load();
    while (cur < target && !now_ns_.compare_exchange_weak(cur, target)) {
    }
  }

 private:
  // Start non-zero so "age 0" != "now".
  std::atomic<std::int64_t> now_ns_{1'000'000};
};

}  // namespace p2p::util
