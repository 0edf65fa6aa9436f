// Watchdog: detects when the async machinery stops making progress.
//
// After the reactor/executor/batching refactors the hot path is a chain of
// bounded queues and callback loops; when one of them wedges (a subscriber
// callback that never returns, a loop thread stuck in a blocking call, a
// timer heap starved by a long callback) the symptom is silence, not an
// error. The watchdog turns that silence into a signal. It runs a periodic
// check on the process-wide util::TimerQueue and watches three things:
//
//   * event-loop stalls   — a heartbeat closure is posted to each watched
//     loop; the time until it runs is the loop's scheduling lag
//     (obs.loop_lag_us). An outstanding heartbeat older than `loop_stall`
//     is a stall.
//   * queue starvation    — an age probe (e.g. the delivery executor's
//     oldest-queued-task age) sampled each period (obs.delivery_queue_age_us).
//     Age above `queue_stall` is starvation.
//   * timer-heap lag      — the check's own scheduling lag on the shared
//     timer queue (obs.timer_lag_us): a late check means every deadline in
//     the process is late.
//
// Alarms are edge-triggered, once per stall: the first period that crosses
// a threshold raises the alarm hook with a StallReport carrying a flight-
// recorder snapshot; the latch clears when the source recovers, so a single
// long stall produces exactly one report, not one per period.
//
// The watchdog knows nothing about net or tps — probes are plain closures
// installed by the obs-aware layers (TcpTransport registers its loops,
// TpsSession its delivery executor), keeping obs beneath both.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/thread_annotations.h"
#include "util/timer_queue.h"

namespace p2p::obs {

struct WatchdogConfig {
  // Check cadence on the shared timer queue.
  util::Duration period{200};
  // Heartbeat outstanding longer than this => loop stall.
  util::Duration loop_stall{2000};
  // Queue-age probe above this => starvation.
  util::Duration queue_stall{2000};
  // Check running this far past its own deadline => timer-heap lag.
  util::Duration timer_lag{2000};
};

struct StallReport {
  std::string kind;    // "loop-stall" | "queue-stall" | "timer-lag"
  std::string source;  // probe name ("evloop-0", "tps-delivery:T", ...)
  std::int64_t lag_us = 0;
  // Flight-recorder snapshot taken at detection: the recent history of
  // every thread, for the post-mortem.
  std::vector<FlightRecord> flight;
};

class Watchdog {
 public:
  // Transports a pong closure onto the watched thread (EventLoop::post is
  // the canonical beat). Returns false when the target no longer accepts
  // work — the probe is then skipped, not alarmed.
  using Beat = std::function<bool(std::function<void()> pong)>;
  // Age of the oldest queued-but-not-executing item in µs; 0 when empty.
  using AgeProbe = std::function<std::int64_t()>;
  using AlarmHook = std::function<void(const StallReport&)>;

  // Registers obs.loop_lag_us / obs.delivery_queue_age_us / obs.timer_lag_us
  // histograms and obs.watchdog_alarms in `registry` (kept alive here).
  // `timers` carries the periodic check; it must outlive the watchdog.
  Watchdog(WatchdogConfig config, std::shared_ptr<Registry> registry,
           util::TimerQueue& timers);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Probe registration; the returned id unregisters via unwatch(). After
  // unwatch() returns the probe closure is guaranteed not running and never
  // will be (quiescence) — callers may then destroy what it captures.
  std::uint64_t watch_heartbeat(std::string name, Beat beat) EXCLUDES(mu_);
  std::uint64_t watch_queue_age(std::string name, AgeProbe age_us)
      EXCLUDES(mu_);
  void unwatch(std::uint64_t id) EXCLUDES(mu_);

  // Replaces the alarm hook (default: log the report). Invoked off the
  // watchdog lock, wherever `timers` fires the check.
  void set_alarm(AlarmHook hook) EXCLUDES(mu_);

  // Starts/stops the periodic check. start() is idempotent; stop() blocks
  // out an in-flight check (safe to destroy probed objects afterwards).
  void start() EXCLUDES(mu_);
  void stop() EXCLUDES(mu_);

  // Total alarms raised since construction.
  [[nodiscard]] std::uint64_t alarms() const;

  // Runs one check synchronously (tests drive this instead of waiting for
  // the timer). `expected_us`: when this check was meant to run, for the
  // timer-lag computation; <= 0 means "now" (no lag).
  void check_now(std::int64_t expected_us = 0) EXCLUDES(mu_);

 private:
  // Heartbeat bookkeeping shared with the in-flight pong closure, which may
  // outlive the watchdog (it sits in a loop's task queue): a leaf lock.
  struct BeatState {
    util::Mutex mu{"obs-watchdog-beat"};
    bool outstanding GUARDED_BY(mu) = false;
    std::int64_t sent_us GUARDED_BY(mu) = 0;
    bool alarmed GUARDED_BY(mu) = false;
  };
  struct HeartbeatProbe {
    std::string name;
    Beat beat;
    std::shared_ptr<BeatState> state;
  };
  struct QueueProbe {
    std::string name;
    AgeProbe age_us;
    bool alarmed = false;
  };

  void check(std::int64_t expected_us) EXCLUDES(mu_);
  void arm_next() REQUIRES(mu_);

  const WatchdogConfig config_;
  util::TimerQueue& timers_;
  const std::shared_ptr<Registry> registry_;
  Histogram loop_lag_us_;
  Histogram queue_age_us_;
  Histogram timer_lag_us_;
  Counter m_alarms_;
  std::atomic<std::uint64_t> alarms_{0};

  mutable util::Mutex mu_{"obs-watchdog"};
  bool running_ GUARDED_BY(mu_) = false;
  bool timer_alarmed_ GUARDED_BY(mu_) = false;
  std::uint64_t timer_id_ GUARDED_BY(mu_) = 0;
  std::uint64_t next_probe_id_ GUARDED_BY(mu_) = 1;
  std::map<std::uint64_t, HeartbeatProbe> heartbeats_ GUARDED_BY(mu_);
  std::map<std::uint64_t, QueueProbe> queues_ GUARDED_BY(mu_);
  AlarmHook alarm_ GUARDED_BY(mu_);
};

}  // namespace p2p::obs
