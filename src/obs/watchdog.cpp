#include "obs/watchdog.h"

#include <utility>

#include "obs/trace.h"  // now_us()
#include "util/logging.h"
#include "util/timer_queue.h"

namespace p2p::obs {

namespace {

std::int64_t to_us(util::Duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

}  // namespace

Watchdog::Watchdog(WatchdogConfig config, std::shared_ptr<Registry> registry,
                   util::TimerQueue& timers)
    : config_(config),
      timers_(timers),
      registry_(std::move(registry)),
      loop_lag_us_(registry_->histogram("obs.loop_lag_us")),
      queue_age_us_(registry_->histogram("obs.delivery_queue_age_us")),
      timer_lag_us_(registry_->histogram("obs.timer_lag_us")),
      m_alarms_(registry_->counter("obs.watchdog_alarms")) {}

Watchdog::~Watchdog() { stop(); }

std::uint64_t Watchdog::watch_heartbeat(std::string name, Beat beat) {
  const util::MutexLock lock(mu_);
  const std::uint64_t id = next_probe_id_++;
  heartbeats_.emplace(id, HeartbeatProbe{std::move(name), std::move(beat),
                                         std::make_shared<BeatState>()});
  return id;
}

std::uint64_t Watchdog::watch_queue_age(std::string name, AgeProbe age_us) {
  const util::MutexLock lock(mu_);
  const std::uint64_t id = next_probe_id_++;
  queues_.emplace(id, QueueProbe{std::move(name), std::move(age_us), false});
  return id;
}

void Watchdog::unwatch(std::uint64_t id) {
  // Probes only run under mu_ (see check()), so erasing under it is the
  // quiescence guarantee the header promises.
  const util::MutexLock lock(mu_);
  heartbeats_.erase(id);
  queues_.erase(id);
}

void Watchdog::set_alarm(AlarmHook hook) {
  const util::MutexLock lock(mu_);
  alarm_ = std::move(hook);
}

void Watchdog::start() {
  const util::MutexLock lock(mu_);
  if (running_) return;
  running_ = true;
  // Stamp every shared-queue fire into the flight recorder with its lag.
  // Stateless and idempotent: several watchdogs may install it; last wins.
  timers_.set_fire_observer([](std::int64_t lag_us) {
    flight::record(FlightComponent::kTimer, FlightKind::kTimerFire,
                   lag_us > 0 ? static_cast<std::uint64_t>(lag_us) : 0);
  });
  arm_next();
}

void Watchdog::arm_next() {
  const std::int64_t expected = now_us() + to_us(config_.period);
  timer_id_ = timers_.schedule_after(
      config_.period, [this, expected] { check(expected); });
}

void Watchdog::stop() {
  std::uint64_t id = 0;
  {
    const util::MutexLock lock(mu_);
    if (!running_) return;
    running_ = false;
    id = timer_id_;
  }
  // cancel() blocks out a firing check. The check may have re-armed before
  // seeing running_ == false, so sweep the (single) successor too.
  timers_.cancel(id);
  {
    const util::MutexLock lock(mu_);
    id = timer_id_;
  }
  timers_.cancel(id);
}

std::uint64_t Watchdog::alarms() const {
  return alarms_.load(std::memory_order_relaxed);
}

void Watchdog::check_now(std::int64_t expected_us) {
  check(expected_us > 0 ? expected_us : now_us());
}

void Watchdog::check(std::int64_t expected_us) {
  std::vector<StallReport> reports;
  AlarmHook hook;
  {
    const util::MutexLock lock(mu_);
    const std::int64_t now = now_us();

    // Timer-heap lag: our own scheduling lag on the shared queue.
    const std::int64_t lag = now - expected_us;
    timer_lag_us_.record(static_cast<double>(lag > 0 ? lag : 0));
    if (lag > to_us(config_.timer_lag)) {
      if (!timer_alarmed_) {
        timer_alarmed_ = true;
        reports.push_back(StallReport{"timer-lag", "shared-timer", lag, {}});
      }
    } else {
      timer_alarmed_ = false;
    }

    for (auto& [id, hb] : heartbeats_) {
      const std::shared_ptr<BeatState>& state = hb.state;
      bool send = false;
      {
        const util::MutexLock beat_lock(state->mu);
        if (!state->outstanding) {
          // Previous beat landed (or first check): the source is healthy.
          state->alarmed = false;
          state->outstanding = true;
          state->sent_us = now;
          send = true;
        } else {
          const std::int64_t hb_lag = now - state->sent_us;
          if (hb_lag > to_us(config_.loop_stall) && !state->alarmed) {
            state->alarmed = true;
            reports.push_back(
                StallReport{"loop-stall", hb.name, hb_lag, {}});
          }
        }
      }
      if (send) {
        // The pong captures the shared state, a value handle, and the
        // registry owning the handle's cell, so it stays safe in a loop's
        // queue after this watchdog dies.
        const bool accepted = hb.beat(
            [state, lag_hist = loop_lag_us_, reg = registry_] {
              (void)reg;
              const std::int64_t landed = now_us();
              const util::MutexLock beat_lock(state->mu);
              state->outstanding = false;
              lag_hist.record(static_cast<double>(landed - state->sent_us));
            });
        if (!accepted) {
          // Target is shutting down, not stalled: withdraw the beat.
          const util::MutexLock beat_lock(state->mu);
          state->outstanding = false;
        }
      }
    }

    for (auto& [id, qp] : queues_) {
      const std::int64_t age = qp.age_us ? qp.age_us() : 0;
      queue_age_us_.record(static_cast<double>(age > 0 ? age : 0));
      if (age > to_us(config_.queue_stall)) {
        if (!qp.alarmed) {
          qp.alarmed = true;
          reports.push_back(StallReport{"queue-stall", qp.name, age, {}});
        }
      } else {
        qp.alarmed = false;
      }
    }

    hook = alarm_;
    if (running_) arm_next();
  }

  for (StallReport& report : reports) {
    alarms_.fetch_add(1, std::memory_order_relaxed);
    m_alarms_.inc();
    flight::record(FlightComponent::kWatchdog, FlightKind::kStall,
                   static_cast<std::uint64_t>(report.lag_us));
    report.flight = flight::snapshot();
    if (hook) {
      hook(report);
    } else {
      P2P_LOG(kWarn, "obs")
          << "watchdog: " << report.kind << " on " << report.source
          << " (lag " << report.lag_us << " us, "
          << report.flight.size() << " flight records)";
    }
  }
}

}  // namespace p2p::obs
