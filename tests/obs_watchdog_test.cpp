// Tests for the stall watchdog (src/obs/watchdog.h) and the flight
// recorder it snapshots on alarm.
//
// The two scenarios the ISSUE demands are here end-to-end: a delivery
// callback that blocks its executor worker raises exactly one queue-stall
// alarm (with a non-empty flight snapshot), and a sleeping event-loop
// thread raises exactly one loop-stall alarm. Both alarms are
// edge-triggered: a stall that persists across many check periods still
// reports once, and the latch re-arms after recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "events/ski_rental.h"
#include "net/event_loop.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"  // now_us()
#include "obs/watchdog.h"
#include "support/test_net.h"
#include "support/timing.h"
#include "tps/tps.h"
#include "util/thread_annotations.h"

namespace p2p::obs {
namespace {

using events::SkiRental;
using p2p::testing::settle;
using p2p::testing::TestNet;
using p2p::testing::wait_until;

// A gate a test callback can block on until the test opens it.
struct Latch {
  util::Mutex mu{"test-latch"};
  util::CondVar cv;
  bool open GUARDED_BY(mu) = false;

  void release() {
    const util::MutexLock lock(mu);
    open = true;
    cv.notify_all();
  }
  void wait() {
    const util::MutexLock lock(mu);
    while (!open) cv.wait(mu);
  }
};

// Counts alarms and remembers what the last report looked like. The hook
// runs on whatever thread called check, so everything is atomic.
struct AlarmProbe {
  std::atomic<int> count{0};
  std::atomic<bool> flight_nonempty{false};
  std::atomic<bool> kind_matched{false};
  std::string expected_kind;

  Watchdog::AlarmHook hook() {
    return [this](const StallReport& report) {
      ++count;
      if (!report.flight.empty()) flight_nonempty = true;
      if (report.kind == expected_kind) kind_matched = true;
    };
  }
};

// --- flight recorder ---------------------------------------------------------

TEST(FlightTest, RecordedEntriesAppearInSnapshot) {
  constexpr std::uint64_t kMarker = 0xF11E57A3u;
  flight::record(FlightComponent::kTps, FlightKind::kEnqueue, kMarker);
  const std::vector<FlightRecord> snap = flight::snapshot();
  bool found = false;
  for (const FlightRecord& r : snap) {
    if (r.component == FlightComponent::kTps &&
        r.kind == FlightKind::kEnqueue && r.arg == kMarker) {
      found = true;
      EXPECT_GT(r.t_us, 0);
      EXPECT_GT(r.thread, 0u);
    }
  }
  EXPECT_TRUE(found);

  // clear() wipes every ring: the marker is gone from the next snapshot.
  flight::clear();
  for (const FlightRecord& r : flight::snapshot()) {
    EXPECT_FALSE(r.component == FlightComponent::kTps &&
                 r.kind == FlightKind::kEnqueue && r.arg == kMarker);
  }
}

TEST(FlightTest, SnapshotIsTimeOrderedAcrossThreads) {
  flight::clear();
  // Exiting threads recycle (and reset) their rings, so every writer holds
  // its ring until all four have finished recording.
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&done] {
      for (int i = 0; i < 100; ++i) {
        flight::record(FlightComponent::kNet, FlightKind::kLoopWake,
                       static_cast<std::uint64_t>(i));
      }
      ++done;
      while (done.load() < 4) std::this_thread::yield();
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = flight::snapshot();
  EXPECT_GE(snap.size(), 400u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LE(snap[i - 1].t_us, snap[i].t_us);
  }
}

TEST(FlightTest, DisableStopsRecording) {
  flight::set_enabled(false);
  flight::clear();
  flight::record(FlightComponent::kJxta, FlightKind::kConnect, 0xD15AB1Eu);
  for (const FlightRecord& r : flight::snapshot()) {
    EXPECT_NE(r.arg, 0xD15AB1Eu);
  }
  flight::set_enabled(true);
  flight::record(FlightComponent::kJxta, FlightKind::kConnect, 0xD15AB1Eu);
  bool found = false;
  for (const FlightRecord& r : flight::snapshot()) {
    found = found || r.arg == 0xD15AB1Eu;
  }
  EXPECT_TRUE(found);
}

TEST(FlightTest, RingOverwritesOldestBeyondCapacity) {
  flight::clear();
  const auto total = static_cast<std::uint64_t>(flight::kRingSlots) + 100;
  for (std::uint64_t i = 0; i < total; ++i) {
    flight::record(FlightComponent::kDelivery, FlightKind::kDeliverEnd, i);
  }
  std::uint64_t mine = 0;
  std::uint64_t min_arg = total;
  for (const FlightRecord& r : flight::snapshot()) {
    if (r.component == FlightComponent::kDelivery &&
        r.kind == FlightKind::kDeliverEnd) {
      ++mine;
      min_arg = std::min(min_arg, r.arg);
    }
  }
  // Exactly one ring of the newest records survives; the first 100 are
  // overwritten.
  EXPECT_EQ(mine, static_cast<std::uint64_t>(flight::kRingSlots));
  EXPECT_GE(min_arg, 100u);
}

// --- watchdog unit behavior (driven via check_now) ---------------------------

TEST(WatchdogTest, QueueStallAlarmsOncePerStallAndRearms) {
  auto registry = std::make_shared<Registry>();
  WatchdogConfig config;
  config.queue_stall = std::chrono::milliseconds(100);
  Watchdog watchdog(config, registry, util::TimerQueue::shared());
  AlarmProbe probe;
  probe.expected_kind = "queue-stall";
  watchdog.set_alarm(probe.hook());

  std::atomic<std::int64_t> age_us{0};
  const std::uint64_t id =
      watchdog.watch_queue_age("test-queue", [&] { return age_us.load(); });

  watchdog.check_now();
  EXPECT_EQ(probe.count, 0);

  age_us = 200'000;  // 200 ms > the 100 ms threshold
  watchdog.check_now();
  EXPECT_EQ(probe.count, 1);
  EXPECT_TRUE(probe.kind_matched);
  EXPECT_TRUE(probe.flight_nonempty);

  // The stall persists: the latch suppresses repeat alarms.
  watchdog.check_now();
  watchdog.check_now();
  EXPECT_EQ(probe.count, 1);

  // Recovery clears the latch; the next stall alarms again.
  age_us = 0;
  watchdog.check_now();
  age_us = 300'000;
  watchdog.check_now();
  EXPECT_EQ(probe.count, 2);

  // The histogram saw every sample, alarmed or not.
  const Snapshot snap = registry->snapshot();
  const MetricValue* hist = snap.find("obs.delivery_queue_age_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->histogram.count, 6u);
  EXPECT_EQ(snap.counter("obs.watchdog_alarms"), 2u);

  watchdog.unwatch(id);
  age_us = 500'000;
  watchdog.check_now();
  EXPECT_EQ(probe.count, 2);  // unwatched probes never alarm
}

TEST(WatchdogTest, SleepingLoopThreadPostAlarmsExactlyOnce) {
  auto registry = std::make_shared<Registry>();
  WatchdogConfig config;
  config.loop_stall = std::chrono::milliseconds(50);
  Watchdog watchdog(config, registry, util::TimerQueue::shared());
  AlarmProbe probe;
  probe.expected_kind = "loop-stall";
  watchdog.set_alarm(probe.hook());

  net::EventLoop loop("wd-test-loop");
  watchdog.watch_heartbeat("wd-test-loop",
                           [&loop](std::function<void()> pong) {
                             return loop.post(std::move(pong));
                           });

  // Wedge the loop thread: the posted task blocks until released, so the
  // watchdog's pong sits behind it in the queue.
  Latch latch;
  ASSERT_TRUE(loop.post([&latch] { latch.wait(); }));

  watchdog.check_now();  // sends the beat; pong cannot land
  EXPECT_EQ(probe.count, 0);
  settle(std::chrono::milliseconds(120));  // let the beat age past 50 ms
  watchdog.check_now();
  EXPECT_EQ(probe.count, 1);
  EXPECT_TRUE(probe.kind_matched);
  EXPECT_TRUE(probe.flight_nonempty);

  // Still stalled across further checks: exactly once.
  watchdog.check_now();
  watchdog.check_now();
  EXPECT_EQ(probe.count, 1);

  // Unblock; the pong lands (visible as an obs.loop_lag_us sample).
  latch.release();
  ASSERT_TRUE(wait_until([&] {
    const Snapshot snap = registry->snapshot();  // keep the map alive
    const MetricValue* lag = snap.find("obs.loop_lag_us");
    return lag != nullptr && lag->histogram.count > 0;
  }));
  watchdog.check_now();  // recovered: clears the latch, sends a new beat
  EXPECT_EQ(probe.count, 1);
  loop.stop();
}

TEST(WatchdogTest, RejectedBeatIsSkippedNotAlarmed) {
  auto registry = std::make_shared<Registry>();
  WatchdogConfig config;
  config.loop_stall = std::chrono::milliseconds(0);
  Watchdog watchdog(config, registry, util::TimerQueue::shared());
  AlarmProbe probe;
  watchdog.set_alarm(probe.hook());
  // A target that refuses the beat (shutting down) must not look stalled.
  watchdog.watch_heartbeat("gone",
                           [](std::function<void()>) { return false; });
  watchdog.check_now();
  settle(std::chrono::milliseconds(20));
  watchdog.check_now();
  watchdog.check_now();
  EXPECT_EQ(probe.count, 0);
}

TEST(WatchdogTest, TimerLagAlarmsOnLateCheck) {
  auto registry = std::make_shared<Registry>();
  WatchdogConfig config;
  config.timer_lag = std::chrono::milliseconds(100);
  Watchdog watchdog(config, registry, util::TimerQueue::shared());
  AlarmProbe probe;
  probe.expected_kind = "timer-lag";
  watchdog.set_alarm(probe.hook());

  // Pretend the check was scheduled half a second ago.
  watchdog.check_now(now_us() - 500'000);
  EXPECT_EQ(probe.count, 1);
  EXPECT_TRUE(probe.kind_matched);
  // Still late: latched.
  watchdog.check_now(now_us() - 500'000);
  EXPECT_EQ(probe.count, 1);
  // On time again: recovery, then a fresh lag alarms anew.
  watchdog.check_now();
  watchdog.check_now(now_us() - 500'000);
  EXPECT_EQ(probe.count, 2);
}

// --- end-to-end: blocked delivery callback under a real Peer ----------------

// A subscriber callback that never returns starves the delivery executor;
// the peer's own watchdog (periodic, on the shared timer queue) notices the
// aging queue and raises exactly one alarm carrying a flight snapshot.
TEST(WatchdogIntegrationTest, BlockedDeliveryCallbackRaisesOneAlarm) {
  TestNet net;
  jxta::PeerConfig alice_config;
  alice_config.name = "alice";
  alice_config.heartbeat = std::chrono::milliseconds(100);
  alice_config.watchdog = true;
  alice_config.watchdog_config.period = std::chrono::milliseconds(50);
  alice_config.watchdog_config.queue_stall = std::chrono::milliseconds(200);
  // Generous loop/timer thresholds: this test asserts zero false positives
  // from the other sources while the queue stalls.
  alice_config.watchdog_config.loop_stall = std::chrono::seconds(30);
  alice_config.watchdog_config.timer_lag = std::chrono::seconds(30);
  jxta::Peer& alice = net.add_peer(std::move(alice_config));
  jxta::Peer& bob = net.add_peer("bob");

  ASSERT_NE(alice.watchdog(), nullptr);
  EXPECT_EQ(bob.watchdog(), nullptr);  // off by default
  AlarmProbe probe;
  probe.expected_kind = "queue-stall";
  alice.watchdog()->set_alarm(probe.hook());

  tps::TpsConfig config;
  config.adv_search_timeout = std::chrono::milliseconds(300);
  config.finder_period = std::chrono::milliseconds(150);
  config.delivery_workers = 1;
  tps::TpsEngine<SkiRental> engine_a(alice, config);
  auto sub = engine_a.new_interface();
  Latch latch;
  std::atomic<int> received{0};
  sub.subscribe(tps::make_callback<SkiRental>([&](const SkiRental&) {
                  // The first delivery wedges the lone worker; the rest
                  // queue up behind it and age.
                  if (received.fetch_add(1) == 0) latch.wait();
                }),
                tps::ignore_exceptions<SkiRental>());
  tps::TpsEngine<SkiRental> engine_b(bob, config);
  auto pub = engine_b.new_interface();
  pub.publish(SkiRental("Shop", 14.0f, "Brand", 99.0f));
  ASSERT_TRUE(wait_until([&] { return received > 0; }));
  // Two more deliveries pile up behind the blocked worker.
  pub.publish(SkiRental("Shop", 15.0f, "Brand", 99.0f));
  pub.publish(SkiRental("Shop", 16.0f, "Brand", 99.0f));

  ASSERT_TRUE(wait_until([&] { return probe.count > 0; }));
  EXPECT_TRUE(probe.kind_matched);
  EXPECT_TRUE(probe.flight_nonempty);
  // The stall persists for many more watchdog periods: still one alarm.
  settle(std::chrono::milliseconds(400));
  EXPECT_EQ(probe.count, 1);
  EXPECT_EQ(alice.watchdog()->alarms(), 1u);
  EXPECT_EQ(
      alice.metrics().snapshot().counter("obs.watchdog_alarms"), 1u);

  latch.release();
  ASSERT_TRUE(wait_until([&] { return received >= 3; }));
}

}  // namespace
}  // namespace p2p::obs
