// Tests for the receive-path delivery executor (tps/dispatch.h): the
// striped worker pool in isolation, then its integration into TpsSession —
// pooled delivery, per-subscriber FIFO, cancellation quiescence, bounded
// queue accounting and the inline default.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "events/ski_rental.h"
#include "support/test_net.h"
#include "support/timing.h"
#include "tps/dispatch.h"
#include "tps/tps.h"

namespace p2p::tps {
namespace {

using events::SkiRental;
using p2p::testing::settle;
using p2p::testing::TestNet;
using p2p::testing::wait_until;

std::unique_ptr<DeliveryExecutor> make_executor(std::size_t workers,
                                                std::size_t capacity) {
  // Default-constructed obs handles write to scratch cells.
  return std::make_unique<DeliveryExecutor>(workers, capacity, obs::Counter(),
                                            obs::Gauge(), obs::Gauge());
}

TpsConfig fast_config() {
  TpsConfig config;
  config.adv_search_timeout = std::chrono::milliseconds(300);
  config.finder_period = std::chrono::milliseconds(150);
  return config;
}

TpsConfig pooled_config(std::size_t workers = 2) {
  TpsConfig config = fast_config();
  config.delivery_workers = workers;
  config.delivery_queue_capacity = 1024;
  return config;
}

// --- executor unit tests -----------------------------------------------------

TEST(DeliveryExecutorTest, SameKeyTasksRunInSubmissionOrder) {
  auto ex = make_executor(4, 4096);
  constexpr int kKeys = 4;
  constexpr int kPerKey = 250;
  std::mutex mu;
  std::vector<std::vector<int>> seen(kKeys);
  for (int i = 0; i < kPerKey; ++i) {
    for (int key = 0; key < kKeys; ++key) {
      ASSERT_TRUE(ex->submit(static_cast<std::uint64_t>(key), [&, key, i] {
        const std::lock_guard lock(mu);
        seen[static_cast<std::size_t>(key)].push_back(i);
      }));
    }
  }
  ex->flush();
  for (int key = 0; key < kKeys; ++key) {
    const auto& order = seen[static_cast<std::size_t>(key)];
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kPerKey));
    for (int i = 0; i < kPerKey; ++i) EXPECT_EQ(order[std::size_t(i)], i);
  }
  EXPECT_EQ(ex->executed(), static_cast<std::uint64_t>(kKeys * kPerKey));
  EXPECT_EQ(ex->dropped(), 0u);
}

TEST(DeliveryExecutorTest, DistinctKeysRunConcurrently) {
  auto ex = make_executor(2, 64);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> other_ran{false};
  ASSERT_TRUE(ex->submit(0, [&] {
    entered = true;
    wait_until([&] { return release.load(); });
  }));
  ASSERT_TRUE(wait_until([&] { return entered.load(); }));
  // Key 1 lands on the other worker and must run while key 0 is blocked.
  ASSERT_TRUE(ex->submit(1, [&] { other_ran = true; }));
  EXPECT_TRUE(wait_until([&] { return other_ran.load(); }));
  release = true;
  ex->flush();
}

TEST(DeliveryExecutorTest, FullQueueDropsAndCounts) {
  auto ex = make_executor(1, 2);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  ASSERT_TRUE(ex->submit(0, [&] {
    entered = true;
    wait_until([&] { return release.load(); });
  }));
  // Wait for the blocker to be *running* (off the queue) so the two
  // accepted tasks below account for the whole capacity.
  ASSERT_TRUE(wait_until([&] { return entered.load(); }));
  EXPECT_TRUE(ex->submit(0, [&] { ++ran; }));
  EXPECT_TRUE(ex->submit(0, [&] { ++ran; }));
  EXPECT_FALSE(ex->submit(0, [&] { ++ran; }));  // over capacity: dropped
  EXPECT_EQ(ex->dropped(), 1u);
  EXPECT_EQ(ex->queue_depth(), 2u);
  EXPECT_EQ(ex->queue_hwm(), 2u);
  release = true;
  ex->flush();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(ex->queue_depth(), 0u);
  EXPECT_EQ(ex->executed(), 3u);
}

TEST(DeliveryExecutorTest, FlushWaitsForSubmittedTasks) {
  auto ex = make_executor(3, 4096);
  std::atomic<int> ran{0};
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        ex->submit(static_cast<std::uint64_t>(i), [&] { ++ran; }));
  }
  ex->flush();
  EXPECT_EQ(ran.load(), 300);
}

TEST(DeliveryExecutorTest, ShutdownDrainsQueueThenRejects) {
  auto ex = make_executor(1, 1024);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ex->submit(0, [&] { ++ran; }));
  }
  ex->shutdown();
  EXPECT_EQ(ran.load(), 50);  // queued work ran before the workers exited
  EXPECT_FALSE(ex->submit(0, [&] { ++ran; }));
  EXPECT_EQ(ex->dropped(), 1u);
  ex->shutdown();  // idempotent
  EXPECT_EQ(ran.load(), 50);
}

// --- session integration -----------------------------------------------------

TEST(TpsDispatchTest, PooledDeliveryRunsEveryCallbackOnce) {
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");
  jxta::Peer& bob = net.add_peer("bob");
  TpsEngine<SkiRental> sub_engine(alice, pooled_config());
  auto sub_iface = sub_engine.new_interface();
  std::atomic<int> count{0};
  auto sub = sub_iface.subscribe([&](const SkiRental&) { ++count; });
  TpsEngine<SkiRental> pub_engine(bob, fast_config());
  auto pub = pub_engine.new_interface();
  for (int i = 0; i < 10; ++i) {
    pub.publish(SkiRental("S", static_cast<float>(i), "B", 1));
  }
  EXPECT_TRUE(wait_until([&] { return count.load() == 10; }));
  sub_iface.flush();
  EXPECT_EQ(count.load(), 10);
  const TpsStats stats = sub_iface.stats();
  EXPECT_EQ(stats.deliveries_pooled, 10u);
  EXPECT_EQ(stats.deliveries_inline, 0u);
  EXPECT_EQ(stats.delivery_drops, 0u);
  EXPECT_EQ(sub_iface.delivery_queue_depth(), 0u);
}

TEST(TpsDispatchTest, SubscribersSeeTheSameOrderUnderMultiWorkerPool) {
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");
  jxta::Peer& bob = net.add_peer("bob");
  TpsEngine<SkiRental> sub_engine(alice, pooled_config(3));
  auto sub_iface = sub_engine.new_interface();
  std::mutex mu;
  std::vector<int> seq_a;
  std::vector<int> seq_b;
  auto sub_a = sub_iface.subscribe([&](const SkiRental& e) {
    const std::lock_guard lock(mu);
    seq_a.push_back(static_cast<int>(e.price()));
  });
  auto sub_b = sub_iface.subscribe([&](const SkiRental& e) {
    const std::lock_guard lock(mu);
    seq_b.push_back(static_cast<int>(e.price()));
  });
  TpsEngine<SkiRental> pub_engine(bob, fast_config());
  auto pub = pub_engine.new_interface();
  constexpr int kEvents = 40;
  for (int i = 0; i < kEvents; ++i) {
    pub.publish(SkiRental("S", static_cast<float>(i), "B", 1));
  }
  EXPECT_TRUE(wait_until([&] {
    const std::lock_guard lock(mu);
    return seq_a.size() == kEvents && seq_b.size() == kEvents;
  }));
  // Dispatch striped across 3 workers must preserve each subscriber's
  // submission order, so the two subscribers observe identical sequences.
  const std::lock_guard lock(mu);
  EXPECT_EQ(seq_a, seq_b);
}

TEST(TpsDispatchTest, CancelWaitsOutRunningCallbackAndStopsDelivery) {
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");
  jxta::Peer& bob = net.add_peer("bob");
  TpsEngine<SkiRental> sub_engine(alice, pooled_config());
  auto sub_iface = sub_engine.new_interface();
  std::atomic<int> count{0};
  std::atomic<int> sentinel{0};
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  auto sub = sub_iface.subscribe([&](const SkiRental&) {
    ++count;
    entered = true;
    wait_until([&] { return release.load(); });
  });
  auto keep = sub_iface.subscribe([&](const SkiRental&) { ++sentinel; });
  TpsEngine<SkiRental> pub_engine(bob, fast_config());
  auto pub = pub_engine.new_interface();
  pub.publish(SkiRental("S", 1, "B", 1));
  ASSERT_TRUE(wait_until([&] { return entered.load(); }));
  // More events queue up behind the blocked callback on its worker.
  for (int i = 0; i < 4; ++i) pub.publish(SkiRental("S", 2, "B", 1));
  std::atomic<bool> cancelled{false};
  std::thread canceller([&] {
    sub.cancel();  // must block: the callback is mid-flight
    cancelled = true;
  });
  // No completion signal exists for "cancel() is now parked in its
  // quiescence wait"; give it time to get there.
  settle(std::chrono::milliseconds(100));
  EXPECT_FALSE(cancelled.load());
  release = true;
  canceller.join();
  // After cancel() returns nothing more may run, even though events were
  // queued. The sentinel proves the events themselves kept flowing.
  EXPECT_TRUE(wait_until([&] { return sentinel.load() == 5; }));
  sub_iface.flush();
  EXPECT_EQ(count.load(), 1);
}

TEST(TpsDispatchTest, CallbackMayCancelItsOwnSubscription) {
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");
  jxta::Peer& bob = net.add_peer("bob");
  TpsEngine<SkiRental> sub_engine(alice, pooled_config());
  auto sub_iface = sub_engine.new_interface();
  std::atomic<int> count{0};
  std::atomic<int> sentinel{0};
  std::optional<Subscription> sub;
  sub.emplace(sub_iface.subscribe([&](const SkiRental&) {
    ++count;
    sub->cancel();  // self-cancel must not deadlock on quiescence
  }));
  auto keep = sub_iface.subscribe([&](const SkiRental&) { ++sentinel; });
  TpsEngine<SkiRental> pub_engine(bob, fast_config());
  auto pub = pub_engine.new_interface();
  pub.publish(SkiRental("S", 1, "B", 1));
  EXPECT_TRUE(wait_until([&] { return count.load() == 1; }));
  pub.publish(SkiRental("S", 2, "B", 1));
  EXPECT_TRUE(wait_until([&] { return sentinel.load() == 2; }));
  sub_iface.flush();
  EXPECT_EQ(count.load(), 1);
}

TEST(TpsDispatchTest, SlowSubscriberDoesNotStallFastOne) {
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");
  jxta::Peer& bob = net.add_peer("bob");
  TpsEngine<SkiRental> sub_engine(alice, pooled_config(2));
  auto sub_iface = sub_engine.new_interface();
  std::atomic<int> slow_count{0};
  std::atomic<int> fast_count{0};
  std::atomic<bool> release{false};
  auto slow = sub_iface.subscribe([&](const SkiRental&) {
    wait_until([&] { return release.load(); });
    ++slow_count;
  });
  auto fast = sub_iface.subscribe([&](const SkiRental&) { ++fast_count; });
  TpsEngine<SkiRental> pub_engine(bob, fast_config());
  auto pub = pub_engine.new_interface();
  constexpr int kEvents = 5;
  for (int i = 0; i < kEvents; ++i) {
    pub.publish(SkiRental("S", static_cast<float>(i), "B", 1));
  }
  // The fast subscriber drains all events while the slow one is still
  // stuck in its first callback — the stall does not cross workers.
  EXPECT_TRUE(wait_until([&] { return fast_count.load() == kEvents; }));
  EXPECT_LT(slow_count.load(), kEvents);
  release = true;
  EXPECT_TRUE(wait_until([&] { return slow_count.load() == kEvents; }));
}

TEST(TpsDispatchTest, InlineDefaultCountsSynchronousDeliveries) {
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");
  jxta::Peer& bob = net.add_peer("bob");
  TpsEngine<SkiRental> sub_engine(alice, fast_config());
  auto sub_iface = sub_engine.new_interface();
  std::atomic<int> count{0};
  auto sub = sub_iface.subscribe([&](const SkiRental&) { ++count; });
  TpsEngine<SkiRental> pub_engine(bob, fast_config());
  auto pub = pub_engine.new_interface();
  for (int i = 0; i < 3; ++i) {
    pub.publish(SkiRental("S", static_cast<float>(i), "B", 1));
  }
  EXPECT_TRUE(wait_until([&] { return count.load() == 3; }));
  const TpsStats stats = sub_iface.stats();
  EXPECT_EQ(stats.deliveries_inline, 3u);
  EXPECT_EQ(stats.deliveries_pooled, 0u);
  EXPECT_EQ(stats.delivery_drops, 0u);
  EXPECT_EQ(sub_iface.delivery_queue_depth(), 0u);
}

TEST(TpsDispatchTest, BuilderValidatesPoolKnobs) {
  EXPECT_THROW((void)TpsConfig::Builder().delivery_pool(65).build(),
               PsException);
  EXPECT_THROW((void)TpsConfig::Builder().delivery_pool(2, 0).build(),
               PsException);
  const TpsConfig pooled = TpsConfig::Builder().delivery_pool(4, 512).build();
  EXPECT_EQ(pooled.delivery_workers, 4u);
  EXPECT_EQ(pooled.delivery_queue_capacity, 512u);
  const TpsConfig off =
      TpsConfig::Builder().delivery_pool(4).no_delivery_pool().build();
  EXPECT_EQ(off.delivery_workers, 0u);
}

}  // namespace
}  // namespace p2p::tps
