// util::TimerQueue: ordering, cancellation (incl. quiescence), both driving
// modes, and behaviour under schedule/cancel churn.

#include "util/timer_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "support/test_net.h"
#include "util/thread_annotations.h"

namespace p2p::util {
namespace {

using testing::wait_until;
using std::chrono::milliseconds;

TEST(TimerQueueTest, FiresInDeadlineOrder) {
  TimerQueue q("tq-test");
  Mutex mu{"tq-test-order"};
  std::vector<int> order;
  const auto now = std::chrono::steady_clock::now();
  // Scheduled out of order on purpose.
  q.schedule_at(now + milliseconds(60), [&] {
    const MutexLock lock(mu);
    order.push_back(3);
  });
  q.schedule_at(now + milliseconds(20), [&] {
    const MutexLock lock(mu);
    order.push_back(1);
  });
  q.schedule_at(now + milliseconds(40), [&] {
    const MutexLock lock(mu);
    order.push_back(2);
  });
  ASSERT_TRUE(wait_until([&] { return q.fired() == 3; }));
  const MutexLock lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerQueueTest, EqualDeadlinesFireInScheduleOrder) {
  // The fabric's per-instant FIFO delivery guarantee rests on this.
  TimerQueue q("tq-test");
  Mutex mu{"tq-test-order"};
  std::vector<int> order;
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(30);
  for (int i = 0; i < 16; ++i) {
    q.schedule_at(deadline, [&, i] {
      const MutexLock lock(mu);
      order.push_back(i);
    });
  }
  ASSERT_TRUE(wait_until([&] { return q.fired() == 16; }));
  const MutexLock lock(mu);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(TimerQueueTest, CancelPendingTimerNeverFires) {
  TimerQueue q("tq-test");
  std::atomic<bool> ran{false};
  const TimerId id =
      q.schedule_after(milliseconds(50), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  // A sibling timer well past the cancelled deadline proves the queue kept
  // running and the cancelled task stayed dead.
  std::atomic<bool> sibling{false};
  q.schedule_after(milliseconds(80), [&] { sibling = true; });
  ASSERT_TRUE(wait_until([&] { return sibling.load(); }));
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(TimerQueueTest, CancelUnknownOrSpentIdReturnsFalse) {
  TimerQueue q("tq-test");
  EXPECT_FALSE(q.cancel(12345));
  const TimerId id = q.schedule_after(milliseconds(0), [] {});
  ASSERT_TRUE(wait_until([&] { return q.fired() == 1; }));
  EXPECT_FALSE(q.cancel(id));  // already fired
}

TEST(TimerQueueTest, CancelBlocksOutFiringCallback) {
  // cancel() of a currently-firing timer must not return until the
  // callback finished — after it, callback-referenced state may die.
  TimerQueue q("tq-test");
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> finished{false};
  const TimerId id = q.schedule_after(milliseconds(0), [&] {
    entered = true;
    while (!release.load()) std::this_thread::yield();
    finished = true;
  });
  ASSERT_TRUE(wait_until([&] { return entered.load(); }));
  std::thread canceller([&] {
    EXPECT_FALSE(q.cancel(id));  // too late to prevent, must wait it out
    EXPECT_TRUE(finished.load());
  });
  release = true;
  canceller.join();
}

TEST(TimerQueueTest, SelfCancelReturnsImmediately) {
  TimerQueue q("tq-test");
  std::atomic<bool> self_result{true};
  std::atomic<bool> done{false};
  std::atomic<TimerId> id{0};
  {
    // The id is published before the deadline can fire (atomically: the
    // callback runs on the queue's thread).
    id = q.schedule_after(milliseconds(30), [&] {
      self_result = q.cancel(id);  // would self-deadlock if it blocked
      done = true;
    });
  }
  ASSERT_TRUE(wait_until([&] { return done.load(); }));
  EXPECT_FALSE(self_result.load());
}

TEST(TimerQueueTest, OrderingAndCancelUnderChurn) {
  // Several threads schedule and cancel concurrently; every timer either
  // fires exactly once or is cancelled exactly once, and nothing leaks.
  TimerQueue q("tq-test");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<int> fired{0};
  std::atomic<int> cancelled{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const TimerId id = q.schedule_after(
            milliseconds(1 + (i * 7 + t) % 23), [&] { ++fired; });
        // Cancel roughly a third; success and too-late are both fine —
        // the accounting below must balance either way.
        if (i % 3 == 0 && q.cancel(id)) ++cancelled;
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_TRUE(wait_until([&] {
    return fired.load() + cancelled.load() == kThreads * kPerThread;
  }));
  EXPECT_TRUE(wait_until([&] { return q.pending() == 0; }));
  EXPECT_EQ(q.fired(), static_cast<std::uint64_t>(fired.load()));
}

TEST(TimerQueueTest, DrivenModeFiresOnlyThroughRunDue) {
  TimerQueue q("tq-driven", TimerQueue::Mode::kDriven);
  std::atomic<int> wakeups{0};
  q.set_wakeup([&] { ++wakeups; });
  std::atomic<int> fired{0};
  const auto now = std::chrono::steady_clock::now();
  q.schedule_at(now + milliseconds(10), [&] { ++fired; });
  EXPECT_EQ(wakeups.load(), 1);  // first deadline is always "earlier"
  q.schedule_at(now + milliseconds(50), [&] { ++fired; });
  EXPECT_EQ(wakeups.load(), 1);  // later deadline: no re-arm needed
  q.schedule_at(now + milliseconds(5), [&] { ++fired; });
  EXPECT_EQ(wakeups.load(), 2);  // earlier deadline: owner must re-arm

  EXPECT_EQ(q.next_deadline(), now + milliseconds(5));
  // Nothing fires without the owner driving it.
  EXPECT_EQ(fired.load(), 0);
  EXPECT_EQ(q.run_due(now + milliseconds(12)), 2u);
  EXPECT_EQ(fired.load(), 2);
  EXPECT_EQ(q.next_deadline(), now + milliseconds(50));
  EXPECT_EQ(q.run_due(now + milliseconds(60)), 1u);
  EXPECT_EQ(fired.load(), 3);
  EXPECT_EQ(q.next_deadline(), TimePoint::max());
}

TEST(TimerQueueTest, ScheduleAfterStopIsDropped) {
  TimerQueue q("tq-test");
  q.stop();
  std::atomic<bool> ran{false};
  EXPECT_EQ(q.schedule_after(milliseconds(0), [&] { ran = true; }), 0u);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_FALSE(ran.load());
}

TEST(TimerQueueTest, SharedInstanceFires) {
  std::atomic<bool> ran{false};
  TimerQueue::shared().schedule_after(milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(wait_until([&] { return ran.load(); }));
}

// --- kSimulated (virtual-time) mode -----------------------------------------

TEST(TimerQueueSimTest, AdvanceFiresAtEachVirtualInstant) {
  SimClock clock;
  TimerQueue q("tq-sim", clock);
  std::vector<std::int64_t> fired_at_ms;
  const TimePoint start = clock.now();
  auto at_ms = [&](std::int64_t off) { return start + milliseconds(off); };
  for (const std::int64_t off : {70, 10, 40}) {
    q.schedule_at(at_ms(off), [&, off] {
      // The clock must already read the deadline when the callback runs.
      EXPECT_EQ(clock.now(), at_ms(off));
      fired_at_ms.push_back(off);
    });
  }
  EXPECT_EQ(q.advance_to(at_ms(100)), 3u);
  EXPECT_EQ(fired_at_ms, (std::vector<std::int64_t>{10, 40, 70}));
  EXPECT_EQ(clock.now(), at_ms(100));  // ends at target, not the last deadline
}

TEST(TimerQueueSimTest, PastDeadlineFiresOnNextAdvance) {
  SimClock clock;
  TimerQueue q("tq-sim", clock);
  // A deadline at (or before) the current virtual instant is already due;
  // the next advance must run it even for a zero-length step.
  bool ran = false;
  q.schedule_after(milliseconds(0), [&] { ran = true; });
  EXPECT_EQ(q.advance_by(milliseconds(0)), 1u);
  EXPECT_TRUE(ran);
}

TEST(TimerQueueSimTest, SameInstantKeepsScheduleOrder) {
  SimClock clock;
  TimerQueue q("tq-sim", clock);
  const TimePoint deadline = clock.now() + milliseconds(5);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.schedule_at(deadline, [&, i] { order.push_back(i); });
  }
  q.advance_by(milliseconds(5));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(TimerQueueSimTest, ReArmFiresAtItsOwnVirtualInstant) {
  SimClock clock;
  TimerQueue q("tq-sim", clock);
  const TimePoint start = clock.now();
  std::vector<std::int64_t> ticks_ms;
  // A periodic timer re-arming itself every 10ms: one advance over 35ms
  // must produce ticks at 10/20/30, each observed at its own instant.
  std::function<void()> tick = [&] {
    ticks_ms.push_back(
        std::chrono::duration_cast<milliseconds>(clock.now() - start).count());
    q.schedule_after(milliseconds(10), tick);
  };
  q.schedule_after(milliseconds(10), tick);
  EXPECT_EQ(q.advance_by(milliseconds(35)), 3u);
  EXPECT_EQ(ticks_ms, (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_EQ(q.pending(), 1u);  // the 40ms re-arm is still waiting
}

TEST(TimerQueueSimTest, CancelDuringAdvanceIsQuiescent) {
  SimClock clock;
  TimerQueue q("tq-sim", clock);
  // The first timer cancels the second (a later virtual instant) while the
  // advance is in flight; the cancelled callback must never run.
  bool victim_ran = false;
  const TimerId victim =
      q.schedule_after(milliseconds(20), [&] { victim_ran = true; });
  q.schedule_after(milliseconds(10), [&] { EXPECT_TRUE(q.cancel(victim)); });
  EXPECT_EQ(q.advance_by(milliseconds(50)), 1u);
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(q.pending(), 0u);
}

}  // namespace
}  // namespace p2p::util
