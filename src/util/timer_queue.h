// TimerQueue: the shared deadline-callback service.
//
// One queue replaces the per-caller sleeping threads the substrate used to
// burn on timed work: the NetworkFabric's deliver-at scheduler, the JXTA
// response-collection windows (PIP surveys, CMS searches) and the reactor's
// connect deadlines / retry backoffs / idle sweeps all schedule callbacks
// here instead of parking a thread in sleep_for.
//
// Three driving modes:
//   * kOwnThread  — the queue runs its own waiter thread (the process-wide
//     TimerQueue::shared() instance used by the fabric and by every peer
//     not handed a queue of its own).
//   * kDriven     — no thread; an owner (net::EventLoop) polls
//     next_deadline() to size its epoll timeout and calls run_due() when
//     it wakes. Scheduling an earlier deadline invokes the owner-supplied
//     wakeup hook so the owner can re-arm.
//   * kSimulated  — no thread; the queue holds a SimClock and a driver
//     (src/sim/) calls advance_to(target), which steps the clock to each
//     pending deadline ≤ target in order and fires the due callbacks on
//     the driver thread. Equal deadlines keep schedule (seq) order and a
//     callback that re-arms at an intermediate virtual instant fires at
//     that instant, not at target — so a whole overlay of timers replays
//     deterministically and faster than realtime.
//
// All deadline math goes through the injected util::Clock& (defaults to
// SystemClock::instance()); the queue never reads the wall clock directly.
//
// Ordering: callbacks with equal deadlines fire in schedule order (a
// monotonic sequence number breaks ties), which is what lets the fabric
// keep its per-instant FIFO delivery guarantee on top of this queue.
//
// Cancellation: cancel(id) guarantees that after it returns the callback
// is not running and never will — it blocks out a concurrently-firing
// callback (quiescence), except when called from inside that very callback,
// which would self-deadlock and instead returns immediately.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <unordered_set>
#include <vector>

#include "util/clock.h"
#include "util/thread_annotations.h"

namespace p2p::util {

using TimerId = std::uint64_t;
using TimerTask = std::function<void()>;

class TimerQueue {
 public:
  enum class Mode { kOwnThread, kDriven, kSimulated };

  // kOwnThread: spawns the waiter thread immediately. `name` shows up in
  // deadlock reports and logs. `clock` is the queue's time authority for
  // schedule_after / lag accounting (kSimulated requires the SimClock
  // overload below).
  explicit TimerQueue(const char* name, Mode mode = Mode::kOwnThread,
                      Clock& clock = SystemClock::instance());
  // kSimulated: virtual-time queue stepping `clock`. No thread is spawned;
  // drive it with advance_to(). The clock must outlive the queue.
  TimerQueue(const char* name, SimClock& clock);
  ~TimerQueue();

  TimerQueue(const TimerQueue&) = delete;
  TimerQueue& operator=(const TimerQueue&) = delete;

  // The process-wide shared instance (kOwnThread). Never destroyed: it may
  // own callbacks scheduled from static-lifetime objects.
  static TimerQueue& shared();

  // kDriven only: invoked (without the queue lock) whenever a schedule
  // makes the earliest deadline earlier, so the driving loop can re-arm
  // its wait. Set once before the first schedule.
  void set_wakeup(std::function<void()> wakeup) EXCLUDES(mu_);

  // Invoked (without the queue lock) after each fired callback with how
  // late it ran, in µs past its deadline. Installed by obs-aware owners
  // (net::EventLoop, the obs watchdog) — util itself never depends on obs.
  // Replacing the observer does not wait out an in-flight invocation, so
  // installed observers should own (or outlive) everything they touch.
  void set_fire_observer(std::function<void(std::int64_t lag_us)> observer)
      EXCLUDES(mu_);

  // Schedules `task` to run at/after the given time. Returns an id usable
  // with cancel(). Tasks scheduled after stop() are dropped (id 0).
  TimerId schedule_at(TimePoint deadline, TimerTask task) EXCLUDES(mu_);
  TimerId schedule_after(Duration delay, TimerTask task) EXCLUDES(mu_);

  // Prevents the timer from firing. Returns true if the timer was still
  // pending (it will never run). If the callback is firing on another
  // thread right now, blocks until it completes — afterwards it is safe to
  // destroy state the callback references. Calling from inside the firing
  // callback itself returns false immediately instead of self-deadlocking.
  bool cancel(TimerId id) EXCLUDES(mu_);

  // --- kDriven interface --------------------------------------------------
  // Earliest pending deadline, or TimePoint::max() when empty.
  [[nodiscard]] TimePoint next_deadline() const EXCLUDES(mu_);
  // Fires every timer due at `now` (in deadline/schedule order) on the
  // calling thread. Returns the number fired.
  std::size_t run_due(TimePoint now) EXCLUDES(mu_);

  // --- kSimulated interface -----------------------------------------------
  // Advances the SimClock to `target`, stopping at every pending deadline
  // on the way: the clock is set to the deadline, due timers fire (seq
  // FIFO within an instant), and newly scheduled work — including re-arms
  // landing before `target` — is honoured at its own virtual instant.
  // Afterwards the clock reads `target`. Returns the number fired.
  // kSimulated only; single driver thread by contract.
  std::size_t advance_to(TimePoint target) EXCLUDES(mu_);
  // advance_to(now + d), for scripted "run the world for d" steps.
  std::size_t advance_by(Duration d) EXCLUDES(mu_);

  // --- introspection ------------------------------------------------------
  [[nodiscard]] std::size_t pending() const EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t fired() const EXCLUDES(mu_);

  // Stops the waiter thread (kOwnThread) and drops pending timers.
  // Idempotent; further schedules are no-ops.
  void stop() EXCLUDES(mu_);

 private:
  struct Entry {
    TimePoint deadline;
    std::uint64_t seq = 0;  // tie-break: equal deadlines fire in schedule order
    TimerId id = 0;
    // Heap entries are moved out before firing; the task lives here.
    std::shared_ptr<TimerTask> task;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  TimerId schedule_impl(TimePoint deadline, TimerTask task) EXCLUDES(mu_);
  // Pops and fires everything due; called with the lock held, drops it
  // around each callback. Returns the count fired.
  std::size_t fire_due_locked(TimePoint now, MutexLock& lock) REQUIRES(mu_);
  void run() EXCLUDES(mu_);

  const char* name_;
  const Mode mode_;
  Clock& clock_;
  SimClock* sim_clock_ = nullptr;  // non-null iff mode_ == kSimulated
  mutable Mutex mu_{"timer-queue"};
  CondVar cv_;
  std::function<void()> wakeup_ GUARDED_BY(mu_);
  std::function<void(std::int64_t)> fire_observer_ GUARDED_BY(mu_);
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> heap_
      GUARDED_BY(mu_);
  // Ids of scheduled-but-not-fired-or-cancelled timers; a heap entry whose
  // id is no longer here was cancelled and is skipped on pop.
  std::unordered_set<TimerId> live_ GUARDED_BY(mu_);
  TimerId next_id_ GUARDED_BY(mu_) = 1;
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  std::uint64_t fired_ GUARDED_BY(mu_) = 0;
  // Timer currently executing, 0 if none; cancel() of that id waits on cv_
  // unless the caller is the firing thread itself (self-cancel).
  TimerId firing_id_ GUARDED_BY(mu_) = 0;
  std::thread::id firing_thread_ GUARDED_BY(mu_);
  bool stopped_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace p2p::util
