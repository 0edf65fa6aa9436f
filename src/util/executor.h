// Task execution: a single-threaded serial executor and a periodic timer.
//
// Every JXTA service callback on a peer runs on that peer's SerialExecutor,
// which gives each peer the single-threaded event-loop semantics the Java
// prototype got from its listener threads, without exposing locks to users.
#pragma once

#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "util/clock.h"
#include "util/queue.h"
#include "util/thread_annotations.h"
#include "util/timer_queue.h"

namespace p2p::util {

using Task = std::function<void()>;

// Runs posted tasks in FIFO order on one dedicated thread — or, in inline
// mode, synchronously on the posting thread. Inline mode is what lets a
// simulation host thousands of peers in one process: the sim driver thread
// is the only thread, so per-peer FIFO serialization holds trivially and no
// OS thread is spawned per peer.
class SerialExecutor {
 public:
  // name is used in logs; the thread starts immediately unless `inline_mode`.
  explicit SerialExecutor(std::string name, bool inline_mode = false);
  ~SerialExecutor();

  SerialExecutor(const SerialExecutor&) = delete;
  SerialExecutor& operator=(const SerialExecutor&) = delete;

  // Enqueues a task (inline mode: runs it before returning). Returns false
  // if the executor is already stopped.
  bool post(Task task);

  // Stops accepting tasks, drains the queue, joins the thread. Idempotent.
  // Must not be called from the executor thread itself.
  void stop();

  // True when the calling thread is this executor's thread (inline mode:
  // when the calling thread is inside a post()).
  [[nodiscard]] bool on_executor_thread() const;

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  void run();

  std::string name_;
  const bool inline_mode_;
  BlockingQueue<Task> queue_;
  std::atomic<bool> inline_stopped_{false};
  std::thread thread_;
};

// Fires registered callbacks at fixed periods on a util::TimerQueue: each
// entry is a queue timer re-armed after every firing, and the set of
// entries belongs to one owner, so stop() cancels all of its periodic work
// in one call. Owns no thread: tasks run wherever the queue fires them, so
// they must not block. With a kSimulated queue the periodic work (peer
// heartbeats, finder re-queries, monitoring sweeps) runs on virtual time.
class PeriodicTimer {
 public:
  // Schedules ride `timers`, which must outlive this.
  PeriodicTimer(std::string name, TimerQueue& timers);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  // Registers a repeating task; first run after one period. Returns a handle
  // usable with cancel(). Thread-safe.
  std::uint64_t schedule(Duration period, Task task) EXCLUDES(mu_);

  // Stops future firings of the handle. If a firing of this handle is in
  // progress on another thread, blocks until it completes — after cancel()
  // returns it is safe to destroy state the task references. (When called
  // from within the task itself, returns immediately.) Thread-safe,
  // idempotent.
  void cancel(std::uint64_t handle) EXCLUDES(mu_);

  // Cancels every entry; later schedules are refused. Idempotent.
  void stop() EXCLUDES(mu_);

 private:
  struct Entry {
    std::uint64_t id;
    Duration period;
    Task task;
    TimerId queue_timer = 0;  // the currently armed queue timer
  };

  // Fires `handle`'s task and re-arms it.
  void fire(std::uint64_t handle) EXCLUDES(mu_);

  std::string name_;
  TimerQueue& timers_;
  Mutex mu_{"PeriodicTimer"};
  std::vector<Entry> entries_ GUARDED_BY(mu_);
  std::uint64_t next_id_ GUARDED_BY(mu_) = 1;
  bool stopped_ GUARDED_BY(mu_) = false;
};

}  // namespace p2p::util
