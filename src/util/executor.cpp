#include "util/executor.h"

#include <algorithm>

#include "util/logging.h"

namespace p2p::util {

namespace {
// The inline-mode executor currently running a post() on this thread, so
// on_executor_thread() keeps its meaning ("am I inside my own dispatch?")
// without a dedicated thread to compare against.
thread_local const SerialExecutor* t_inline_executor = nullptr;
}  // namespace

SerialExecutor::SerialExecutor(std::string name, bool inline_mode)
    : name_(std::move(name)), inline_mode_(inline_mode) {
  if (!inline_mode_) {
    thread_ = std::thread([this] { run(); });
  }
}

SerialExecutor::~SerialExecutor() { stop(); }

bool SerialExecutor::post(Task task) {
  if (inline_mode_) {
    if (inline_stopped_.load(std::memory_order_acquire)) return false;
    const SerialExecutor* const prev = t_inline_executor;
    t_inline_executor = this;
    try {
      task();
    } catch (const std::exception& e) {
      P2P_LOG(kError, "executor") << name_ << ": task threw: " << e.what();
    } catch (...) {
      P2P_LOG(kError, "executor") << name_ << ": task threw unknown exception";
    }
    t_inline_executor = prev;
    return true;
  }
  return queue_.push(std::move(task));
}

void SerialExecutor::stop() {
  if (inline_mode_) {
    inline_stopped_.store(true, std::memory_order_release);
    return;
  }
  queue_.close();
  if (thread_.joinable()) thread_.join();
}

bool SerialExecutor::on_executor_thread() const {
  if (inline_mode_) return t_inline_executor == this;
  return std::this_thread::get_id() == thread_.get_id();
}

void SerialExecutor::run() {
  while (auto task = queue_.pop()) {
    try {
      (*task)();
    } catch (const std::exception& e) {
      P2P_LOG(kError, "executor")
          << name_ << ": task threw: " << e.what();
    } catch (...) {
      P2P_LOG(kError, "executor") << name_ << ": task threw unknown exception";
    }
  }
}

PeriodicTimer::PeriodicTimer(std::string name, TimerQueue& timers)
    : name_(std::move(name)), timers_(timers) {}

PeriodicTimer::~PeriodicTimer() { stop(); }

std::uint64_t PeriodicTimer::schedule(Duration period, Task task) {
  const MutexLock lock(mu_);
  if (stopped_) return 0;
  const std::uint64_t id = next_id_++;
  entries_.push_back(Entry{id, period, std::move(task)});
  entries_.back().queue_timer =
      timers_.schedule_after(period, [this, id] { fire(id); });
  return id;
}

void PeriodicTimer::fire(std::uint64_t handle) {
  Task task;
  Duration period{};
  {
    const MutexLock lock(mu_);
    const auto it =
        std::find_if(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.id == handle; });
    if (it == entries_.end() || stopped_) return;
    task = it->task;  // copy: the entry may be cancelled while firing
    period = it->period;
  }
  try {
    task();
  } catch (const std::exception& e) {
    P2P_LOG(kError, "timer") << name_ << ": task " << handle
                             << " threw: " << e.what();
  } catch (...) {
    P2P_LOG(kError, "timer") << name_ << ": task " << handle << " threw";
  }
  // Re-arm only if the entry survived the firing (cancel() during the task
  // erases it — including a self-cancel from inside the task).
  const MutexLock lock(mu_);
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [&](const Entry& e) { return e.id == handle; });
  if (it == entries_.end() || stopped_) return;
  it->queue_timer =
      timers_.schedule_after(period, [this, handle] { fire(handle); });
}

void PeriodicTimer::cancel(std::uint64_t handle) {
  TimerId queue_timer = 0;
  {
    const MutexLock lock(mu_);
    const auto it =
        std::find_if(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.id == handle; });
    if (it == entries_.end()) return;
    queue_timer = it->queue_timer;
    entries_.erase(it);
  }
  // TimerQueue::cancel gives the synchronous-cancellation guarantee: it
  // blocks out a firing fire() (whose re-arm then finds the entry gone),
  // and a self-cancel from inside the task returns immediately.
  timers_.cancel(queue_timer);
}

void PeriodicTimer::stop() {
  std::vector<TimerId> pending;
  {
    const MutexLock lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    for (const Entry& e : entries_) pending.push_back(e.queue_timer);
    entries_.clear();
  }
  for (const TimerId id : pending) timers_.cancel(id);
}

}  // namespace p2p::util
