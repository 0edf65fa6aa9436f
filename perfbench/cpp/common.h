// Shared pieces of the benchmark: clocks, process probes, percentiles, the
// allocation counter's interface, the in-memory span recorder, the
// per-subscriber delivery oracle and the result that main() prints.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

// --- clocks and process probes -------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// User + system CPU of the whole process, in seconds.
double process_cpu_s();
// Resident set size, in kB.
double rss_kb();
// Threads in the process (/proc/self/status).
int proc_threads();
// Sleeps until the steady clock reaches `deadline_ns` (never spins).
void sleep_until_ns(std::int64_t deadline_ns);

// CPU placement. A run keeps to one CPU, so hand-offs inside the system are
// switches on that CPU rather than wake-ups of idle virtual CPUs, whose
// cost follows the host's load. The system under test is built on a thread
// at nice 10, which every thread it starts inherits; the benchmark's
// driving thread (publisher, generator, simulator) stays at nice 0, so the
// system does not preempt it in the middle of a timed call.
void pin_to_one_cpu();  // first thing in main, before any thread exists
inline constexpr int kSystemNice = 10;
// Runs `fn` on a new thread at `nice` and waits for it; rethrows its
// exception. Threads `fn` starts inherit the nice value.
void at_nice(int nice, const std::function<void()>& fn);
inline void as_system(const std::function<void()>& fn) { at_nice(kSystemNice, fn); }

// Seed of the global RNG before a threaded world is built: peers get the
// same identities in every run, so they are served in the same order (maps
// keyed by peer id). --seed drives the events, not the topology.
inline constexpr std::uint64_t kIdentitySeed = 0x5EED;

// --- statistics ------------------------------------------------------------------

// Linearly interpolated percentile (p in [0, 100]) of `v`; sorts `v`.
// Returns 0 for an empty sample.
double percentile(std::vector<double>& v, double p);
double median(std::vector<double> v);
inline double per_delivery(double v, double deliveries) {
  return deliveries > 0 ? v / deliveries : 0;
}

// Nearest-rank percentile of integer samples given as value -> count: the
// smallest value at or below which a share p of the samples lie.
std::int64_t rank_percentile(const std::map<std::int64_t, std::uint64_t>& counts,
                             double p);

// Lock-free latency histogram: log-spaced buckets 1% wide, so any thread
// can record without allocating, and percentiles are exact to within ~0.5%.
class LogHist {
 public:
  void add_ns(std::int64_t ns);
  void reset();
  [[nodiscard]] std::uint64_t count() const;
  // Percentile in microseconds, interpolated inside the crossing bucket.
  [[nodiscard]] double percentile_us(double p) const;
  [[nodiscard]] double max_us() const;

 private:
  static constexpr int kBuckets = 2600;  // 1.01^2600 ns covers ~5 days
  std::atomic<std::uint64_t> counts_[kBuckets] = {};
};

// --- allocation counting (alloc_count.cpp) ----------------------------------------

// The counting operator new is linked only into this binary. Counting is on
// only between start() and stop(); each thread bumps its own relaxed slot.
namespace alloc {
void start();
void stop();
std::uint64_t count();  // allocations counted so far, all threads

// While alive, the calling thread's allocations are not counted: the
// benchmark's own work, such as building the events it then publishes.
class Exclude {
 public:
  Exclude();
  ~Exclude();
  Exclude(const Exclude&) = delete;
  Exclude& operator=(const Exclude&) = delete;
};
}  // namespace alloc

// Counts allocations made by `fn` (run on this thread) while counting is on.
template <typename Fn>
std::uint64_t count_allocs(Fn&& fn) {
  const std::uint64_t before = alloc::count();
  alloc::start();
  fn();
  alloc::stop();
  return alloc::count() - before;
}

// --- spans ----------------------------------------------------------------------

// In-memory span recorder. The benchmark records spans around its own calls
// into each layer when tracing is on, and writes them out at exit. Spans of
// one event share `event`; a subscriber callback's parent is the publish
// span of its event.
class Spans {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::size_t kCapacity = 1 << 20;

  static Spans& instance();

  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return on_.load(std::memory_order_relaxed);
  }
  // Records one finished span; returns its index (kNone when off or full).
  std::uint32_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint32_t parent,
                       std::uint64_t event);
  // Opens a span whose index children need before it ends; close() stamps
  // its end. Both are no-ops on kNone.
  std::uint32_t open(const char* name, std::int64_t start_ns,
                     std::uint32_t parent, std::uint64_t event) {
    return record(name, start_ns, start_ns, parent, event);
  }
  void close(std::uint32_t span, std::int64_t end_ns);
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;
  // Writes every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;
    std::uint64_t event;
  };
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// Times `fn` as a span when tracing is on; returns the span index.
template <typename Fn>
std::uint32_t traced(const char* name, std::uint32_t parent,
                     std::uint64_t event, Fn&& fn) {
  Spans& spans = Spans::instance();
  if (!spans.enabled()) {
    fn();
    return Spans::kNone;
  }
  const std::int64_t t0 = now_ns();
  fn();
  return spans.record(name, t0, now_ns(), parent, event);
}

// --- delivery oracle ---------------------------------------------------------------

// Exactly-once ledger of one subscriber over a fixed sequence space, plus a
// condition variable that completion waits block on. Callbacks call
// deliver(); a duplicate, an out-of-range sequence or a corrupted event is
// recorded as a violation.
class Ledger {
 public:
  explicit Ledger(std::size_t capacity) : seen_((capacity + 63) / 64) {}

  // Marks `seq` delivered; `intact` says the fields matched the published
  // ones. Wakes waiters.
  void deliver(std::uint64_t seq, bool intact);
  // Blocks until `target` distinct deliveries or the deadline passes.
  bool wait_for(std::uint64_t target, std::int64_t deadline_ns);
  [[nodiscard]] std::uint64_t delivered() const;
  [[nodiscard]] std::uint64_t duplicates() const;
  [[nodiscard]] std::uint64_t corrupted() const;
  [[nodiscard]] std::uint64_t out_of_range() const;
  // Sequences in [0, n) never delivered.
  [[nodiscard]] std::uint64_t missing(std::uint64_t n) const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::uint64_t> seen_;
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t out_of_range_ = 0;
};

// Timing of a run's events by sequence number, shared by every world of the
// run. The publishing thread times each publish() call; a subscriber
// callback times its latency, its in-flight wait and itself against those
// stamps and records the delivery in its ledger. Spans are stamped with
// `span_clock` when one is given (the simulator's virtual clock), else with
// the wall clock.
class Probe {
 public:
  explicit Probe(std::size_t capacity,
                 std::function<std::int64_t()> span_clock = {});

  // Times `publish` (returns true when the event was accepted) for event
  // `seq`. Its latency is measured from `origin_ns`, or from the start of
  // the call when `origin_ns` is 0.
  template <typename Publish>
  bool publish(std::uint64_t seq, std::int64_t origin_ns, Publish&& publish) {
    const std::int64_t t0 = now_ns();
    origin_[seq].store(origin_ns > 0 ? origin_ns : t0, std::memory_order_relaxed);
    publish_end_[seq].store(0, std::memory_order_relaxed);  // an earlier world's
    Spans& spans = Spans::instance();
    const std::uint32_t span = spans.open("publish", span_now(t0), Spans::kNone, seq);
    span_[seq].store(span, std::memory_order_relaxed);
    const bool ok = publish();
    const std::int64_t t1 = now_ns();
    publish_end_[seq].store(t1, std::memory_order_relaxed);
    spans.close(span, span_now(t1));
    publish_call.add_ns(t1 - t0);
    return ok;
  }

  // Subscriber side: the callback was entered at `t_in` with event `seq`,
  // whose fields matched the published ones iff `intact`.
  void deliver(Ledger& ledger, std::uint64_t seq, bool intact, std::int64_t t_in);

  void reset();  // the histograms

  LogHist latency;       // origin -> callback entry
  LogHist publish_call;  // how long publish() blocks
  LogHist inflight;      // publish() return -> callback entry
  LogHist callback;      // callback duration

 private:
  std::int64_t span_now(std::int64_t wall_ns) const {
    return span_clock_ ? span_clock_() : wall_ns;
  }

  std::function<std::int64_t()> span_clock_;
  std::vector<std::atomic<std::int64_t>> origin_;
  std::vector<std::atomic<std::int64_t>> publish_end_;
  std::vector<std::atomic<std::uint32_t>> span_;
};

// --- registry sums -------------------------------------------------------------------

// Sum of one counter (or gauge) across several registry snapshots.
std::uint64_t sum_counter(const std::vector<p2p::obs::Snapshot>& snaps,
                          const std::string& name);
std::int64_t max_gauge(const std::vector<p2p::obs::Snapshot>& snaps,
                       const std::string& name);

// --- the run's result ------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  // End-to-end and per-layer metrics by name; units live in the name
  // tables below.
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void violation(std::string what) { violations.push_back(std::move(what)); }
};

// Per-layer metric names. main() prints the end-to-end set on untraced runs
// and this set on traced runs; a workload that does not exercise a layer
// reports 0 for it (see README.md, "Reading a zero").
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();

Result run_paper_sync(const Options& opt);
Result run_tcp_flood(const Options& opt);

}  // namespace perfbench
