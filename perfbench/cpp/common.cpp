#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long size = 0;
  long resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

int proc_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

void sleep_until_ns(std::int64_t deadline_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline_ns)));
}

void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

void at_nice(int nice, const std::function<void()>& fn) {
  std::exception_ptr error;
  std::thread worker([&] {
    setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), nice);
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.join();
  if (error) std::rethrow_exception(error);
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(v, 50); }

std::int64_t rank_percentile(const std::map<std::int64_t, std::uint64_t>& counts,
                             double p) {
  std::uint64_t total = 0;
  for (const auto& [value, n] : counts) total += n;
  const double target = p / 100.0 * static_cast<double>(total);
  std::uint64_t below = 0;
  for (const auto& [value, n] : counts) {
    below += n;
    if (static_cast<double>(below) >= target) return value;
  }
  return 0;
}

// --- LogHist ------------------------------------------------------------------------

namespace {
const double kLogBase = std::log(1.01);
double bucket_floor_ns(int i) { return i == 0 ? 0 : std::exp((i - 1) * kLogBase); }
}  // namespace

void LogHist::add_ns(std::int64_t ns) {
  int i = 0;
  if (ns >= 1) {
    i = 1 + static_cast<int>(std::log(static_cast<double>(ns)) / kLogBase);
    i = std::min(i, kBuckets - 1);
  }
  counts_[i].fetch_add(1, std::memory_order_relaxed);
}

void LogHist::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

std::uint64_t LogHist::count() const {
  std::uint64_t n = 0;
  for (const auto& c : counts_) n += c.load(std::memory_order_relaxed);
  return n;
}

double LogHist::percentile_us(double p) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  const double target = p / 100.0 * static_cast<double>(total);
  double below = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const auto n = static_cast<double>(counts_[i].load(std::memory_order_relaxed));
    if (n > 0 && below + n >= target) {
      const double lo = bucket_floor_ns(i);
      const double hi = bucket_floor_ns(i + 1);
      return (lo + (hi - lo) * (target - below) / n) / 1e3;
    }
    below += n;
  }
  return bucket_floor_ns(kBuckets) / 1e3;
}

double LogHist::max_us() const {
  for (int i = kBuckets - 1; i >= 0; --i) {
    if (counts_[i].load(std::memory_order_relaxed) > 0) {
      return bucket_floor_ns(i + 1) / 1e3;
    }
  }
  return 0;
}

// --- spans ---------------------------------------------------------------------------

Spans& Spans::instance() {
  static Spans spans;
  return spans;
}

std::uint32_t Spans::record(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::uint32_t parent,
                            std::uint64_t event) {
  if (!enabled()) return kNone;
  const std::lock_guard lock(mu_);
  if (spans_.size() >= kCapacity) {
    ++dropped_;
    return kNone;
  }
  if (spans_.capacity() == 0) spans_.reserve(kCapacity);
  spans_.push_back({name, start_ns, end_ns, parent, event});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Spans::close(std::uint32_t span, std::int64_t end_ns) {
  if (span == kNone) return;
  const std::lock_guard lock(mu_);
  spans_[span].end_ns = end_ns;
}

std::uint64_t Spans::recorded() const {
  const std::lock_guard lock(mu_);
  return spans_.size();
}

std::uint64_t Spans::dropped() const {
  const std::lock_guard lock(mu_);
  return dropped_;
}

bool Spans::write(const std::string& path) const {
  const std::lock_guard lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"event\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.event));
  }
  return std::fclose(f) == 0;
}

// --- ledger ----------------------------------------------------------------------------

void Ledger::deliver(std::uint64_t seq, bool intact) {
  {
    const std::lock_guard lock(mu_);
    if (seq / 64 >= seen_.size()) {
      ++out_of_range_;
      return;
    }
    std::uint64_t& word = seen_[seq / 64];
    const std::uint64_t bit = 1ULL << (seq % 64);
    if ((word & bit) != 0) {
      ++duplicates_;
      return;
    }
    word |= bit;
    if (!intact) ++corrupted_;
    ++delivered_;
  }
  cv_.notify_all();
}

bool Ledger::wait_for(std::uint64_t target, std::int64_t deadline_ns) {
  std::unique_lock lock(mu_);
  return cv_.wait_until(lock,
                        std::chrono::steady_clock::time_point(
                            std::chrono::nanoseconds(deadline_ns)),
                        [&] { return delivered_ >= target; });
}

std::uint64_t Ledger::delivered() const {
  const std::lock_guard lock(mu_);
  return delivered_;
}
std::uint64_t Ledger::duplicates() const {
  const std::lock_guard lock(mu_);
  return duplicates_;
}
std::uint64_t Ledger::corrupted() const {
  const std::lock_guard lock(mu_);
  return corrupted_;
}
std::uint64_t Ledger::out_of_range() const {
  const std::lock_guard lock(mu_);
  return out_of_range_;
}

std::uint64_t Ledger::missing(std::uint64_t n) const {
  const std::lock_guard lock(mu_);
  std::uint64_t absent = 0;
  for (std::uint64_t seq = 0; seq < n; ++seq) {
    if (seq / 64 >= seen_.size() ||
        (seen_[seq / 64] & (1ULL << (seq % 64))) == 0) {
      ++absent;
    }
  }
  return absent;
}

// --- probe -------------------------------------------------------------------------------

Probe::Probe(std::size_t capacity, std::function<std::int64_t()> span_clock)
    : span_clock_(std::move(span_clock)),
      origin_(capacity),
      publish_end_(capacity),
      span_(capacity) {}

void Probe::deliver(Ledger& ledger, std::uint64_t seq, bool intact,
                    std::int64_t t_in) {
  const bool known = seq < origin_.size();
  if (known) {
    latency.add_ns(t_in - origin_[seq].load(std::memory_order_relaxed));
    const std::int64_t end = publish_end_[seq].load(std::memory_order_relaxed);
    // The callback may run before publish() returns; that is no wait.
    inflight.add_ns(end > 0 ? std::max<std::int64_t>(t_in - end, 0) : 0);
  }
  ledger.deliver(seq, intact);
  const std::int64_t t_out = now_ns();
  callback.add_ns(t_out - t_in);
  Spans& spans = Spans::instance();
  if (spans.enabled() && known) {
    spans.record("deliver", span_now(t_in), span_now(t_out),
                 span_[seq].load(std::memory_order_relaxed), seq);
  }
}

void Probe::reset() {
  latency.reset();
  publish_call.reset();
  inflight.reset();
  callback.reset();
}

// --- registry sums -----------------------------------------------------------------------

std::uint64_t sum_counter(const std::vector<p2p::obs::Snapshot>& snaps,
                          const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& s : snaps) {
    const auto* v = s.find(name);
    if (v == nullptr) continue;
    total += v->kind == p2p::obs::MetricValue::Kind::kGauge
                 ? static_cast<std::uint64_t>(std::max<std::int64_t>(v->gauge, 0))
                 : v->counter;
  }
  return total;
}

std::int64_t max_gauge(const std::vector<p2p::obs::Snapshot>& snaps,
                       const std::string& name) {
  std::int64_t best = 0;
  for (const auto& s : snaps) {
    const auto* v = s.find(name);
    if (v != nullptr) best = std::max(best, v->gauge);
  }
  return best;
}

// --- metric names ---------------------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"delivered_eps", "1/s"},
      {"latency_p50_us", "us"},
      {"publish_call_p50_us", "us"},
      {"cpu_us_per_event", "us"},
      {"allocs_per_event", "count"},
      {"wire_msgs_per_event", "count"},
      {"wire_bytes_per_event", "B"},
      {"rss_kb_per_peer", "kB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      // serial: EventTraits<SkiRental> on the workload's static events.
      {"serial.encode_ns", "ns"},
      {"serial.decode_ns", "ns"},
      {"serial.encode_allocs", "count"},
      {"serial.decode_allocs", "count"},
      // tps codecs and the batch frame, as isolated calls.
      {"codec.xml.encode_ns", "ns"},
      {"codec.xml.decode_ns", "ns"},
      {"codec.xml.bytes_per_event", "B"},
      {"codec.xml.encode_allocs", "count"},
      {"codec.xml.decode_allocs", "count"},
      {"codec.binary.encode_ns", "ns"},
      {"codec.binary.decode_ns", "ns"},
      {"codec.binary.bytes_per_event", "B"},
      {"codec.binary.encode_allocs", "count"},
      {"codec.binary.decode_allocs", "count"},
      {"batch.encode_ns_per_event", "ns"},
      {"batch.decode_ns_per_event", "ns"},
      {"batch.encode_allocs_per_event", "count"},
      {"batch.decode_allocs_per_event", "count"},
      {"batch.events_per_frame", "count"},
      // The untraced window's tails, not gated: over ten runs tcp_flood's
      // latency p90 spread by 86% (IQR / median) while its p50 held 14%,
      // and paper_sync's publish call p90, where each epoch's first (cold)
      // call meets the other nine, by 26% while its p50 held 2%.
      {"latency_p90_us", "us"},
      {"publish_call_p90_us", "us"},
      // tps session, from TpsStats of the workload's sessions.
      {"tps.batch_size_mean", "count"},
      {"tps.dup_suppressed_ratio", "ratio"},
      {"tps.dup_suppressed_base", "count"},
      {"tps.encode_cache_hit_ratio", "ratio"},
      {"tps.encode_cache_base", "count"},
      {"tps.send_queue_hwm", "count"},
      {"tps.delivery_queue_hwm", "count"},
      {"tps.drops", "count"},
      {"tps.codec_fallbacks", "count"},
      {"tps.flush_p50_us", "us"},
      {"tps.subscribe_p50_us", "us"},
      {"tps.cancel_p50_us", "us"},
      {"tps.cancel_p90_us", "us"},
      {"tps.inflight_p50_us", "us"},
      {"tps.inflight_p90_us", "us"},
      {"tps.callback_p50_us", "us"},
      // srjxta: the peel of paper_sync's load through the harness drivers.
      {"peel.wire.cpu_us_per_event", "us"},
      {"peel.wire.publish_call_p50_us", "us"},
      {"peel.srjxta.cpu_us_per_event", "us"},
      {"peel.srjxta.publish_call_p50_us", "us"},
      {"peel.tps.cpu_us_per_event", "us"},
      {"peel.tps.publish_call_p50_us", "us"},
      {"peel.tps.wire_bytes_per_event", "B"},
      {"peel.tps_notrace.cpu_us_per_event", "us"},
      {"peel.tps_notrace.publish_call_p50_us", "us"},
      {"peel.tps_notrace.wire_bytes_per_event", "B"},
      {"premium.srjxta_over_wire", "ratio"},
      {"premium.tps_over_srjxta", "ratio"},
      {"premium.hop_tracing", "ratio"},
      // jxta, from the peers' registries, per delivery.
      {"jxta.rdv.forwards_per_event", "count"},
      {"jxta.rdv.dups_per_event", "count"},
      {"jxta.wire.received_per_delivered", "count"},
      {"jxta.resolver.queries_in_window", "count"},
      // net.
      {"net.loop_wakeups_per_event", "count"},
      {"net.send_queue_bytes_hwm", "B"},
      {"net.send_drops", "count"},
      {"net.frame_errors", "count"},
      {"net.connections_active", "count"},
      {"net.timers_fired_per_event", "count"},
      // util.
      {"util.dedup_ns_per_op", "ns"},
      {"util.dedup_allocs_per_op", "count"},
      {"sim.timers_per_event", "count"},
      // sim: the flash crowd (tcp_flood's traced run), counts, wall clock
      // and virtual time.
      {"sim.wire_msgs_per_event", "count"},
      {"sim.wire_bytes_per_event", "B"},
      {"sim.rdv_forwards_per_event", "count"},
      {"sim.rdv_dups_per_event", "count"},
      {"sim.allocs_per_event", "count"},
      {"sim.rss_kb_per_peer", "kB"},
      {"sim.setup_s", "s"},
      {"sim.cpu_us_per_event", "us"},
      {"sim.wall_us_per_event", "us"},
      {"sim.publish_call_p50_us", "us"},
      {"sim.speedup", "ratio"},
      {"sim.add_peer_p50_us", "us"},
      {"sim.delivered_per_virtual_s", "1/s"},
      {"sim.vlatency_p50_ms", "ms"},
      {"sim.vlatency_p99_ms", "ms"},
      // obs and the harness.
      {"obs.untraced_cpu_us_per_event", "us"},
      {"obs.traced_cpu_us_per_event", "us"},
      {"obs.bench_trace_overhead.cpu", "ratio"},
      {"obs.untraced_latency_p50_us", "us"},
      {"obs.traced_latency_p50_us", "us"},
      {"obs.bench_trace_overhead.latency_p50", "ratio"},
      {"obs.spans_recorded", "count"},
      {"obs.spans_dropped", "count"},
      {"obs.traces_dropped", "count"},
      {"gen.late_p99_us", "us"},
      {"gen.late_max_us", "us"},
      {"proc.threads", "count"},
  };
  return names;
}

}  // namespace perfbench
