// The measuring frame shared by the workloads: the set-up loop, the measured
// window and the end-to-end metrics drawn from it, and the per-layer
// measurements: isolated calls into the serial, codec, batch and dedup
// layers on a workload's own events, and the session and registry counters
// of a window.
#pragma once

#include <memory>
#include <vector>

#include "common.h"
#include "tps/session.h"
#include "workload_events.h"

namespace perfbench {

// --- set-up ------------------------------------------------------------------------

struct SetUps {
  std::vector<double> seconds;  // one per world built
  double rss_growth_kb = 0;     // across the first
};

// Set-ups in a run's first second are built and checked but not timed: on
// the guest this was tuned on, a fresh process ran them up to 1.6x slower
// for its first 0.2 to 0.4 s, a phase whose length varied from run to run.
// The timed ones then go on for at least two seconds: medians of 20
// consecutive set-ups wandered by about 10% from one 0.2 s stretch to the
// next.
inline constexpr std::int64_t kSetUpWarmupNs = 1'000'000'000;
inline constexpr std::int64_t kSetUpTimedNs = 2'000'000'000;

// Builds worlds with make(i, last), each replacing the one before, until at
// least `min_count` have been timed after the warm-up and the timed ones
// have taken kSetUpTimedNs; `last` is true for the final one, which stays
// in `world`. Worlds are built as the system (see as_system), so the
// threads they start run below the driving thread. RSS growth is read on
// the first, before any world's memory is recycled. check(i, world) runs
// after each, untimed.
template <typename World, typename Make, typename Check>
SetUps set_up(int min_count, std::unique_ptr<World>& world, Make&& make, Check&& check) {
  SetUps s;
  const std::int64_t warm_end = now_ns() + kSetUpWarmupNs;
  const std::int64_t timed_end = warm_end + kSetUpTimedNs;
  for (int i = 0;; ++i) {
    const std::int64_t start = now_ns();
    const bool timed = start >= warm_end;
    const bool last = start >= timed_end && static_cast<int>(s.seconds.size()) + 1 >= min_count;
    as_system([&] {
      world.reset();
      const double rss0 = rss_kb();
      const std::int64_t t0 = now_ns();
      world = make(i, last);
      const std::int64_t t1 = now_ns();
      if (timed) s.seconds.push_back(static_cast<double>(t1 - t0) / 1e9);
      if (i == 0) s.rss_growth_kb = rss_kb() - rss0;
    });
    check(i, *world);
    if (last) return s;
  }
}

// --- the measured window -----------------------------------------------------------

// The peers' registries at the start and end of a window.
struct RegistryWindow {
  std::vector<p2p::obs::Snapshot> before;
  std::vector<p2p::obs::Snapshot> after;
  [[nodiscard]] std::vector<p2p::obs::Snapshot> deltas() const;
};

// Everything one measured window yields. Timings cover the whole window.
struct Window {
  double wall_s = 0;
  double cpu_s = 0;  // process user + system
  double allocs = 0;
  double deliveries = 0;
  double latency_p50_us = 0;
  double latency_p90_us = 0;
  double publish_call_p50_us = 0;
  double publish_call_p90_us = 0;
  RegistryWindow registries;
  p2p::tps::TpsStats stats_before;
  p2p::tps::TpsStats stats_after;

  [[nodiscard]] double cpu_us_per_event() const {
    return per_delivery(cpu_s * 1e6, deliveries);
  }
};

// Runs `body` as one measured window of `world`, which provides
// delivered(), snapshots() and stats(). Allocations are counted inside it
// only; the probe's histograms start empty.
template <typename World, typename Body>
Window measure(World& world, Probe& probe, Body&& body) {
  Window w;
  probe.reset();
  w.registries.before = world.snapshots();
  w.stats_before = world.stats();
  const double d0 = static_cast<double>(world.delivered());
  const std::uint64_t a0 = alloc::count();
  const double c0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  alloc::start();
  body();
  alloc::stop();
  w.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  w.cpu_s = process_cpu_s() - c0;
  w.allocs = static_cast<double>(alloc::count() - a0);
  w.deliveries = static_cast<double>(world.delivered()) - d0;
  w.latency_p50_us = probe.latency.percentile_us(50);
  w.latency_p90_us = probe.latency.percentile_us(90);
  w.publish_call_p50_us = probe.publish_call.percentile_us(50);
  w.publish_call_p90_us = probe.publish_call.percentile_us(90);
  w.registries.after = world.snapshots();
  w.stats_after = world.stats();
  return w;
}

// The end-to-end metrics of a window, with wire traffic from the peers'
// net.msgs_sent / net.bytes_sent.
void report_end_to_end(Result& r, const SetUps& s, std::size_t peers, const Window& w);

// tps.* from the window's session stats, jxta.*, net.* and
// obs.traces_dropped from its registries, and the checks on them: no drops,
// codec fallbacks, decode failures, callback errors, send drops or frame
// errors. Every run applies it to its measured window.
void report_window(Result& r, const Window& w);

// tps.inflight_*, tps.callback_p50_us and proc.threads from the probe.
void report_probe(Result& r, const Probe& probe);

// obs.*: traced against untraced cpu_us_per_event and latency_p50_us.
void report_trace_overhead(Result& r, const Window& untraced, const Window& traced);

// --- isolated calls ------------------------------------------------------------------

// serial.* and codec.* on static SkiRental events, batch.* at `burst`.
void measure_static_layers(Result& r, const SkiEvents& events,
                           std::size_t burst);
// codec.* on dynamic events, batch.* at `burst` events per frame.
void measure_dynamic_layers(Result& r, const DynEvents& events,
                            std::size_t burst);
// util.dedup_* : a DedupRing of `capacity` fed a seeded id stream.
void measure_dedup(Result& r, std::uint64_t seed, std::size_t capacity);
// sim.* : the flash crowd of flash_crowd.cpp, streaming for `seconds`, with
// its oracle (exactly-once delivery, determinism key per seed).
void measure_flash_crowd(Result& r, std::uint64_t seed, double seconds);

// Adds the counters of several sessions; high-water marks take the max.
p2p::tps::TpsStats sum_stats(const std::vector<p2p::tps::TpsStats>& all);

}  // namespace perfbench
