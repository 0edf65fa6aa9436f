#include "layers.h"

#include <algorithm>

#include "tps/batch.h"
#include "tps/codec.h"
#include "util/dedup_ring.h"

namespace perfbench {
namespace {

using p2p::util::Bytes;

constexpr int kRounds = 7;
constexpr std::size_t kEventsPerRound = 64;

// Median over kRounds of the ns per call of `fn(i)` for i in [0, ops), after
// one warm-up round; `allocs` receives the allocations per call.
template <typename Fn>
double ns_per_call(std::size_t ops, Fn&& fn, double* allocs) {
  for (std::size_t i = 0; i < ops; ++i) fn(i);
  std::vector<double> rounds;
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < ops; ++i) fn(i);
    rounds.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(ops));
  }
  const std::uint64_t n = count_allocs([&] {
    for (std::size_t i = 0; i < ops; ++i) fn(i);
  });
  *allocs = static_cast<double>(n) / static_cast<double>(ops);
  return median(rounds);
}

const p2p::util::DecodeLimits kLimits{};

// codec.<name>.* on `events`, each already a serial::Event.
void measure_codec(Result& r, const p2p::tps::Codec& codec,
                   const std::vector<std::shared_ptr<const p2p::serial::Event>>&
                       events) {
  const auto& registry = p2p::serial::TypeRegistry::global();
  std::vector<std::shared_ptr<const Bytes>> encoded;
  double bytes = 0;
  for (const auto& e : events) {
    encoded.push_back(std::make_shared<const Bytes>(codec.encode(registry, *e)));
    bytes += static_cast<double>(encoded.back()->size());
  }
  const std::string prefix = "codec." + std::string(codec.name()) + ".";
  double allocs = 0;
  Bytes sink;
  r.set(prefix + "encode_ns",
        ns_per_call(events.size(),
                    [&](std::size_t i) { sink = codec.encode(registry, *events[i]); },
                    &allocs));
  r.set(prefix + "encode_allocs", allocs);
  bool all_ok = true;
  r.set(prefix + "decode_ns",
        ns_per_call(events.size(),
                    [&](std::size_t i) {
                      all_ok &= codec.decode(registry, encoded[i], kLimits).ok();
                    },
                    &allocs));
  r.set(prefix + "decode_allocs", allocs);
  r.set(prefix + "bytes_per_event", bytes / static_cast<double>(events.size()));
  if (!all_ok) r.violation(prefix + "decode failed on the workload's events");
}

// batch.* : frames of `burst` binary payloads, as the batched send path
// builds them.
void measure_batch(Result& r,
                   const std::vector<std::shared_ptr<const p2p::serial::Event>>&
                       events,
                   std::size_t burst) {
  const auto& registry = p2p::serial::TypeRegistry::global();
  p2p::util::Rng rng(events.size());
  std::vector<p2p::tps::BatchItem> items;
  for (std::size_t i = 0; i < burst; ++i) {
    items.push_back({p2p::util::Uuid::generate(rng),
                     std::make_shared<const Bytes>(p2p::tps::binary_codec().encode(
                         registry, *events[i % events.size()]))});
  }
  const Bytes frame = p2p::tps::encode_batch_frame(items);
  double allocs = 0;
  Bytes sink;
  const double b = static_cast<double>(burst);
  r.set("batch.encode_ns_per_event",
        ns_per_call(kEventsPerRound / 4,
                    [&](std::size_t) { sink = p2p::tps::encode_batch_frame(items); },
                    &allocs) /
            b);
  r.set("batch.encode_allocs_per_event", allocs / b);
  bool all_ok = true;
  r.set("batch.decode_ns_per_event",
        ns_per_call(kEventsPerRound / 4,
                    [&](std::size_t) {
                      all_ok &= p2p::tps::try_decode_batch_frame(frame).items.size() ==
                                burst;
                    },
                    &allocs) /
            b);
  r.set("batch.decode_allocs_per_event", allocs / b);
  r.set("batch.events_per_frame", b);
  if (!all_ok) r.violation("batch frame did not round-trip");
}

}  // namespace

void measure_static_layers(Result& r, const SkiEvents& events,
                           std::size_t burst) {
  using p2p::events::SkiRental;
  using Traits = p2p::serial::EventTraits<SkiRental>;
  p2p::serial::register_event_with_ancestors<SkiRental>();
  std::vector<std::shared_ptr<const p2p::serial::Event>> objects;
  std::vector<Bytes> bodies;
  for (std::size_t i = 0; i < kEventsPerRound; ++i) {
    auto e = std::make_shared<const SkiRental>(events.make(i));
    p2p::util::ByteWriter w;
    Traits::encode(*e, w);
    bodies.push_back(w.take());
    objects.push_back(std::move(e));
  }
  double allocs = 0;
  r.set("serial.encode_ns",
        ns_per_call(objects.size(),
                    [&](std::size_t i) {
                      p2p::util::ByteWriter w;
                      Traits::encode(static_cast<const SkiRental&>(*objects[i]), w);
                      bodies[i] = w.take();
                    },
                    &allocs));
  r.set("serial.encode_allocs", allocs);
  bool all_ok = true;
  r.set("serial.decode_ns",
        ns_per_call(objects.size(),
                    [&](std::size_t i) {
                      p2p::util::ByteReader reader(bodies[i]);
                      std::uint64_t seq = 0;
                      all_ok &= events.check(Traits::decode(reader), &seq) &&
                                seq == i;
                    },
                    &allocs));
  r.set("serial.decode_allocs", allocs);
  if (!all_ok) r.violation("EventTraits<SkiRental> did not round-trip");
  measure_codec(r, p2p::tps::xml_codec(), objects);
  measure_codec(r, p2p::tps::binary_codec(), objects);
  measure_batch(r, objects, burst);
}

void measure_dynamic_layers(Result& r, const DynEvents& events,
                            std::size_t burst) {
  p2p::tps::register_dynamic_event_type(DynEvents::kType, {});
  std::vector<std::shared_ptr<const p2p::serial::Event>> objects;
  for (std::size_t i = 0; i < kEventsPerRound; ++i) {
    objects.push_back(std::make_shared<const p2p::tps::DynamicEvent>(events.make(i)));
  }
  measure_codec(r, p2p::tps::xml_codec(), objects);
  measure_codec(r, p2p::tps::binary_codec(), objects);
  measure_batch(r, objects, burst);
}

void measure_dedup(Result& r, std::uint64_t seed, std::size_t capacity) {
  p2p::util::Rng rng(seed);
  std::vector<p2p::util::Uuid> ids(4 * capacity);
  for (auto& id : ids) id = p2p::util::Uuid::generate(rng);
  p2p::util::DedupRing ring(capacity);
  std::uint64_t duplicates = 0;
  double allocs = 0;
  r.set("util.dedup_ns_per_op",
        ns_per_call(ids.size(),
                    [&](std::size_t i) { duplicates += ring.test_and_set(ids[i]); },
                    &allocs));
  r.set("util.dedup_allocs_per_op", allocs);
  // Every pass after the first replays ids evicted long ago: none may read
  // as a duplicate.
  if (duplicates != 0) r.violation("dedup ring reported a false duplicate");
}

p2p::tps::TpsStats sum_stats(const std::vector<p2p::tps::TpsStats>& all) {
  p2p::tps::TpsStats s;
  for (const auto& t : all) {
    s.published += t.published;
    s.wire_sends += t.wire_sends;
    s.received_unique += t.received_unique;
    s.duplicates_suppressed += t.duplicates_suppressed;
    s.decode_failures += t.decode_failures;
    s.callback_errors += t.callback_errors;
    s.codec_fallbacks += t.codec_fallbacks;
    s.batches_sent += t.batches_sent;
    s.batched_events += t.batched_events;
    s.encode_cache_hits += t.encode_cache_hits;
    s.publish_drops += t.publish_drops;
    s.send_queue_hwm = std::max(s.send_queue_hwm, t.send_queue_hwm);
    s.deliveries_inline += t.deliveries_inline;
    s.deliveries_pooled += t.deliveries_pooled;
    s.delivery_drops += t.delivery_drops;
    s.delivery_queue_hwm = std::max(s.delivery_queue_hwm, t.delivery_queue_hwm);
    s.dedup_probes += t.dedup_probes;
  }
  return s;
}

namespace {

void report_tps(Result& r, const p2p::tps::TpsStats& before,
                const p2p::tps::TpsStats& after) {
  const auto d = [](std::uint64_t b, std::uint64_t a) {
    return static_cast<double>(a - b);
  };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double batches = d(before.batches_sent, after.batches_sent);
  r.set("tps.batch_size_mean",
        ratio(d(before.batched_events, after.batched_events), batches));
  const double dups = d(before.duplicates_suppressed, after.duplicates_suppressed);
  const double arrivals = dups + d(before.received_unique, after.received_unique);
  r.set("tps.dup_suppressed_ratio", ratio(dups, arrivals));
  r.set("tps.dup_suppressed_base", arrivals);
  const double published = d(before.published, after.published);
  r.set("tps.encode_cache_hit_ratio",
        ratio(d(before.encode_cache_hits, after.encode_cache_hits), published));
  r.set("tps.encode_cache_base", published);
  r.set("tps.send_queue_hwm", static_cast<double>(after.send_queue_hwm));
  r.set("tps.delivery_queue_hwm", static_cast<double>(after.delivery_queue_hwm));
  const double drops = d(before.publish_drops, after.publish_drops) +
                       d(before.delivery_drops, after.delivery_drops);
  r.set("tps.drops", drops);
  r.set("tps.codec_fallbacks", static_cast<double>(after.codec_fallbacks));
  if (drops > 0) r.violation("tps dropped events in the window");
  if (after.codec_fallbacks > 0) r.violation("tps fell back from the configured codec");
  if (after.decode_failures > 0) r.violation("tps decode failures");
  if (after.callback_errors > 0) r.violation("tps callback errors");
}

void report_registries(Result& r, const RegistryWindow& w, double deliveries) {
  const auto deltas = w.deltas();
  const auto per = [&](const char* name) {
    return per_delivery(static_cast<double>(sum_counter(deltas, name)), deliveries);
  };
  r.set("jxta.rdv.forwards_per_event", per("jxta.rdv.propagations_forwarded"));
  r.set("jxta.rdv.dups_per_event", per("jxta.rdv.duplicates_suppressed"));
  r.set("jxta.wire.received_per_delivered", per("jxta.wire.received"));
  r.set("jxta.resolver.queries_in_window",
        static_cast<double>(sum_counter(deltas, "jxta.resolver.queries_sent")));
  r.set("net.loop_wakeups_per_event", per("net.loop_wakeups"));
  r.set("net.timers_fired_per_event", per("net.timers_fired"));
  r.set("net.send_queue_bytes_hwm",
        static_cast<double>(max_gauge(w.after, "net.send_queue_bytes_hwm")));
  const auto send_drops = sum_counter(w.after, "net.send_drops");
  const auto frame_errors = sum_counter(w.after, "net.frame_errors");
  r.set("net.send_drops", static_cast<double>(send_drops));
  r.set("net.frame_errors", static_cast<double>(frame_errors));
  r.set("net.connections_active",
        static_cast<double>(sum_counter(w.after, "net.connections_active")));
  r.set("obs.traces_dropped",
        static_cast<double>(sum_counter(deltas, "obs.traces_dropped")));
  if (send_drops > 0) r.violation("net send drops");
  if (frame_errors > 0) r.violation("net frame errors");
}

}  // namespace

std::vector<p2p::obs::Snapshot> RegistryWindow::deltas() const {
  std::vector<p2p::obs::Snapshot> out;
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i) {
    out.push_back(p2p::obs::diff(before[i], after[i]));
  }
  return out;
}

void report_end_to_end(Result& r, const SetUps& s, std::size_t peers, const Window& w) {
  r.set("setup_s", median(s.seconds));
  r.set("delivered_eps", w.wall_s > 0 ? w.deliveries / w.wall_s : 0);
  r.set("latency_p50_us", w.latency_p50_us);
  r.set("latency_p90_us", w.latency_p90_us);
  r.set("publish_call_p50_us", w.publish_call_p50_us);
  r.set("publish_call_p90_us", w.publish_call_p90_us);
  r.set("cpu_us_per_event", w.cpu_us_per_event());
  r.set("allocs_per_event", per_delivery(w.allocs, w.deliveries));
  const auto deltas = w.registries.deltas();
  r.set("wire_msgs_per_event",
        per_delivery(static_cast<double>(sum_counter(deltas, "net.msgs_sent")), w.deliveries));
  r.set("wire_bytes_per_event",
        per_delivery(static_cast<double>(sum_counter(deltas, "net.bytes_sent")), w.deliveries));
  r.set("rss_kb_per_peer", s.rss_growth_kb / static_cast<double>(peers));
}

void report_window(Result& r, const Window& w) {
  report_tps(r, w.stats_before, w.stats_after);
  report_registries(r, w.registries, w.deliveries);
}

void report_probe(Result& r, const Probe& probe) {
  r.set("tps.inflight_p50_us", probe.inflight.percentile_us(50));
  r.set("tps.inflight_p90_us", probe.inflight.percentile_us(90));
  r.set("tps.callback_p50_us", probe.callback.percentile_us(50));
  r.set("proc.threads", proc_threads());
}

void report_trace_overhead(Result& r, const Window& untraced, const Window& traced) {
  const double cpu = untraced.cpu_us_per_event();
  const double traced_cpu = traced.cpu_us_per_event();
  const double lat = untraced.latency_p50_us;
  const double traced_lat = traced.latency_p50_us;
  r.set("obs.untraced_cpu_us_per_event", cpu);
  r.set("obs.traced_cpu_us_per_event", traced_cpu);
  r.set("obs.bench_trace_overhead.cpu", cpu > 0 ? traced_cpu / cpu : 0);
  r.set("obs.untraced_latency_p50_us", lat);
  r.set("obs.traced_latency_p50_us", traced_lat);
  r.set("obs.bench_trace_overhead.latency_p50", lat > 0 ? traced_lat / lat : 0);
  r.set("obs.spans_recorded", static_cast<double>(Spans::instance().recorded()));
  r.set("obs.spans_dropped", static_cast<double>(Spans::instance().dropped()));
}

}  // namespace perfbench
