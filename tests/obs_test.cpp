// Tests for the observability subsystem (src/obs/): the metrics registry
// (handles, concurrency, snapshots, exposition), the trace-hop codec and
// Tracer, and the end-to-end acceptance path — one TPS publish leaves a
// multi-hop trace on the subscriber and registry-sourced traffic counters
// visible group-wide through PIP/MonitoringService.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "events/ski_rental.h"
#include "jxta/message.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "support/test_net.h"
#include "tps/tps.h"

namespace p2p::obs {
namespace {

using events::SkiRental;
using p2p::testing::TestNet;
using p2p::testing::wait_until;

// --- metrics registry --------------------------------------------------------

TEST(MetricsTest, CounterGaugeBasics) {
  Registry reg;
  const Counter c = reg.counter("a.count");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same cell.
  EXPECT_EQ(reg.counter("a.count").value(), 42u);

  const Gauge g = reg.gauge("a.level");
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
}

TEST(MetricsTest, UnboundHandlesAreSafeNoOps) {
  // Default-constructed handles hit process-wide scratch cells — they must
  // never crash, whatever the call.
  const Counter c;
  const Gauge g;
  const Histogram h;
  c.inc();
  g.set(1);
  g.add(2);
  h.record(3.0);
}

TEST(MetricsTest, ConcurrentCounterIncrementsSumExactly) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      const Counter c = reg.counter("contended");
      for (int i = 0; i < kIncsPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("contended").value(),
            static_cast<std::uint64_t>(kThreads) * kIncsPerThread);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  Registry reg;
  const Histogram h = reg.histogram("lat", {10.0, 100.0});
  h.record(5);    // <= 10
  h.record(10);   // boundary value lands in its own bucket (le semantics)
  h.record(11);   // <= 100
  h.record(100);  // <= 100
  h.record(101);  // +inf
  const Snapshot snap = reg.snapshot();
  const MetricValue* v = snap.find("lat");
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->kind, MetricValue::Kind::kHistogram);
  ASSERT_EQ(v->histogram.counts.size(), 3u);
  EXPECT_EQ(v->histogram.counts[0], 2u);
  EXPECT_EQ(v->histogram.counts[1], 2u);
  EXPECT_EQ(v->histogram.counts[2], 1u);
  EXPECT_EQ(v->histogram.count, 5u);
  EXPECT_DOUBLE_EQ(v->histogram.sum, 5 + 10 + 11 + 100 + 101);
}

TEST(MetricsTest, SnapshotDiffSemantics) {
  Registry reg;
  const Counter c = reg.counter("msgs");
  const Gauge g = reg.gauge("depth");
  const Histogram h = reg.histogram("lat", {10.0});
  c.inc(3);
  g.set(5);
  h.record(1);
  const Snapshot before = reg.snapshot();

  c.inc(4);
  g.set(9);
  h.record(1);
  h.record(50);
  const Counter fresh = reg.counter("fresh");
  fresh.inc(2);
  const Snapshot after = reg.snapshot();

  const Snapshot d = diff(before, after);
  // Counters subtract.
  EXPECT_EQ(d.counter("msgs"), 4u);
  // Metrics absent from `before` pass through whole.
  EXPECT_EQ(d.counter("fresh"), 2u);
  // Gauges keep the `after` value (a level, not a rate).
  ASSERT_NE(d.find("depth"), nullptr);
  EXPECT_EQ(d.find("depth")->gauge, 9);
  // Histogram buckets subtract.
  const MetricValue* lat = d.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->histogram.counts[0], 1u);
  EXPECT_EQ(lat->histogram.counts[1], 1u);
  EXPECT_EQ(lat->histogram.count, 2u);
}

TEST(MetricsTest, JsonAndPrometheusExposition) {
  Registry reg;
  reg.counter("net.msgs_sent").inc(3);
  reg.gauge("rdv.clients").set(2);
  reg.histogram("tps.publish_latency_us", {100.0}).record(42);
  const Snapshot snap = reg.snapshot();

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"net.msgs_sent\":{\"type\":\"counter\",\"value\":3}"),
            std::string::npos);
  EXPECT_NE(json.find("\"rdv.clients\":{\"type\":\"gauge\",\"value\":2}"),
            std::string::npos);
  EXPECT_NE(json.find("\"tps.publish_latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+inf\""), std::string::npos);

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("net_msgs_sent 3"), std::string::npos);
  EXPECT_NE(prom.find("rdv_clients 2"), std::string::npos);
  // Cumulative buckets with the +Inf bucket equal to _count.
  EXPECT_NE(prom.find("tps_publish_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("tps_publish_latency_us_count 1"), std::string::npos);
}

// --- trace codec + Tracer ----------------------------------------------------

TEST(TraceTest, HopCodecRoundTrip) {
  const std::vector<Hop> hops = {
      {"urn:jxta:peer:aa", "publish", 1000},
      {"urn:jxta:peer:aa", "wire-send", 1010},
      {"urn:jxta:peer:bb", "wire-recv", 2500},
      {"urn:jxta:peer:bb", "deliver", 2600},
  };
  EXPECT_EQ(decode_hops(encode_hops(hops)), hops);
  EXPECT_TRUE(decode_hops(encode_hops({})).empty());
}

TEST(TraceTest, StartAppendExtractOnMessage) {
  jxta::Message msg;
  const util::Uuid id = start_trace(msg, "peerA", "publish", 100);
  EXPECT_FALSE(id.is_nil());
  EXPECT_TRUE(append_hop(msg, "peerA", "wire-send", 110));

  // The trace id survives dup() — unlike the message id, which dup()
  // refreshes — so the path stays stitchable across re-wrapping.
  jxta::Message copy = msg.dup();
  EXPECT_TRUE(append_hop(copy, "peerB", "wire-recv", 300));

  const auto trace = extract_trace(copy);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->id, id);
  ASSERT_EQ(trace->hops.size(), 3u);
  EXPECT_EQ(trace->hops[0].stage, "publish");
  EXPECT_EQ(trace->hops[1].stage, "wire-send");
  EXPECT_EQ(trace->hops[2].stage, "wire-recv");
  EXPECT_EQ(trace->hops[2].peer, "peerB");

  // Restarting a trace on an already-traced message keeps the id.
  EXPECT_EQ(start_trace(copy, "peerB", "re-publish", 400), id);
}

TEST(TraceTest, UntracedMessageYieldsNothing) {
  jxta::Message msg;
  msg.add_string("payload", "x");
  EXPECT_FALSE(append_hop(msg, "peerA", "wire-send", 1));
  EXPECT_FALSE(extract_trace(msg).has_value());
}

TEST(TraceTest, HopCountIsBounded) {
  jxta::Message msg;
  start_trace(msg, "p", "publish", 0);
  for (std::size_t i = 1; i < kMaxHops; ++i) {
    EXPECT_TRUE(append_hop(msg, "p", "hop", static_cast<std::int64_t>(i)));
  }
  // The list is full: a routing loop cannot grow the message further.
  EXPECT_FALSE(append_hop(msg, "p", "hop", 999));
  EXPECT_EQ(extract_trace(msg)->hops.size(), kMaxHops);
}

TEST(TraceTest, TracerKeepsNewestUpToCapacity) {
  Tracer tracer(2);
  const util::Uuid a = util::Uuid::derive("a");
  const util::Uuid b = util::Uuid::derive("b");
  const util::Uuid c = util::Uuid::derive("c");
  tracer.record(Trace{a, {}});
  tracer.record(Trace{b, {}});
  tracer.record(Trace{c, {}});
  EXPECT_EQ(tracer.recorded(), 3u);
  EXPECT_EQ(tracer.recent().size(), 2u);
  EXPECT_FALSE(tracer.find(a).has_value());  // evicted
  EXPECT_TRUE(tracer.find(b).has_value());
  EXPECT_TRUE(tracer.find(c).has_value());
}

TEST(TraceTest, TracerCountsEvictionsInRegistry) {
  Registry reg;
  Tracer tracer(3, reg.counter("obs.traces_dropped"));
  EXPECT_EQ(tracer.capacity(), 3u);
  for (int i = 0; i < 8; ++i) {
    tracer.record(Trace{util::Uuid::derive(std::to_string(i)), {}});
  }
  EXPECT_EQ(tracer.recorded(), 8u);
  EXPECT_EQ(tracer.recent().size(), 3u);
  EXPECT_EQ(tracer.dropped(), 5u);
  EXPECT_EQ(reg.snapshot().counter("obs.traces_dropped"), 5u);
}

// --- span-timeline exporter --------------------------------------------------

TEST(TimelineTest, EmitsCompleteSpansPerHopPair) {
  Trace trace;
  trace.id = util::Uuid::derive("t");
  trace.hops = {
      {"peerA", "publish", 1000},
      {"peerA", "wire-send", 1100},
      {"peerB", "deliver", 2500},
  };
  const std::string json = timeline_json({trace}, {});
  // Chrome-trace envelope.
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One "X" complete span per consecutive hop pair, named stage->stage.
  EXPECT_NE(json.find("\"publish->wire-send\""), std::string::npos);
  EXPECT_NE(json.find("\"wire-send->deliver\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Span start is the earlier hop's stamp; duration is the gap.
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1400"), std::string::npos);
  // Peers become named processes.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("peerA"), std::string::npos);
  EXPECT_NE(json.find("peerB"), std::string::npos);
}

TEST(TimelineTest, EmitsFlightRecordsAsInstants) {
  FlightRecord record;
  record.t_us = 42;
  record.thread = 7;
  record.component = FlightComponent::kDelivery;
  record.kind = FlightKind::kDequeue;
  record.arg = 99;
  const std::string json = timeline_json({}, {record});
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":42"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
  EXPECT_NE(json.find("flight-recorder"), std::string::npos);
  EXPECT_NE(json.find(to_string(FlightKind::kDequeue)), std::string::npos);
}

// --- end-to-end acceptance ---------------------------------------------------

// One TPS publish crosses two peers; afterwards (a) the subscriber's Tracer
// holds the full path with per-hop timestamps, and (b) a third monitoring
// peer observes non-zero registry-sourced traffic counters from BOTH peers
// through the PIP sweep. Everything via public APIs.
TEST(ObsIntegrationTest, PublishLeavesTraceAndGroupWideCounters) {
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");
  jxta::Peer& bob = net.add_peer("bob");
  jxta::Peer& monitor = net.add_peer("monitor");

  tps::TpsConfig config;
  config.adv_search_timeout = std::chrono::milliseconds(300);
  config.finder_period = std::chrono::milliseconds(150);
  tps::TpsEngine<SkiRental> engine_a(alice, config);
  auto sub = engine_a.new_interface();
  std::atomic<int> received{0};
  sub.subscribe(
      tps::make_callback<SkiRental>([&](const SkiRental&) { ++received; }),
      tps::ignore_exceptions<SkiRental>());
  tps::TpsEngine<SkiRental> engine_b(bob, config);
  auto pub = engine_b.new_interface();
  pub.publish(SkiRental("Shop", 14.0f, "Brand", 99.0f));
  ASSERT_TRUE(wait_until([&] { return received > 0; }));

  // (a) the delivered event left a complete multi-peer trace on alice.
  ASSERT_TRUE(wait_until([&] { return alice.tracer().recorded() > 0; }));
  const auto traces = alice.tracer().recent();
  ASSERT_FALSE(traces.empty());
  const Trace& trace = traces.back();
  ASSERT_GE(trace.hops.size(), 2u);
  EXPECT_EQ(trace.hops.front().stage, "publish");
  EXPECT_EQ(trace.hops.front().peer, bob.id().to_string());
  EXPECT_EQ(trace.hops.back().stage, "deliver");
  EXPECT_EQ(trace.hops.back().peer, alice.id().to_string());
  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    EXPECT_GT(trace.hops[i].t_us, 0) << "hop " << i << " missing timestamp";
    if (i > 0) {
      EXPECT_GE(trace.hops[i].t_us, trace.hops[i - 1].t_us)
          << "hop " << i << " goes backwards in time";
    }
  }

  // (b) both peers' registries feed their PIP answers: a sweep from the
  // monitor sees non-zero message/byte counters for alice AND bob.
  const auto live_traffic = [&](const jxta::Peer& peer) {
    const auto status = monitor.monitoring().status_of(peer.id());
    return status.has_value() && status->info.traffic.msgs_sent > 0 &&
           status->info.traffic.bytes_sent > 0 &&
           status->info.traffic.msgs_received > 0 &&
           status->info.traffic.bytes_received > 0;
  };
  ASSERT_TRUE(wait_until([&] {
    monitor.monitoring().sweep();
    return live_traffic(alice) && live_traffic(bob);
  }));
  EXPECT_GE(monitor.monitoring().statuses().size(), 2u);

  // The counters the sweep reported really came from the registries.
  EXPECT_GT(bob.metrics().snapshot().counter("tps.published"), 0u);
  EXPECT_GT(alice.metrics().snapshot().counter("tps.received_unique"), 0u);
  EXPECT_GT(bob.metrics().snapshot().counter("net.msgs_sent"), 0u);
  EXPECT_GT(alice.metrics().snapshot().counter("net.msgs_received"), 0u);
}

// Trace hops must survive the v2 batch framing: events coalesced into one
// tps:batch frame still deliver a complete trace on the subscriber, with
// the extra "batch" stage marking the coalescing point.
TEST(ObsIntegrationTest, TraceSurvivesBatchFrameRoundTrip) {
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");
  jxta::Peer& bob = net.add_peer("bob");

  tps::TpsConfig config;
  config.adv_search_timeout = std::chrono::milliseconds(300);
  config.finder_period = std::chrono::milliseconds(150);
  config.batching = true;
  config.batch_max_events = 8;
  // A long linger so a burst of publishes reliably coalesces into one frame.
  config.batch_max_age = std::chrono::milliseconds(50);
  tps::TpsEngine<SkiRental> engine_a(alice, config);
  auto sub = engine_a.new_interface();
  std::atomic<int> received{0};
  sub.subscribe(
      tps::make_callback<SkiRental>([&](const SkiRental&) { ++received; }),
      tps::ignore_exceptions<SkiRental>());
  tps::TpsEngine<SkiRental> engine_b(bob, config);
  auto pub = engine_b.new_interface();

  constexpr int kEvents = 8;
  for (int i = 0; i < kEvents; ++i) {
    pub.publish(SkiRental("Shop", static_cast<float>(i), "Brand", 99.0f));
  }
  ASSERT_TRUE(wait_until([&] { return received >= kEvents; }));
  // The burst really used the batch path.
  ASSERT_TRUE(wait_until([&] {
    return bob.metrics().snapshot().counter("tps.batches_sent") > 0;
  }));

  // At least one recorded trace carries the batch stage, and its hop chain
  // is intact end to end.
  ASSERT_TRUE(wait_until([&] { return alice.tracer().recorded() > 0; }));
  const auto has_stage = [](const Trace& trace, const std::string& stage) {
    for (const Hop& hop : trace.hops) {
      if (hop.stage == stage) return true;
    }
    return false;
  };
  std::optional<Trace> batched;
  ASSERT_TRUE(wait_until([&] {
    for (const Trace& trace : alice.tracer().recent()) {
      if (has_stage(trace, "batch")) {
        batched = trace;
        return true;
      }
    }
    return false;
  }));
  EXPECT_EQ(batched->hops.front().stage, "publish");
  EXPECT_EQ(batched->hops.front().peer, bob.id().to_string());
  EXPECT_TRUE(has_stage(*batched, "decode"));
  EXPECT_EQ(batched->hops.back().stage, "deliver");
  EXPECT_EQ(batched->hops.back().peer, alice.id().to_string());
  for (std::size_t i = 1; i < batched->hops.size(); ++i) {
    EXPECT_GE(batched->hops[i].t_us, batched->hops[i - 1].t_us);
  }
  // The batch stage sits publisher-side, after publish.
  ASSERT_GE(batched->hops.size(), 4u);
  EXPECT_EQ(batched->hops[1].stage, "batch");
  EXPECT_EQ(batched->hops[1].peer, bob.id().to_string());
}

// A session bumps each TpsStats slot and its tps.* registry cell in one
// call, so on a peer that hosts one session the two agree after mixed
// traffic: sync and batched publishes, encode-cache hits, a throwing
// callback, a duplicate copy and a malformed frame.
TEST(ObsIntegrationTest, TpsStatsMatchRegistryDeltas) {
  TestNet net;
  jxta::Peer& alice = net.add_peer("alice");  // pooled subscriber
  jxta::Peer& bob = net.add_peer("bob");      // synchronous publisher
  jxta::Peer& carol = net.add_peer("carol");  // batching publisher
  const Snapshot alice_before = alice.metrics().snapshot();
  const Snapshot bob_before = bob.metrics().snapshot();
  const Snapshot carol_before = carol.metrics().snapshot();

  const auto builder = [] {
    return tps::TpsConfig::Builder()
        .adv_search_timeout(std::chrono::milliseconds(3000))
        .finder_period(std::chrono::milliseconds(150));
  };
  tps::TpsEngine<SkiRental> engine_a(
      alice, builder().adv_search_timeout(std::chrono::milliseconds(300))
                 .delivery_pool(2)
                 .build());
  auto sub = engine_a.new_interface();
  std::atomic<int> received{0};
  auto handle = sub.subscribe(
      [&](const SkiRental&) {
        if (received++ == 0) throw std::runtime_error("first one fails");
      },
      [](std::exception_ptr) {});
  tps::TpsEngine<SkiRental> engine_b(bob, builder().encode_cache(8).build());
  auto sync_pub = engine_b.new_interface();
  tps::TpsEngine<SkiRental> engine_c(
      carol,
      builder().batching(8, std::chrono::milliseconds(50)).build());
  auto batch_pub = engine_c.new_interface();
  ASSERT_EQ(sync_pub.advertisement_count(), 1u);
  ASSERT_EQ(batch_pub.advertisement_count(), 1u);

  // A raw pipe on the type's wire, to capture a frame and to inject.
  const auto advs = alice.discovery().get_local(jxta::DiscoveryType::kGroup,
                                                "Name", "PS_SkiRental");
  ASSERT_EQ(advs.size(), 1u);
  const auto* group_adv =
      dynamic_cast<const jxta::PeerGroupAdvertisement*>(advs[0].get());
  ASSERT_NE(group_adv, nullptr);
  auto group = alice.create_group(*group_adv);
  const auto pipe = *group_adv->service(jxta::WireService::kWireName)->pipe;
  auto raw_in = group->wire().create_input_pipe(pipe);
  auto raw_out = group->wire().create_output_pipe(pipe);

  const auto repeated = std::make_shared<const SkiRental>("S", 1, "B", 1);
  sync_pub.publish(repeated);
  sync_pub.publish(repeated);  // an encode-cache hit
  sync_pub.publish(SkiRental("S", 2, "B", 1));
  for (int i = 0; i < 4; ++i) {
    batch_pub.publish(SkiRental("S", 10.0f + i, "B", 1));
  }
  batch_pub.flush();
  ASSERT_TRUE(wait_until([&] { return received == 7; }));

  const auto copy = raw_in->poll(std::chrono::milliseconds(3000));
  ASSERT_TRUE(copy.has_value());
  raw_out->send(copy->dup());  // same event id: a duplicate everywhere
  jxta::Message junk;
  junk.add_bytes("tps:event", {0xde, 0xad});
  raw_out->send(junk);  // no event id: a decode failure everywhere
  const auto settled = [](const tps::TpsInterface<SkiRental>& tps) {
    const tps::TpsStats stats = tps.stats();
    return stats.received_unique == 7 && stats.duplicates_suppressed >= 1 &&
           stats.decode_failures >= 1;
  };
  ASSERT_TRUE(wait_until([&] {
    return settled(sub) && settled(sync_pub) && settled(batch_pub);
  }));
  sub.flush();

  // Every TpsStats field but batched_events, which has no registry cell.
  const auto mismatches = [](const tps::TpsStats& s, const Snapshot& before,
                             const Snapshot& after) {
    const Snapshot delta = diff(before, after);
    const auto gauge = [&](const std::string& name) -> std::uint64_t {
      const MetricValue* v = delta.find(name);
      return v != nullptr ? static_cast<std::uint64_t>(v->gauge) : 0;
    };
    const std::pair<std::uint64_t, std::uint64_t> pairs[] = {
        {s.published, delta.counter("tps.published")},
        {s.wire_sends, delta.counter("tps.wire_sends")},
        {s.received_unique, delta.counter("tps.received_unique")},
        {s.duplicates_suppressed, delta.counter("tps.duplicates_suppressed")},
        {s.decode_failures, delta.counter("tps.decode_failures")},
        {s.callback_errors, delta.counter("tps.callback_errors")},
        {s.codec_fallbacks, delta.counter("tps.codec_fallbacks")},
        {s.batches_sent, delta.counter("tps.batches_sent")},
        {s.encode_cache_hits, delta.counter("tps.encode_cache_hits")},
        {s.publish_drops, delta.counter("tps.publish_drops")},
        {s.send_queue_hwm, gauge("tps.send_queue_hwm")},
        {s.deliveries_inline, delta.counter("tps.deliveries_inline")},
        {s.deliveries_pooled, delta.counter("tps.deliveries_pooled")},
        {s.delivery_drops, delta.counter("tps.delivery_drops")},
        {s.delivery_queue_hwm, gauge("tps.delivery_queue_hwm")},
        {s.dedup_probes, delta.counter("tps.dedup_probe_depth")},
    };
    std::string out;
    for (std::size_t i = 0; i < std::size(pairs); ++i) {
      if (pairs[i].first != pairs[i].second) {
        out += "field " + std::to_string(i) + ": stats " +
               std::to_string(pairs[i].first) + " vs registry " +
               std::to_string(pairs[i].second) + "; ";
      }
    }
    return out;
  };
  const std::tuple<const char*, const tps::TpsInterface<SkiRental>*,
                   jxta::Peer*, const Snapshot*>
      peers[] = {{"alice", &sub, &alice, &alice_before},
                 {"bob", &sync_pub, &bob, &bob_before},
                 {"carol", &batch_pub, &carol, &carol_before}};
  for (const auto& [name, tps, peer, before] : peers) {
    std::string last;
    EXPECT_TRUE(wait_until([&] {
      last = mismatches(tps->stats(), *before, peer->metrics().snapshot());
      return last.empty();
    })) << name << ": " << last;
  }

  // The traffic really reached every field it should have.
  const tps::TpsStats a = sub.stats();
  EXPECT_EQ(a.callback_errors, 1u);
  EXPECT_EQ(a.deliveries_pooled, 7u);
  EXPECT_GE(a.delivery_queue_hwm, 1u);
  EXPECT_GT(a.dedup_probes, 0u);
  const tps::TpsStats b = sync_pub.stats();
  EXPECT_EQ(b.published, 3u);
  EXPECT_EQ(b.wire_sends, 3u);
  EXPECT_EQ(b.encode_cache_hits, 1u);
  EXPECT_EQ(b.deliveries_inline, 0u);  // bob's session has no subscriber
  const tps::TpsStats c = batch_pub.stats();
  EXPECT_EQ(c.published, 4u);
  EXPECT_GE(c.batches_sent, 1u);
  EXPECT_GE(c.send_queue_hwm, 1u);
}

}  // namespace
}  // namespace p2p::obs
