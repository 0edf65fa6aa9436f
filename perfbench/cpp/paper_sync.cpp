// paper_sync: the paper's section 5 LAN. One publisher and four subscriber
// peers on the in-process fabric with 0 ms links, the default TpsConfig
// (synchronous publish, xml codec, hop tracing on, inline delivery) and
// static 1910-byte SkiRental events. Closed loop in Fig. 19 epochs: publish
// a block of 10, wait until every subscriber has all of them, and start the
// next epoch when it is due.
//
// The traced run adds a peel of the same load through the harness drivers
// of bench/support/harness.h: JXTA-WIRE, SR-JXTA, SR-TPS and SR-TPS without
// hop tracing, which gives the paper's premium ratios.
#include <optional>

#include "jxta/peer.h"
#include "jxta/wire.h"
#include "layers.h"
#include "util/random.h"
#include "net/fabric.h"
#include "net/inproc_transport.h"
#include "support/harness.h"
#include "tps/tps.h"

namespace perfbench {
namespace {

using p2p::events::SkiRental;

constexpr int kSubscribers = 4;
constexpr int kPeers = kSubscribers + 1;
constexpr int kBlock = 10;  // Fig. 19: 10 events per epoch
// An epoch starts at most every kEpochNs (Fig. 19 epochs last about 2.5 ms).
// An epoch takes about 1 ms of CPU here, so the CPU idles between epochs: a
// saturated loop ran every timing at the host's momentary speed, whose
// modes differ by up to 1.6x, and spread them by 20 to 39% over ten runs.
constexpr std::int64_t kEpochNs = 2'500'000;
constexpr std::size_t kMaxEvents = 1 << 20;
constexpr int kMinSetups = 31;
constexpr std::int64_t kWaitNs = 10'000'000'000;  // one epoch, at most

std::unique_ptr<p2p::jxta::Peer> make_peer(p2p::net::NetworkFabric& fabric,
                                           const std::string& name) {
  p2p::jxta::PeerConfig config;
  config.name = name;
  auto peer = std::make_unique<p2p::jxta::Peer>(config);
  peer->add_transport(std::make_shared<p2p::net::InProcTransport>(fabric, name));
  traced("peer.start", Spans::kNone, 0, [&] { peer->start(); });
  return peer;
}

// The first session creates the type's advertisement at once; the others
// search until they find it, so every world binds exactly one.
p2p::tps::TpsConfig session_config(bool first) {
  return p2p::tps::TpsConfig::Builder()
      .adv_search_timeout(std::chrono::milliseconds(first ? 0 : 5000))
      .no_history()
      .build();
}

// One set-up world: peers started, sessions bound, first event delivered.
class World {
 public:
  World(const SkiEvents& events, Probe& probe, std::uint64_t seed)
      : events_(events), probe_(probe), fabric_(seed) {
    p2p::util::seed_global_rng(kIdentitySeed);
    fabric_.set_default_link({.latency_ms = 0});
    for (int i = 0; i < kPeers; ++i) {
      peers_.push_back(make_peer(fabric_, i == 0 ? "pub" : "sub" + std::to_string(i)));
    }
    for (int i = 0; i < kSubscribers; ++i) {
      ledgers_.push_back(std::make_unique<Ledger>(kMaxEvents));
      traced("session.init", Spans::kNone, 0, [&] {
        p2p::tps::TpsEngine<SkiRental> engine(*peers_[i + 1], session_config(i == 0));
        subs_.push_back(engine.new_interface());
      });
      Ledger& ledger = *ledgers_.back();
      traced("subscribe", Spans::kNone, 0, [&] {
        subscriptions_.push_back(subs_.back().subscribe(
            [this, &ledger](const SkiRental& e) { on_event(ledger, e); }));
      });
    }
    traced("session.init", Spans::kNone, 0, [&] {
      p2p::tps::TpsEngine<SkiRental> engine(*peers_[0], session_config(false));
      pub_.emplace(engine.new_interface());
    });
    traced("first_delivery", Spans::kNone, 0, [&] {
      publish_block(1);
      ready_ = wait_all();
    });
  }

  ~World() {
    subscriptions_.clear();
    subs_.clear();
    pub_.reset();
    for (auto it = peers_.rbegin(); it != peers_.rend(); ++it) (*it)->stop();
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] std::uint64_t published() const { return next_seq_; }
  [[nodiscard]] std::uint64_t refused() const { return refused_; }

  // Publishes `n` events back to back.
  void publish_block(int n) {
    for (int i = 0; i < n && next_seq_ < kMaxEvents; ++i) {
      const std::uint64_t seq = next_seq_++;
      std::shared_ptr<const SkiRental> event;
      {
        const alloc::Exclude own_work;
        event = std::make_shared<const SkiRental>(events_.make(seq));
      }
      if (!probe_.publish(seq, 0, [&] { return pub_->try_publish(std::move(event)).ok(); })) {
        ++refused_;
      }
    }
  }

  // Blocks until every subscriber has every event published so far.
  bool wait_all() {
    const std::int64_t deadline = now_ns() + kWaitNs;
    for (auto& ledger : ledgers_) {
      if (!ledger->wait_for(next_seq_ - refused_, deadline)) return false;
    }
    return true;
  }

  [[nodiscard]] std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const auto& ledger : ledgers_) n += ledger->delivered();
    return n;
  }

  // Counts failed deliveries: missing (a refused publish reads as missing),
  // duplicated or corrupted.
  std::uint64_t failures(Result& r) const {
    std::uint64_t failed = 0;
    for (const auto& ledger : ledgers_) {
      const std::uint64_t bad = ledger->missing(next_seq_) + ledger->duplicates() +
                                ledger->corrupted() + ledger->out_of_range();
      if (bad > 0) r.violation("paper_sync: a subscriber's deliveries are not exactly once");
      failed += bad;
    }
    return failed;
  }

  [[nodiscard]] std::vector<p2p::obs::Snapshot> snapshots() const {
    std::vector<p2p::obs::Snapshot> out;
    for (const auto& peer : peers_) out.push_back(peer->metrics().snapshot());
    return out;
  }

  [[nodiscard]] p2p::tps::TpsStats stats() const {
    std::vector<p2p::tps::TpsStats> all{pub_->stats()};
    for (const auto& s : subs_) all.push_back(s.stats());
    return sum_stats(all);
  }

  [[nodiscard]] std::size_t bindings() const { return pub_->advertisement_count(); }

 private:
  void on_event(Ledger& ledger, const SkiRental& e) {
    const std::int64_t t_in = now_ns();
    std::uint64_t seq = 0;
    const bool intact = events_.check(e, &seq);
    probe_.deliver(ledger, seq, intact, t_in);
  }

  const SkiEvents& events_;
  Probe& probe_;
  p2p::net::NetworkFabric fabric_;
  std::vector<std::unique_ptr<p2p::jxta::Peer>> peers_;
  std::vector<std::unique_ptr<Ledger>> ledgers_;
  std::vector<p2p::tps::TpsInterface<SkiRental>> subs_;
  std::vector<p2p::tps::Subscription> subscriptions_;
  std::optional<p2p::tps::TpsInterface<SkiRental>> pub_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t refused_ = 0;
  bool ready_ = false;
};

// One measured window of closed-loop epochs: publish a block, wait until
// every subscriber has it, then sleep until the next epoch is due.
Window run_window(World& world, Probe& probe, double seconds, bool* ok) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  return measure(world, probe, [&] {
    for (std::int64_t due = now_ns();
         *ok && due < end && world.published() + kBlock <= kMaxEvents;
         due = std::max(due + kEpochNs, now_ns())) {
      sleep_until_ns(due);
      world.publish_block(kBlock);
      *ok = world.wait_all();
    }
  });
}

// --- the peel ------------------------------------------------------------------

struct PeelResult {
  double cpu_us_per_event = 0;
  double publish_call_p50_us = 0;
  double wire_bytes_per_event = 0;
};

// Runs paper_sync's load (1 publisher, 4 subscribers, 10-event epochs every
// kEpochNs) for `seconds` through one harness driver type.
template <typename MakeDriver>
PeelResult peel(double seconds, std::uint64_t seed, MakeDriver make_driver,
                Result& r, const char* layer) {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t received = 0;
  std::unique_ptr<p2p::net::NetworkFabric> fabric;
  std::vector<std::unique_ptr<p2p::jxta::Peer>> peers;
  std::vector<std::unique_ptr<p2p::bench::Driver>> drivers;
  as_system([&] {
    fabric = std::make_unique<p2p::net::NetworkFabric>(seed);
    fabric->set_default_link({.latency_ms = 0});
    for (int i = 0; i < kPeers; ++i) {
      peers.push_back(make_peer(*fabric, "peel" + std::to_string(i)));
    }
    for (int i = kPeers - 1; i >= 0; --i) {  // subscribers first, publisher last
      drivers.push_back(make_driver(*peers[i]));
      if (i > 0) {
        drivers.back()->set_on_receive([&](std::int64_t) {
          {
            const std::lock_guard lock(mu);
            ++received;
          }
          cv.notify_all();
        });
      }
    }
  });
  p2p::bench::Driver& publisher = *drivers.back();
  int seq = 0;
  LogHist call;
  bool ok = true;
  std::int64_t due = now_ns();
  const auto epoch = [&] {
    sleep_until_ns(due);
    due = std::max(due + kEpochNs, now_ns());
    for (int i = 0; i < kBlock; ++i) {
      const std::int64_t t0 = now_ns();
      publisher.publish(seq++);
      call.add_ns(now_ns() - t0);
    }
    std::unique_lock lock(mu);
    ok = ok && cv.wait_for(lock, std::chrono::seconds(10), [&] {
      return received >= static_cast<std::uint64_t>(seq) * kSubscribers;
    });
  };
  const auto snaps = [&] {
    std::vector<p2p::obs::Snapshot> out;
    for (const auto& p : peers) out.push_back(p->metrics().snapshot());
    return out;
  };
  const std::int64_t warm_end = now_ns() + static_cast<std::int64_t>(0.2e9);
  while (ok && now_ns() < warm_end) epoch();
  call.reset();
  RegistryWindow reg;
  reg.before = snaps();
  std::uint64_t r0 = 0;
  {
    const std::lock_guard lock(mu);
    r0 = received;
  }
  const double c0 = process_cpu_s();
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (ok && now_ns() < end) epoch();
  const double cpu = process_cpu_s() - c0;
  reg.after = snaps();
  double deliveries = 0;
  {
    const std::lock_guard lock(mu);
    deliveries = static_cast<double>(received - r0);
  }
  if (!ok) r.violation(std::string("peel ") + layer + ": an epoch was not delivered");
  as_system([&] {
    drivers.clear();
    for (auto it = peers.rbegin(); it != peers.rend(); ++it) (*it)->stop();
    peers.clear();
    fabric.reset();
  });
  return {per_delivery(cpu * 1e6, deliveries), call.percentile_us(50),
          per_delivery(static_cast<double>(sum_counter(reg.deltas(), "net.bytes_sent")),
                       deliveries)};
}

void run_peel(Result& r, double seconds_each, std::uint64_t seed) {
  namespace bench = p2p::bench;
  const std::size_t bytes = bench::kPaperMessageBytes;
  const auto wire_adv = [] {
    p2p::jxta::PipeAdvertisement pipe;
    pipe.pid = p2p::jxta::PipeId::derive("perfbench:peel");
    pipe.name = "peel";
    pipe.type = p2p::jxta::PipeAdvertisement::Type::kPropagate;
    p2p::jxta::PeerGroupAdvertisement adv;
    adv.gid = p2p::jxta::PeerGroupId::derive("perfbench:peel");
    adv.creator = p2p::jxta::PeerId::derive("perfbench:peel");
    adv.name = "PS_peel";
    adv.is_rendezvous = true;
    auto wire = p2p::jxta::WireService::make_service_advertisement(pipe);
    adv.services.emplace(wire.name, std::move(wire));
    return adv;
  }();
  const auto tps_config = [](bool first, bool tracing) {
    auto b = p2p::tps::TpsConfig::Builder().adv_search_timeout(
        std::chrono::milliseconds(first ? 0 : 5000));
    if (!tracing) b.no_tracing();
    return b.build();
  };
  const auto sr_config = [](bool first) {
    p2p::srjxta::SrConfig c;
    c.adv_search_timeout = std::chrono::milliseconds(first ? 0 : 5000);
    return c;
  };
  // The first driver made is a subscriber; it creates the advertisement.
  int made = 0;
  const PeelResult wire = peel(seconds_each, seed, [&](p2p::jxta::Peer& p) {
    return std::make_unique<bench::WireDriver>(p, wire_adv, bytes);
  }, r, "wire");
  made = 0;
  const PeelResult sr = peel(seconds_each, seed, [&](p2p::jxta::Peer& p) {
    return std::make_unique<bench::SrDriver>(p, "PeelSki", bytes, sr_config(made++ == 0));
  }, r, "srjxta");
  made = 0;
  const PeelResult tps = peel(seconds_each, seed, [&](p2p::jxta::Peer& p) {
    return std::make_unique<bench::TpsDriver>(p, bytes, tps_config(made++ == 0, true));
  }, r, "tps");
  made = 0;
  const PeelResult notrace = peel(seconds_each, seed, [&](p2p::jxta::Peer& p) {
    return std::make_unique<bench::TpsDriver>(p, bytes, tps_config(made++ == 0, false));
  }, r, "tps_notrace");

  r.set("peel.wire.cpu_us_per_event", wire.cpu_us_per_event);
  r.set("peel.wire.publish_call_p50_us", wire.publish_call_p50_us);
  r.set("peel.srjxta.cpu_us_per_event", sr.cpu_us_per_event);
  r.set("peel.srjxta.publish_call_p50_us", sr.publish_call_p50_us);
  r.set("peel.tps.cpu_us_per_event", tps.cpu_us_per_event);
  r.set("peel.tps.publish_call_p50_us", tps.publish_call_p50_us);
  r.set("peel.tps.wire_bytes_per_event", tps.wire_bytes_per_event);
  r.set("peel.tps_notrace.cpu_us_per_event", notrace.cpu_us_per_event);
  r.set("peel.tps_notrace.publish_call_p50_us", notrace.publish_call_p50_us);
  r.set("peel.tps_notrace.wire_bytes_per_event", notrace.wire_bytes_per_event);
  r.set("premium.srjxta_over_wire", sr.cpu_us_per_event / wire.cpu_us_per_event);
  r.set("premium.tps_over_srjxta", tps.cpu_us_per_event / sr.cpu_us_per_event);
  r.set("premium.hop_tracing", tps.cpu_us_per_event / notrace.cpu_us_per_event);
}

}  // namespace

Result run_paper_sync(const Options& opt) {
  Result r;
  const SkiEvents events(opt.seed);
  Probe probe(kMaxEvents);
  Spans::instance().enable(opt.trace);
  std::unique_ptr<World> world;
  const SetUps setups = set_up(
      kMinSetups, world,
      [&](int i, bool) { return std::make_unique<World>(events, probe, opt.seed + i); },
      [&](int, World& w) {
        if (!w.ready()) r.violation("paper_sync: set-up did not deliver the first event");
        if (w.bindings() != 1) r.violation("paper_sync: publisher bound more than one advertisement");
      });
  Spans::instance().enable(false);

  bool ok = world->ready();
  // Warm-up: caches, lazily built frames, allocator pools.
  run_window(*world, probe, 0.5, &ok);

  const double measured = opt.trace ? opt.seconds / 3.0 : opt.seconds;
  const Window w = run_window(*world, probe, measured, &ok);
  report_end_to_end(r, setups, kPeers, w);
  report_window(r, w);

  if (opt.trace) {
    Spans::instance().enable(true);
    const Window traced_w = run_window(*world, probe, measured, &ok);
    Spans::instance().enable(false);
    report_trace_overhead(r, w, traced_w);
    report_probe(r, probe);
    report_window(r, traced_w);
    measure_static_layers(r, events, 16);
    measure_dedup(r, opt.seed, p2p::tps::TpsConfig{}.dedup_cache_size);
    run_peel(r, opt.seconds / 12.0, opt.seed);
  }

  r.attempted = world->published() * kSubscribers;
  if (!ok) r.violation("paper_sync: an epoch was not delivered within 10 s");
  r.failed = world->failures(r);
  world.reset();
  return r;
}

}  // namespace perfbench
