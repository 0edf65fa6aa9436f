// The flash crowd: a SimWorld overlay in virtual time, built as
// src/sim/scenarios.cpp builds its flash crowd: kSubscribers edge peers join
// through kRendezvous rendezvous with the simulator's lean peer profile (no
// join announcement) over the fabric's default links, then one publisher
// streams events at a fixed virtual gap over propagate wire pipes. TPS is
// not on this path.
//
// Its figures are per-layer only (sim.*, from tcp_flood's traced run). The
// simulator is single-threaded and memory-bound, so its wall-clock speed
// follows the machine's other tenants: gated as a workload of its own, its
// CPU per delivery, publish call and latency spread by 30 to 66% (IQR /
// median) over ten runs while its counts held within 0.05%.
#include <charconv>
#include <map>

#include "jxta/wire.h"
#include "layers.h"
#include "sim/sim_world.h"

namespace perfbench {
namespace {

constexpr std::size_t kRendezvous = 4;
constexpr std::size_t kSubscribers = 1000;
constexpr std::int64_t kJoinWindowMs = 2'000;
constexpr std::int64_t kSettleMs = 1'000;
constexpr std::int64_t kGapMs = 20;      // virtual gap between events
constexpr std::int64_t kFirstWaitMs = 200;
constexpr std::uint64_t kMaxEventsPerSecond = 200;  // room per --seconds
constexpr std::uint64_t kKeyEvents = 2;             // prefix the determinism key covers
constexpr std::size_t kBodyBytes = 512;
constexpr std::size_t kSeenCache = 512;         // the lean profile's rdv memory
constexpr int kMinSetups = 15;

p2p::util::Duration ms(std::int64_t v) { return p2p::util::Duration{v}; }

// The lean sim profile of src/sim/scenarios.cpp.
p2p::jxta::PeerConfig lean_peer(const std::string& name,
                                const std::vector<p2p::net::Address>& seeds) {
  p2p::jxta::PeerConfig config;
  config.name = name;
  config.seed_rendezvous = seeds;
  config.announce_on_start = false;
  config.heartbeat = ms(5'000);
  config.trace_capacity = 4;
  config.rdv.seen_cache_size = kSeenCache;
  return config;
}

p2p::jxta::PipeAdvertisement topic() {
  p2p::jxta::PipeAdvertisement adv;
  adv.pid = p2p::jxta::PipeId::derive("perfbench-crowd");
  adv.name = "perfbench-crowd";
  adv.type = p2p::jxta::PipeAdvertisement::Type::kPropagate;
  return adv;
}

// One flash crowd. The constructor is the set-up: world built, crowd
// joined, first event delivered to everyone.
class Crowd {
 public:
  Crowd(std::uint64_t seed, std::uint64_t max_events)
      : seed_(seed), world_(seed), bodies_(make_pads(seed, kBodyBytes)),
        probe_(max_events, [this] { return vnow_ns(); }),
        publish_vns_(max_events, 0) {
    std::vector<p2p::net::Address> rdv_addrs;
    for (std::size_t i = 0; i < kRendezvous; ++i) {
      const std::string name = "rdv-" + std::to_string(i);
      auto config = lean_peer(name, rdv_addrs);  // later rdvs seed earlier ones
      config.rendezvous = true;
      peers_.push_back(&world_.add_peer(config));
      rdv_addrs.emplace_back("inproc", name);
    }
    subs_.reserve(kSubscribers);
    for (std::size_t i = 0; i < kSubscribers; ++i) {
      const auto offset = ms(static_cast<std::int64_t>(world_.rng().next_below(kJoinWindowMs)));
      const p2p::net::Address seed_addr = rdv_addrs[i % rdv_addrs.size()];
      subs_.push_back(std::make_unique<Sub>(max_events));
      world_.at(offset, [this, i, seed_addr] { join(i, seed_addr); });
    }
    peers_.push_back(&world_.add_peer(lean_peer("pub", {rdv_addrs[0]})));
    out_ = peers_.back()->net_group().wire().create_output_pipe(topic());
    world_.run_for(ms(kJoinWindowMs + kSettleMs));
    publish();
    world_.run_for(ms(kFirstWaitMs));
    ready_ = delivered() == kSubscribers;
  }

  ~Crowd() {
    for (auto& sub : subs_) {
      if (sub->pipe) sub->pipe->close();
    }
    out_->close();
  }

  Crowd(const Crowd&) = delete;
  Crowd& operator=(const Crowd&) = delete;

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::uint64_t published() const { return next_seq_; }
  [[nodiscard]] std::uint64_t capacity() const { return publish_vns_.size(); }
  [[nodiscard]] std::size_t peer_count() const { return world_.peer_count(); }
  [[nodiscard]] Probe& probe() { return probe_; }
  p2p::sim::SimWorld& world() { return world_; }
  // The simulator's clock, in ns.
  std::int64_t vnow_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               world_.clock().now().time_since_epoch())
        .count();
  }

  // Publishes the next event and advances virtual time by one gap.
  void step() {
    publish();
    world_.run_for(ms(kGapMs));
  }

  // Lets in-flight deliveries land.
  void settle() { world_.run_for(ms(kSettleMs)); }

  [[nodiscard]] std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const auto& sub : subs_) n += sub->ledger.delivered();
    return n;
  }

  // Same seed => same key; the SimWorld trace hash plus counts.
  [[nodiscard]] std::string key() {
    const auto f = world_.fabric().stats();
    return std::to_string(world_.trace_hash()) + ":" +
           std::to_string(world_.trace_events()) + ":" + std::to_string(delivered()) +
           ":" + std::to_string(f.submitted) + ":" + std::to_string(f.bytes_delivered) +
           ":" + std::to_string(world_.timers().fired());
  }

  std::uint64_t failures(Result& r) const {
    std::uint64_t failed = 0;
    for (const auto& sub : subs_) {
      failed += sub->ledger.missing(next_seq_) + sub->ledger.duplicates() +
                sub->ledger.corrupted() + sub->ledger.out_of_range();
    }
    if (failed > 0) r.violation("flash crowd: deliveries are not exactly once");
    return failed;
  }

  [[nodiscard]] std::vector<p2p::obs::Snapshot> snapshots() const {
    std::vector<p2p::obs::Snapshot> out;
    for (auto* peer : peers_) out.push_back(peer->metrics().snapshot());
    return out;
  }
  // No TPS session on this path.
  [[nodiscard]] p2p::tps::TpsStats stats() const { return {}; }

  // Virtual publish -> deliver latency, whole ms -> count.
  std::map<std::int64_t, std::uint64_t> vlatency;
  std::vector<double> add_peer_us;
  std::int64_t last_delivery_vns = 0;

 private:
  struct Sub {
    explicit Sub(std::size_t events) : ledger(events) {}
    std::string name;
    Ledger ledger;
    std::shared_ptr<p2p::jxta::WireInputPipe> pipe;
  };

  void join(std::size_t i, const p2p::net::Address& seed_addr) {
    Sub& sub = *subs_[i];
    sub.name = "sub-" + std::to_string(i);
    const std::int64_t t0 = now_ns();
    auto& peer = world_.add_peer(lean_peer(sub.name, {seed_addr}));
    add_peer_us.push_back(ns_to_us(now_ns() - t0));
    peers_.push_back(&peer);
    sub.pipe = peer.net_group().wire().create_input_pipe(topic());
    sub.pipe->set_listener([this, &sub](p2p::jxta::Message m) { on_message(sub, m); });
    world_.record(sub.name, "join");
  }

  void publish() {
    const std::uint64_t seq = next_seq_++;
    publish_vns_[seq] = vnow_ns();
    p2p::jxta::Message m;
    {
      const alloc::Exclude own_work;
      const std::string& body = bodies_[seq % bodies_.size()];
      m.add_string("seq", std::to_string(seq));
      m.add_bytes("body", p2p::util::Bytes(body.begin(), body.end()));
    }
    probe_.publish(seq, 0, [&] {
      out_->send(std::move(m));
      return true;
    });
    world_.record("pub", "publish");
  }

  void on_message(Sub& sub, const p2p::jxta::Message& m) {
    const std::int64_t t_in = now_ns();
    const auto* seq_el = m.find("seq");
    const auto* body_el = m.find("body");
    std::uint64_t seq = publish_vns_.size();
    bool intact = false;
    if (seq_el != nullptr && body_el != nullptr) {
      const std::string_view text(reinterpret_cast<const char*>(seq_el->body.data()),
                                  seq_el->body.size());
      const auto r = std::from_chars(text.data(), text.data() + text.size(), seq);
      const std::string& want = bodies_[seq % bodies_.size()];
      intact = r.ec == std::errc() && r.ptr == text.data() + text.size() &&
               std::string_view(reinterpret_cast<const char*>(body_el->body.data()),
                                body_el->body.size()) == want;
    }
    const std::int64_t now = vnow_ns();
    if (seq < next_seq_) ++vlatency[(now - publish_vns_[seq]) / 1'000'000];
    last_delivery_vns = now;
    probe_.deliver(sub.ledger, seq, intact, t_in);
    world_.record(sub.name, "deliver");
  }

  std::uint64_t seed_;
  p2p::sim::SimWorld world_;
  std::vector<std::string> bodies_;
  Probe probe_;
  std::vector<std::int64_t> publish_vns_;
  std::vector<p2p::jxta::Peer*> peers_;  // owned by world_
  std::vector<std::unique_ptr<Sub>> subs_;
  std::shared_ptr<p2p::jxta::WireOutputPipe> out_;
  std::uint64_t next_seq_ = 0;
  bool ready_ = false;
};

// What a stream yields besides the window: virtual span and counts.
struct Stream {
  double virtual_s = 0;
  double timers = 0;
  double msgs = 0;
  double bytes = 0;
};

// Streams events for `seconds` of wall time, then lets the last ones land.
Window stream(Crowd& crowd, double seconds, Stream& s) {
  auto& world = crowd.world();
  const auto f0 = world.fabric().stats();
  const std::uint64_t timers0 = world.timers().fired();
  const std::int64_t v0 = crowd.vnow_ns();
  crowd.vlatency.clear();
  Window w = measure(crowd, crowd.probe(), [&] {
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < end && crowd.published() < crowd.capacity()) crowd.step();
    crowd.settle();
  });
  const auto f1 = world.fabric().stats();
  s.msgs = static_cast<double>(f1.submitted - f0.submitted);
  s.bytes = static_cast<double>(f1.bytes_delivered - f0.bytes_delivered);
  s.timers = static_cast<double>(world.timers().fired() - timers0);
  // Virtual span of the stream: first publish to last delivery.
  s.virtual_s = static_cast<double>(crowd.last_delivery_vns - v0) / 1e9;
  return w;
}

}  // namespace

void measure_flash_crowd(Result& r, std::uint64_t seed, double seconds) {
  // Room for the first event, the key's events and the two streams.
  const std::uint64_t capacity =
      1 + kKeyEvents + kMaxEventsPerSecond * static_cast<std::uint64_t>(seconds + 2);

  // The first and the last set-up use the run's seed, those between other
  // seeds. The determinism key covers set-up plus the first kKeyEvents
  // events: a crowd must give the first one's key iff it has its seed.
  std::unique_ptr<Crowd> crowd;
  std::string key;
  std::vector<double> add_peer_us;
  bool kept = false;  // the crowd being checked is the measured one
  const SetUps setups = set_up(
      kMinSetups, crowd,
      [&](int i, bool last) {
        kept = last;
        return std::make_unique<Crowd>(i == 0 || last ? seed : seed + i, capacity);
      },
      [&](int i, Crowd& c) {
        if (!c.ready()) r.violation("flash crowd: set-up did not deliver the first event");
        if (i == 0) add_peer_us = c.add_peer_us;
        for (std::uint64_t k = 0; k < kKeyEvents; ++k) c.step();
        if (i == 0) key = c.key();
        if ((c.seed() == seed) != (c.key() == key)) {
          r.violation(c.seed() == seed ? "flash crowd: same seed, different determinism key"
                                       : "flash crowd: another seed gave the same key");
        }
        c.settle();
        if (!kept) {  // the measured crowd is counted at the end
          r.failed += c.failures(r);
          r.attempted += c.published() * kSubscribers;
        }
      });

  Stream s;
  const Window w = stream(*crowd, seconds, s);
  const auto deltas = w.registries.deltas();
  const auto per = [&](double v) { return per_delivery(v, w.deliveries); };
  r.set("sim.setup_s", median(setups.seconds));
  r.set("sim.add_peer_p50_us", percentile(add_peer_us, 50));
  r.set("sim.rss_kb_per_peer", setups.rss_growth_kb / static_cast<double>(crowd->peer_count()));
  r.set("sim.wire_msgs_per_event", per(s.msgs));
  r.set("sim.wire_bytes_per_event", per(s.bytes));
  r.set("sim.rdv_forwards_per_event",
        per(static_cast<double>(sum_counter(deltas, "jxta.rdv.propagations_forwarded"))));
  r.set("sim.rdv_dups_per_event",
        per(static_cast<double>(sum_counter(deltas, "jxta.rdv.duplicates_suppressed"))));
  r.set("sim.allocs_per_event", per(w.allocs));
  r.set("sim.timers_per_event", per(s.timers));
  r.set("sim.cpu_us_per_event", w.cpu_us_per_event());
  r.set("sim.wall_us_per_event", per(w.wall_s * 1e6));
  r.set("sim.publish_call_p50_us", w.publish_call_p50_us);
  r.set("sim.speedup", s.virtual_s / w.wall_s);
  r.set("sim.delivered_per_virtual_s", w.deliveries / s.virtual_s);
  r.set("sim.vlatency_p50_ms", static_cast<double>(rank_percentile(crowd->vlatency, 50)));
  r.set("sim.vlatency_p99_ms", static_cast<double>(rank_percentile(crowd->vlatency, 99)));
  const auto send_drops = sum_counter(w.registries.after, "net.send_drops");
  if (send_drops > 0) r.violation("flash crowd: net send drops");

  // A short traced stream: publish and deliver spans in virtual time.
  const bool tracing = Spans::instance().enabled();
  Spans::instance().enable(true);
  Stream ts;
  stream(*crowd, 1.0, ts);
  Spans::instance().enable(tracing);

  r.attempted += crowd->published() * kSubscribers;
  r.failed += crowd->failures(r);
}

}  // namespace perfbench
