// tcp_flood: the Fig. 20 shape over real loopback TcpTransport. One
// rendezvous relays three publishers to one subscriber (four edge
// connections). Every peer uses the fast configuration: batching, the
// encode cache and the binary codec, on dynamic events; the subscriber also
// runs the delivery pool. Open loop: one sleeping generator thread emits a
// burst of kBurst events per publisher per tick at a fixed aggregate rate,
// and latency is timed from each burst's scheduled due time.
#include <optional>
#include <thread>

#include "jxta/peer.h"
#include "layers.h"
#include "util/random.h"
#include "net/tcp_transport.h"
#include "tps/dynamic.h"
#include "tps/session.h"

namespace perfbench {
namespace {

using p2p::tps::TpsSession;

constexpr int kPublishers = 3;
constexpr std::uint64_t kBurst = 16;  // == the batch size: one frame per burst
constexpr double kRate = 3000;        // events per second, all publishers
constexpr std::size_t kMaxEvents = 1 << 20;
constexpr int kMinSetups = 31;
// Every TPS session also receives its own type, so each publisher decodes
// every event too. On the one CPU the peers share, that work would compete
// with the publisher -> rendezvous -> subscriber path in arbitrary order.
// The publisher peers' own threads (reactor, executor: the receive side)
// run at a lower priority so the path is served first, as it would be on
// separate machines; their sessions' sender threads, on the path, do not.
constexpr int kPublisherNice = kSystemNice + 5;
constexpr std::int64_t kSetupWaitNs = 20'000'000'000;

// Publishers take turns: one burst every burst_ns(), so each publisher
// emits one burst per tick of kPublishers bursts.
std::int64_t burst_ns() { return static_cast<std::int64_t>(1e9 * kBurst / kRate); }

p2p::tps::TpsConfig flood_config(bool subscriber) {
  auto b = p2p::tps::TpsConfig::Builder()
               .adv_search_timeout(std::chrono::milliseconds(subscriber ? 0 : 5000))
               .dedup_cache(1 << 16)
               .batching(kBurst, std::chrono::microseconds(200))
               .encode_cache(1024)
               .prefer_binary()
               .no_history();
  if (subscriber) b.delivery_pool(2, 8192);
  return b.build();
}

std::unique_ptr<p2p::jxta::Peer> make_peer(
    const std::string& name, bool rendezvous,
    const std::vector<p2p::net::Address>& seeds,
    std::shared_ptr<p2p::net::TcpTransport> transport) {
  p2p::jxta::PeerConfig config;
  config.name = name;
  config.rendezvous = rendezvous;
  config.seed_rendezvous = seeds;
  auto peer = std::make_unique<p2p::jxta::Peer>(config);
  peer->add_transport(std::move(transport));
  traced("peer.start", Spans::kNone, 0, [&] { peer->start(); });
  return peer;
}

// Polls a set-up condition that has no callback (rendezvous leases).
template <typename Pred>
bool poll_until(Pred pred, std::int64_t deadline) {
  while (!pred()) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class World {
 public:
  World(const DynEvents& events, Probe& probe) : events_(events), probe_(probe) {
    p2p::util::seed_global_rng(kIdentitySeed);
    p2p::tps::register_dynamic_event_type(DynEvents::kType, {});
    auto rdv_transport = std::make_shared<p2p::net::TcpTransport>();
    const std::vector<p2p::net::Address> seeds = {rdv_transport->local_address()};
    peers_.push_back(make_peer("rdv", true, {}, std::move(rdv_transport)));
    peers_.push_back(make_peer("sub", false, seeds, std::make_shared<p2p::net::TcpTransport>()));
    at_nice(kPublisherNice, [&] {
      for (int i = 1; i <= kPublishers; ++i) {
        peers_.push_back(make_peer("pub" + std::to_string(i), false, seeds,
                                   std::make_shared<p2p::net::TcpTransport>()));
      }
    });
    const std::int64_t deadline = now_ns() + kSetupWaitNs;
    ready_ = poll_until(
        [&] {
          for (std::size_t i = 1; i < peers_.size(); ++i) {
            if (!peers_[i]->rendezvous().connected()) return false;
          }
          return true;
        },
        deadline);
    sub_ = open_session(*peers_[1], true);
    traced("subscribe", Spans::kNone, 0, [&] {
      subscription_ = sub_->subscribe_scoped(subscriber(&main_tag_, [this](const auto& e) {
        on_event(e);
      }));
    });
    for (int i = 0; i < kPublishers; ++i) {
      pubs_.push_back(open_session(*peers_[2 + i], false));
    }
    // First delivery: one burst from every publisher.
    traced("first_delivery", Spans::kNone, 0, [&] {
      for (int p = 0; p < kPublishers; ++p) publish_burst(now_ns());
      ready_ = ready_ && ledger_.wait_for(next_seq_, deadline);
    });
  }

  ~World() {
    subscription_.cancel();
    if (sub_) sub_->shutdown();
    for (auto& p : pubs_) p->shutdown();
    for (auto it = peers_.rbegin(); it != peers_.rend(); ++it) (*it)->stop();
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] std::uint64_t published() const { return next_seq_; }
  [[nodiscard]] std::uint64_t refused() const { return refused_; }
  [[nodiscard]] Ledger& ledger() { return ledger_; }
  [[nodiscard]] std::uint64_t delivered() const { return ledger_.delivered(); }

  // One burst of kBurst events, due at `due`, from the publisher whose turn
  // it is.
  void publish_burst(std::int64_t due) {
    for (std::uint64_t i = 0; i < kBurst && next_seq_ < kMaxEvents; ++i) {
      const std::uint64_t seq = next_seq_++;
      std::shared_ptr<const p2p::tps::DynamicEvent> event;
      {
        const alloc::Exclude own_work;
        event = std::make_shared<const p2p::tps::DynamicEvent>(events_.make(seq));
      }
      TpsSession& pub = *pubs_[events_.publisher(seq)];
      if (!probe_.publish(seq, due, [&] { return pub.publish(std::move(event)).ok(); })) {
        ++refused_;
      }
    }
  }

  // Side traffic for the per-layer session metrics: a subscription made
  // and cancelled, and a publisher flush. Its deliveries are not counted.
  void side_ops(std::vector<double>& subscribe_us, std::vector<double>& cancel_us,
                std::vector<double>& flush_us, int round) {
    const std::int64_t t0 = now_ns();
    p2p::tps::Subscription side = sub_->subscribe_scoped(
        subscriber(&side_tag_, [](const auto&) {}));
    const std::int64_t t1 = now_ns();
    subscribe_us.push_back(ns_to_us(t1 - t0));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::int64_t t2 = now_ns();
    side.cancel();
    cancel_us.push_back(ns_to_us(now_ns() - t2));
    const std::int64_t t3 = now_ns();
    pubs_[round % kPublishers]->flush();
    flush_us.push_back(ns_to_us(now_ns() - t3));
  }

  [[nodiscard]] std::vector<p2p::obs::Snapshot> snapshots() const {
    std::vector<p2p::obs::Snapshot> out;
    for (const auto& peer : peers_) out.push_back(peer->metrics().snapshot());
    return out;
  }

  [[nodiscard]] p2p::tps::TpsStats stats() const {
    std::vector<p2p::tps::TpsStats> all{sub_->stats()};
    for (const auto& p : pubs_) all.push_back(p->stats());
    return sum_stats(all);
  }

  [[nodiscard]] std::size_t bindings() const {
    std::size_t most = 0;
    for (const auto& p : pubs_) most = std::max(most, p->binding_count());
    return most;
  }

 private:
  std::shared_ptr<TpsSession> open_session(p2p::jxta::Peer& peer, bool subscriber) {
    std::shared_ptr<TpsSession> session;
    traced("session.init", Spans::kNone, 0, [&] {
      session = std::make_shared<TpsSession>(peer, DynEvents::kType, p2p::tps::Criteria{},
                                             flood_config(subscriber));
      session->init();
    });
    return session;
  }

  template <typename Fn>
  static TpsSession::Subscriber subscriber(const void* tag, Fn fn) {
    TpsSession::Subscriber sub;
    sub.callback_tag = tag;
    sub.handler_tag = tag;
    sub.dispatch = [fn](const p2p::serial::EventPtr& e) noexcept -> bool {
      const auto* event = dynamic_cast<const p2p::tps::DynamicEvent*>(e.get());
      if (event == nullptr) return false;
      fn(*event);
      return true;
    };
    return sub;
  }

  void on_event(const p2p::tps::DynamicEvent& e) {
    const std::int64_t t_in = now_ns();
    std::uint64_t seq = 0;
    const bool intact = events_.check(e, &seq);
    probe_.deliver(ledger_, seq, intact, t_in);
  }

  const DynEvents& events_;
  Probe& probe_;
  Ledger ledger_{kMaxEvents};
  std::vector<std::unique_ptr<p2p::jxta::Peer>> peers_;  // rdv, sub, pubs
  std::shared_ptr<TpsSession> sub_;
  std::vector<std::shared_ptr<TpsSession>> pubs_;
  p2p::tps::Subscription subscription_;
  const int main_tag_ = 0;
  const int side_tag_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t refused_ = 0;
  bool ready_ = false;
};

// Side traffic of the traced window: subscribe, cancel and flush timings.
struct SideOps {
  std::vector<double> subscribe_us, cancel_us, flush_us;
};

// Open-loop window: the generator sleeps until each burst's due time and
// records how late it woke in `late`. With `side`, a second thread runs the
// side subscription about every 50 ms. `backlog` receives the events
// published in the window but not delivered by its end.
Window run_window(World& world, Probe& probe, double seconds, LogHist& late,
                  SideOps* side, double* backlog) {
  const double p0 = static_cast<double>(world.published());
  const double d0 = static_cast<double>(world.delivered());
  std::atomic<bool> stop{false};
  std::thread side_thread;
  if (side != nullptr) {
    side_thread = std::thread([&] {
      for (int round = 0; !stop.load(); ++round) {
        world.side_ops(side->subscribe_us, side->cancel_us, side->flush_us, round);
        std::this_thread::sleep_for(std::chrono::milliseconds(45));
      }
    });
  }
  Window w = measure(world, probe, [&] {
    const std::int64_t t0 = now_ns();
    const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    for (std::int64_t due = t0; due < end; due += burst_ns()) {
      sleep_until_ns(due);
      late.add_ns(now_ns() - due);
      world.publish_burst(due);
    }
  });
  *backlog = static_cast<double>(world.published()) - p0 -
             (static_cast<double>(world.delivered()) - d0);
  stop = true;
  if (side_thread.joinable()) side_thread.join();
  return w;
}

}  // namespace

Result run_tcp_flood(const Options& opt) {
  Result r;
  const DynEvents events(opt.seed, kBurst, kPublishers);
  Probe probe(kMaxEvents);
  Spans::instance().enable(opt.trace);
  std::unique_ptr<World> world;
  const SetUps setups = set_up(
      kMinSetups, world, [&](int, bool) { return std::make_unique<World>(events, probe); },
      [&](int, World& w) {
        if (!w.ready()) r.violation("tcp_flood: set-up did not deliver the first bursts");
        if (w.bindings() != 1) r.violation("tcp_flood: a publisher bound more than one advertisement");
      });
  Spans::instance().enable(false);

  LogHist late;
  double backlog = 0;
  run_window(*world, probe, 0.5, late, nullptr, &backlog);  // warm-up
  const double measured = opt.trace ? opt.seconds / 3.0 : opt.seconds;
  late.reset();
  const Window w = run_window(*world, probe, measured, late, nullptr, &backlog);
  report_end_to_end(r, setups, kPublishers + 2, w);
  report_window(r, w);
  // Four edge peers, each with at most one connection each way to the
  // rendezvous, counted at both ends.
  if (sum_counter(w.registries.after, "net.connections_active") > 16) {
    r.violation("tcp_flood: more connections than four edge peers need");
  }
  // A backlog past one second of offered load means the subscriber no
  // longer keeps up: the rate is above the system's capacity.
  if (backlog > kRate) r.violation("tcp_flood: backlog grew past one second of load");

  if (opt.trace) {
    SideOps side;
    Spans::instance().enable(true);
    const Window tw = run_window(*world, probe, measured, late, &side, &backlog);
    Spans::instance().enable(false);
    report_trace_overhead(r, w, tw);
    report_probe(r, probe);
    report_window(r, tw);
    r.set("tps.subscribe_p50_us", percentile(side.subscribe_us, 50));
    r.set("tps.cancel_p50_us", percentile(side.cancel_us, 50));
    r.set("tps.cancel_p90_us", percentile(side.cancel_us, 90));
    r.set("tps.flush_p50_us", percentile(side.flush_us, 50));
    r.set("gen.late_p99_us", late.percentile_us(99));
    r.set("gen.late_max_us", late.max_us());
    measure_dynamic_layers(r, events, kBurst);
    measure_dedup(r, opt.seed, 1 << 16);
  }

  // Drain, then check every published event reached the subscriber once; a
  // refused publish reads as missing.
  Ledger& ledger = world->ledger();
  ledger.wait_for(world->published() - world->refused(), now_ns() + 10'000'000'000);
  r.attempted = world->published();
  r.failed = ledger.missing(world->published()) + ledger.duplicates() +
             ledger.corrupted() + ledger.out_of_range();
  if (r.failed > 0) r.violation("tcp_flood: deliveries are not exactly once");
  world.reset();
  if (opt.trace) measure_flash_crowd(r, opt.seed, opt.seconds / 4.0);
  return r;
}

}  // namespace perfbench
