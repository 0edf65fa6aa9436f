// Peer: the composition root of the JXTA substrate.
//
// "The peer concept points out all networked devices using JXTA. Any device
// with an electronic pulse is a JXTA peer" (paper §2.1). A Peer wires the
// six protocols together: endpoint (+ERP), rendezvous, resolver (PRP),
// discovery (PDP), peer info (PIP), pipes (PBP), and hosts the root
// ("net") peer group whose wire service carries group-wide traffic.
//
// Roles are configuration: the same class is an edge peer, a rendezvous, or
// a router depending on PeerConfig — as in JXTA, where "there are different
// kinds of peers: 'normal' ones and ones that have additional
// functionalities".
#pragma once

#include <atomic>
#include <memory>

#include "jxta/cms.h"
#include "jxta/discovery.h"
#include "jxta/kad_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "jxta/monitoring.h"
#include "jxta/peer_group.h"
#include "jxta/peer_info.h"
#include "jxta/pipe.h"
#include "jxta/route_resolver.h"
#include "util/thread_annotations.h"

namespace p2p::jxta {

struct PeerConfig {
  std::string name = "peer";
  bool rendezvous = false;
  bool router = false;
  // Bootstrap rendezvous addresses (may be empty on multicast-capable LANs).
  std::vector<net::Address> seed_rendezvous;
  RendezvousConfig rdv;
  // Kademlia discovery backend (off by default). When enabled the peer
  // advertises the capability, answers DHT RPCs, and discovery routes
  // eligible queries through it (kad.prefer_dht) before flooding.
  KadConfig kad;
  // Cadence of the maintenance tick (lease renewal; adv re-publish).
  util::Duration heartbeat{1000};
  // Re-publish own peer advertisement every N heartbeats.
  std::uint32_t republish_every = 10;
  std::int64_t adv_lifetime_ms = kDefaultAdvLifetimeMs;
  // --- observability ---
  // Completed end-to-end traces retained by the peer's Tracer; older ones
  // are evicted (counted as obs.traces_dropped).
  std::size_t trace_capacity = 256;
  // Opt-in stall watchdog: samples event-loop heartbeats, delivery-queue
  // age and its own timer lag each watchdog_config.period. Off by default —
  // tests with deliberately slow callbacks would otherwise trip it.
  bool watchdog = false;
  obs::WatchdogConfig watchdog_config;
  // --- simulation ---
  // Threadless peer: the executor runs inline on the posting thread instead
  // of owning a thread. With the injected TimerQueue this is what lets a
  // scenario host 10k+ peers in one process — the sim driver thread is the
  // only thread, so per-peer FIFO holds trivially. Requires a TimerQueue
  // passed to the Peer constructor.
  bool single_threaded = false;
  // start() normally remote-publishes the peer advertisement (a group-wide
  // push). At 10k-peer joins that flood is O(N) per join — O(N²) total — so
  // scale scenarios turn it off; peers are still discovered through lease
  // traffic and the DHT.
  bool announce_on_start = true;
};

class Peer {
 public:
  // `timers` is the peer's deadline service for every JXTA service timer
  // and all periodic work (null => the process-wide shared queue). A sim
  // passes its kSimulated queue here, which puts discovery expiry, DHT
  // ticks, CMS windows, the maintenance heartbeat and finder re-queries on
  // virtual time.
  explicit Peer(PeerConfig config,
                util::Clock& clock = util::SystemClock::instance(),
                util::TimerQueue* timers = nullptr);
  ~Peer();

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  // Transports must be added before start().
  void add_transport(std::shared_ptr<net::Transport> transport);

  // Brings all services up, publishes this peer's advertisement (locally
  // and remotely) and starts the maintenance heartbeat.
  void start();
  // Stops everything; safe to call more than once.
  void stop();

  // Runs one maintenance tick synchronously (tests drive this directly
  // instead of waiting for the timer).
  void tick();

  [[nodiscard]] const PeerId& id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] const PeerConfig& config() const { return config_; }
  [[nodiscard]] util::Clock& clock() { return clock_; }
  [[nodiscard]] util::SerialExecutor& executor() { return *executor_; }
  // This peer's metrics registry and message tracer (src/obs/). All
  // services of the peer write here; the same registry backs PIP traffic
  // answers and the bench metrics dumps.
  [[nodiscard]] obs::Registry& metrics() { return *metrics_; }
  [[nodiscard]] const std::shared_ptr<obs::Registry>& metrics_ptr() const {
    return metrics_;
  }
  [[nodiscard]] obs::Tracer& tracer() { return *tracer_; }
  // The peer's stall watchdog, or nullptr when PeerConfig::watchdog is off.
  // Layers register probes against it (transports: loop heartbeats; TPS
  // sessions: delivery-queue age) and must unwatch before their own
  // teardown.
  [[nodiscard]] obs::Watchdog* watchdog() { return watchdog_.get(); }
  // The peer's periodic work on its TimerQueue; layers above JXTA (e.g. the
  // TPS advertisement finder) schedule here, and stop() cancels it all.
  [[nodiscard]] util::PeriodicTimer& timer() { return timer_; }

  [[nodiscard]] EndpointService& endpoint() { return *endpoint_; }
  [[nodiscard]] RendezvousService& rendezvous() { return *rendezvous_; }
  [[nodiscard]] ResolverService& resolver() { return *resolver_; }
  [[nodiscard]] DiscoveryService& discovery() { return *discovery_; }
  // The Kademlia backend, or nullptr when PeerConfig::kad.enabled is off.
  [[nodiscard]] KadService* kad() { return kad_.get(); }
  [[nodiscard]] PeerInfoService& info() { return *peer_info_; }
  [[nodiscard]] PipeService& pipes() { return *pipe_service_; }
  // Active ERP route discovery (paper Fig. 6 as a protocol).
  [[nodiscard]] RouteResolverService& routes() { return *route_resolver_; }
  // Content management (share/search/fetch codats; paper §2 "cms").
  [[nodiscard]] CmsService& cms() { return *cms_; }
  // Group status monitoring (paper §2 "monitoring service"). Not started
  // automatically; call monitoring().start() to begin periodic sweeps.
  [[nodiscard]] MonitoringService& monitoring() { return *monitoring_; }

  // The root group every peer belongs to (JXTA's NetPeerGroup).
  [[nodiscard]] PeerGroup& net_group() { return *net_group_; }

  // Instantiates a group from its advertisement (the paper's
  // PeerGroupFactory.newPeerGroup() + init(parent, pgAdv), Fig. 17). Groups
  // are per-peer singletons: calling this twice with the same group id
  // returns the same instance. The peer keeps every instantiated group
  // alive until stop(), so a group's wire service is never torn down by
  // whichever thread happens to drop the last application reference —
  // possibly the delivery thread, mid-delivery, inside that very service.
  [[nodiscard]] std::shared_ptr<PeerGroup> create_group(
      const PeerGroupAdvertisement& adv) EXCLUDES(groups_mu_);

  // This peer's own advertisement (current addresses and roles).
  [[nodiscard]] PeerAdvertisement make_advertisement() const;

  // The id of the root net group (shared by construction by all peers).
  static PeerGroupId net_group_id();

 private:
  PeerConfig config_;
  util::Clock& clock_;
  util::TimerQueue& timers_;
  util::PeriodicTimer timer_;
  PeerId id_;
  std::shared_ptr<obs::Registry> metrics_;
  std::shared_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  std::unique_ptr<util::SerialExecutor> executor_;
  std::unique_ptr<EndpointService> endpoint_;
  std::unique_ptr<RendezvousService> rendezvous_;
  std::unique_ptr<ResolverService> resolver_;
  std::shared_ptr<KadService> kad_;  // null unless config_.kad.enabled
  std::shared_ptr<DiscoveryService> discovery_;
  std::shared_ptr<PeerInfoService> peer_info_;
  std::shared_ptr<PipeService> pipe_service_;
  std::shared_ptr<RouteResolverService> route_resolver_;
  std::shared_ptr<CmsService> cms_;
  std::unique_ptr<MonitoringService> monitoring_;
  std::unique_ptr<PeerGroup> net_group_;
  util::Mutex groups_mu_{"peer-groups"};
  std::unordered_map<PeerGroupId, std::weak_ptr<PeerGroup>> groups_
      GUARDED_BY(groups_mu_);
  // Keeps instantiated groups alive until stop() (see create_group()).
  std::vector<std::shared_ptr<PeerGroup>> owned_groups_
      GUARDED_BY(groups_mu_);
  std::uint64_t timer_handle_ = 0;
  std::uint32_t ticks_ = 0;  // timer callbacks only
  // Written by start()/stop() on the owner's thread, read by the timer
  // callback in tick() — atomics, not a mutex, because tick() must stay
  // wait-free against a concurrent stop().
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace p2p::jxta
