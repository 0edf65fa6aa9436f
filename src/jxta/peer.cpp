#include "jxta/peer.h"

#include "util/logging.h"

namespace p2p::jxta {

PeerGroupId Peer::net_group_id() {
  return PeerGroupId::derive("jxta:NetPeerGroup");
}

Peer::Peer(PeerConfig config, util::Clock& clock, util::TimerQueue* timers)
    : config_(std::move(config)),
      clock_(clock),
      timers_(timers != nullptr ? *timers : util::TimerQueue::shared()),
      timer_(config_.name + ".timer", timers_),
      id_(PeerId::generate()) {
  config_.rdv.is_rendezvous = config_.rendezvous;
  if (config_.single_threaded && timers == nullptr) {
    throw util::InvalidArgument(
        "single_threaded peer needs an injected TimerQueue");
  }
  executor_ = std::make_unique<util::SerialExecutor>(
      config_.name, /*inline_mode=*/config_.single_threaded);
  metrics_ = std::make_shared<obs::Registry>();
  tracer_ = std::make_shared<obs::Tracer>(
      config_.trace_capacity, metrics_->counter("obs.traces_dropped"));
  if (config_.watchdog) {
    watchdog_ = std::make_unique<obs::Watchdog>(config_.watchdog_config,
                                                metrics_, timers_);
  }
  endpoint_ =
      std::make_unique<EndpointService>(id_, *executor_, metrics_, tracer_);
  endpoint_->set_router(config_.router || config_.rendezvous);
}

Peer::~Peer() { stop(); }

void Peer::add_transport(std::shared_ptr<net::Transport> transport) {
  if (started_) {
    throw util::StateError("add_transport must precede start()");
  }
  // Transports register their loop heartbeats before the watchdog starts
  // checking (start() below), so the first check already covers them.
  if (watchdog_) transport->attach_watchdog(watchdog_.get());
  endpoint_->add_transport(std::move(transport));
}

PeerAdvertisement Peer::make_advertisement() const {
  PeerAdvertisement adv;
  adv.pid = id_;
  adv.gid = net_group_id();
  adv.name = config_.name;
  adv.endpoints = endpoint_->local_addresses();
  adv.is_rendezvous = config_.rendezvous;
  adv.is_router = config_.router;
  adv.supports_dht = config_.kad.enabled;
  return adv;
}

void Peer::start() {
  if (started_) return;
  started_ = true;

  if (watchdog_) watchdog_->start();
  rendezvous_ = std::make_unique<RendezvousService>(
      *endpoint_, clock_, config_.rdv, make_advertisement());
  for (const auto& seed : config_.seed_rendezvous) {
    rendezvous_->add_seed(seed);
  }
  resolver_ = std::make_unique<ResolverService>(*endpoint_, *rendezvous_);
  discovery_ = std::make_shared<DiscoveryService>(*resolver_, clock_, timers_);
  if (config_.kad.enabled) {
    kad_ = std::make_shared<KadService>(*resolver_, clock_, config_.kad,
                                        timers_);
    discovery_->set_dht(kad_);
    // Lease traffic doubles as DHT contact discovery: every peer
    // advertisement seen on a lease request/grant that carries the
    // capability joins the routing table.
    rendezvous_->set_peer_observer(
        [kad = kad_.get()](const PeerAdvertisement& adv) {
          if (adv.supports_dht) kad->observe_peer(adv.pid, adv.endpoints);
        });
  }
  peer_info_ = std::make_shared<PeerInfoService>(*resolver_, *endpoint_,
                                                 clock_, config_.name, timers_);
  pipe_service_ = std::make_shared<PipeService>(*resolver_, *endpoint_);

  route_resolver_ = std::make_shared<RouteResolverService>(
      *resolver_, *endpoint_, *discovery_);
  cms_ = std::make_shared<CmsService>(*resolver_, *endpoint_, *discovery_,
                                      timers_);
  monitoring_ =
      std::make_unique<MonitoringService>(*peer_info_, timer_, clock_);

  rendezvous_->start();
  resolver_->start();
  if (kad_) kad_->start();
  discovery_->start();
  peer_info_->start();
  pipe_service_->start();
  route_resolver_->start();
  cms_->start();

  // The root net group: a well-known advertisement every peer derives
  // identically, so all peers are members by construction.
  PeerGroupAdvertisement net_adv;
  net_adv.gid = net_group_id();
  net_adv.creator = id_;
  net_adv.name = "NetPeerGroup";
  net_adv.app = "jxta";
  net_adv.group_impl = "builtin";
  net_group_ = std::make_unique<PeerGroup>(net_adv, *endpoint_, *rendezvous_,
                                           nullptr);

  // Teach discovery about ourselves and push to the network. At flash-crowd
  // scale the group-wide push is O(N) per join, so scale scenarios disable
  // it (announce_on_start) and rely on lease traffic + the DHT instead.
  const PeerAdvertisement self_adv = make_advertisement();
  discovery_->publish(self_adv, DiscoveryType::kPeer, config_.adv_lifetime_ms);
  rendezvous_->connect_tick();
  if (config_.announce_on_start) {
    discovery_->remote_publish(self_adv, DiscoveryType::kPeer,
                               config_.adv_lifetime_ms);
  }

  timer_handle_ = timer_.schedule(config_.heartbeat, [this] { tick(); });
}

void Peer::tick() {
  if (!started_ || stopped_) return;
  rendezvous_->connect_tick();
  if (++ticks_ % config_.republish_every == 0) {
    discovery_->remote_publish(make_advertisement(), DiscoveryType::kPeer,
                               config_.adv_lifetime_ms);
  }
}

void Peer::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Watchdog first: once stopped, no probe fires while the layers it
  // samples (loops, delivery executors) tear down below.
  if (watchdog_) watchdog_->stop();
  monitoring_->stop();
  timer_.stop();
  net_group_.reset();
  cms_->stop();
  route_resolver_->stop();
  pipe_service_->stop();
  peer_info_->stop();
  discovery_->stop();
  if (kad_) kad_->stop();
  resolver_->stop();
  rendezvous_->stop();
  endpoint_->stop();
  executor_->stop();
  {
    // Executor is joined: no delivery is in flight, so this is the one
    // place where tearing down the instantiated groups (and their wire
    // services) cannot race a deliver_local() on their own stack.
    const util::MutexLock lock(groups_mu_);
    owned_groups_.clear();
    groups_.clear();
  }
}

std::shared_ptr<PeerGroup> Peer::create_group(
    const PeerGroupAdvertisement& adv) {
  if (!started_ || stopped_) {
    throw util::StateError("peer is not running");
  }
  const util::MutexLock lock(groups_mu_);
  if (const auto it = groups_.find(adv.gid); it != groups_.end()) {
    if (auto existing = it->second.lock()) return existing;
  }
  auto group = std::make_shared<PeerGroup>(adv, *endpoint_, *rendezvous_,
                                           net_group_.get());
  groups_[adv.gid] = group;
  owned_groups_.push_back(group);
  return group;
}

}  // namespace p2p::jxta
