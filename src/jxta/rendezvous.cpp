#include "jxta/rendezvous.h"

#include "util/logging.h"

namespace p2p::jxta {

namespace {
constexpr std::string_view kRdvService = "jxta.rdv";
}  // namespace

RendezvousService::RendezvousService(EndpointService& endpoint,
                                     util::Clock& clock,
                                     RendezvousConfig config,
                                     PeerAdvertisement self_advertisement)
    : endpoint_(endpoint),
      clock_(clock),
      config_(config),
      self_adv_(std::move(self_advertisement)),
      propagations_originated_(
          endpoint.metrics().counter("jxta.rdv.propagations_originated")),
      propagations_received_(
          endpoint.metrics().counter("jxta.rdv.propagations_received")),
      propagations_forwarded_(
          endpoint.metrics().counter("jxta.rdv.propagations_forwarded")),
      duplicates_suppressed_(
          endpoint.metrics().counter("jxta.rdv.duplicates_suppressed")),
      decode_errors_(endpoint.metrics().counter("jxta.decode_errors")),
      dedup_probe_depth_(
          endpoint.metrics().counter("jxta.rdv.dedup_probe_depth")),
      seen_(config_.seen_cache_size) {}

RendezvousService::~RendezvousService() { stop(); }

void RendezvousService::add_seed(const net::Address& address) {
  const util::MutexLock lock(mu_);
  seeds_.push_back(address);
}

void RendezvousService::start() {
  {
    const util::MutexLock lock(mu_);
    if (started_) return;
    started_ = true;
  }
  endpoint_.register_listener(
      std::string(kRdvService),
      [this](EndpointMessage msg) { on_message(std::move(msg)); });
}

void RendezvousService::stop() {
  {
    const util::MutexLock lock(mu_);
    if (!started_) return;
    started_ = false;
  }
  endpoint_.unregister_listener(std::string(kRdvService));
}

void RendezvousService::connect_tick() {
  std::vector<net::Address> seeds;
  std::vector<PeerId> lessors_now;
  {
    const util::MutexLock lock(mu_);
    if (!started_) return;
    seeds = seeds_;
    // Expire stale leases (both roles).
    const auto now = clock_.now();
    std::erase_if(lessors_, [&](const auto& kv) { return kv.second < now; });
    std::erase_if(clients_, [&](const auto& kv) { return kv.second < now; });
    for (const auto& [id, expiry] : lessors_) lessors_now.push_back(id);
  }
  // Renew existing leases.
  util::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Kind::kLeaseRequest));
  w.write_string(self_adv_.to_xml_text());
  const util::Bytes frame = w.take();
  for (const auto& rdv : lessors_now) {
    endpoint_.send(rdv, kRdvService, frame);
  }
  // Contact seeds we have no lease with yet. Seed ids are unknown until
  // the grant arrives, so the request is addressed by transport address.
  for (const auto& addr : seeds) {
    bool already_leased = false;
    {
      const util::MutexLock lock(mu_);
      for (const auto& [id, expiry] : lessors_) {
        for (const auto& a : endpoint_.addresses_of(id)) {
          if (a == addr) already_leased = true;
        }
      }
    }
    if (already_leased) continue;
    endpoint_.send_to_address(addr, kRdvService, frame);
  }
}

bool RendezvousService::connected() const {
  const util::MutexLock lock(mu_);
  const auto now = clock_.now();
  for (const auto& [id, expiry] : lessors_) {
    if (expiry >= now) return true;
  }
  return false;
}

std::vector<PeerId> RendezvousService::clients() const {
  const util::MutexLock lock(mu_);
  std::vector<PeerId> out;
  const auto now = clock_.now();
  for (const auto& [id, expiry] : clients_) {
    if (expiry >= now) out.push_back(id);
  }
  return out;
}

std::vector<PeerId> RendezvousService::lessors() const {
  const util::MutexLock lock(mu_);
  std::vector<PeerId> out;
  const auto now = clock_.now();
  for (const auto& [id, expiry] : lessors_) {
    if (expiry >= now) out.push_back(id);
  }
  return out;
}

util::Bytes RendezvousService::make_propagate_frame(
    const util::Uuid& prop_id, const PeerId& origin, std::uint32_t ttl,
    std::string_view service, const util::Bytes& payload) {
  util::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Kind::kPropagate));
  w.write_u64(prop_id.hi());
  w.write_u64(prop_id.lo());
  w.write_u64(origin.uuid().hi());
  w.write_u64(origin.uuid().lo());
  w.write_varint(ttl);
  w.write_string(service);
  w.write_bytes(payload);
  return w.take();
}

void RendezvousService::propagate(std::string_view service,
                                  util::Bytes payload) {
  const util::Uuid prop_id = util::Uuid::generate();
  propagations_originated_.inc();
  // Record our own propagation so an echo is not re-forwarded.
  seen_before(prop_id);
  forward_propagation(prop_id, endpoint_.local_peer(),
                      endpoint_.local_peer(), config_.propagate_ttl,
                      std::string(service), payload,
                      /*multicast_segment=*/true);
}

bool RendezvousService::seen_before(const util::Uuid& prop_id) {
  const util::MutexLock lock(mu_);
  std::uint32_t probes = 0;
  const bool dup = seen_.test_and_set(prop_id, &probes);
  dedup_probe_depth_.inc(probes);
  if (dup) duplicates_suppressed_.inc();
  return dup;
}

void RendezvousService::forward_propagation(
    const util::Uuid& prop_id, const PeerId& origin,
    const PeerId& arrived_from, std::uint32_t ttl, const std::string& service,
    const util::Bytes& payload, bool multicast_segment) {
  if (ttl == 0) return;
  const util::Bytes frame =
      make_propagate_frame(prop_id, origin, ttl - 1, service, payload);

  // Local network segment (multicast), unless it already arrived that way.
  if (multicast_segment) endpoint_.broadcast(kRdvService, frame);

  std::vector<PeerId> targets;
  {
    const util::MutexLock lock(mu_);
    const auto now = clock_.now();
    if (config_.is_rendezvous) {
      for (const auto& [client, expiry] : clients_) {
        if (expiry >= now) targets.push_back(client);
      }
    }
    for (const auto& [rdv, expiry] : lessors_) {
      if (expiry >= now) targets.push_back(rdv);
    }
    for (const auto& rdv : peer_rendezvous_) targets.push_back(rdv);
  }
  for (const auto& target : targets) {
    if (target == arrived_from || target == origin) continue;
    propagations_forwarded_.inc();
    endpoint_.send(target, kRdvService, frame);
  }
}

void RendezvousService::on_message(EndpointMessage msg) {
  try {
    util::ByteReader r(msg.payload);
    const auto kind = static_cast<Kind>(r.read_u8());
    switch (kind) {
      case Kind::kLeaseRequest:
        handle_lease_request(msg, r);
        return;
      case Kind::kLeaseGrant:
        handle_lease_grant(msg, r);
        return;
      case Kind::kPropagate:
        handle_propagate(msg, r);
        return;
    }
    P2P_LOG(kWarn, "rdv") << "unknown frame kind";
  } catch (const std::exception& e) {
    decode_errors_.inc();
    P2P_LOG(kWarn, "rdv") << "dropping malformed frame: " << e.what();
  }
}

void RendezvousService::handle_lease_request(const EndpointMessage& msg,
                                             util::ByteReader& r) {
  if (!config_.is_rendezvous) return;  // only rendezvous grant leases
  const std::string adv_text = r.read_string();
  const PeerAdvertisement client_adv = PeerAdvertisement::from_xml(
      xml::parse(adv_text));
  endpoint_.learn_peer(client_adv.pid, client_adv.endpoints,
                       client_adv.is_rendezvous || client_adv.is_router);
  if (peer_observer_) peer_observer_(client_adv);
  {
    const util::MutexLock lock(mu_);
    clients_[client_adv.pid] = clock_.now() + config_.lease_ttl;
    if (client_adv.is_rendezvous) peer_rendezvous_.insert(client_adv.pid);
  }
  util::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Kind::kLeaseGrant));
  w.write_string(self_adv_.to_xml_text());
  w.write_varint(static_cast<std::uint64_t>(config_.lease_ttl.count()));
  endpoint_.send(msg.src, kRdvService, w.take());
}

void RendezvousService::handle_lease_grant(const EndpointMessage& msg,
                                           util::ByteReader& r) {
  const std::string adv_text = r.read_string();
  const auto ttl_ms = static_cast<std::int64_t>(r.read_varint());
  const PeerAdvertisement rdv_adv =
      PeerAdvertisement::from_xml(xml::parse(adv_text));
  endpoint_.learn_peer(rdv_adv.pid, rdv_adv.endpoints,
                       /*relay_capable=*/true);
  if (peer_observer_) peer_observer_(rdv_adv);
  const util::MutexLock lock(mu_);
  lessors_[rdv_adv.pid] = clock_.now() + util::Duration{ttl_ms};
  if (rdv_adv.pid != msg.src) {
    // Should not happen, but keep the book consistent.
    P2P_LOG(kWarn, "rdv") << "lease grant src mismatch";
  }
}

void RendezvousService::handle_propagate(const EndpointMessage& msg,
                                         util::ByteReader& r) {
  const util::Uuid prop_id{r.read_u64(), r.read_u64()};
  const PeerId origin{util::Uuid{r.read_u64(), r.read_u64()}};
  const auto ttl = static_cast<std::uint32_t>(r.read_varint());
  const std::string service = r.read_string();
  util::Bytes payload = r.read_bytes();

  if (origin == endpoint_.local_peer()) return;  // our own echo
  if (seen_before(prop_id)) return;
  propagations_received_.inc();

  // Deliver to the local target-service listener. Reply paths are encoded
  // inside the payload by the layer above (the resolver carries its src),
  // so re-sending to ourselves loses nothing.
  endpoint_.send(endpoint_.local_peer(), service, payload);

  // A nil destination marks arrival via multicast: the rest of the segment
  // already has this propagation.
  forward_propagation(prop_id, origin, msg.src, ttl, service, payload,
                      /*multicast_segment=*/!msg.dst.is_nil());
}

}  // namespace p2p::jxta
