#include "jxta/endpoint.h"

#include <algorithm>

#include "util/logging.h"

namespace p2p::jxta {

util::Bytes EndpointMessage::serialize() const {
  util::ByteWriter w;
  w.write_u64(src.uuid().hi());
  w.write_u64(src.uuid().lo());
  w.write_u64(dst.uuid().hi());
  w.write_u64(dst.uuid().lo());
  w.write_string(service);
  w.write_varint(ttl);
  w.write_u64(msg_id.hi());
  w.write_u64(msg_id.lo());
  w.write_bytes(payload);
  return w.take();
}

std::optional<EndpointMessage> EndpointMessage::try_deserialize(
    std::span<const std::uint8_t> data, util::DecodeError* error) {
  util::ByteReader r(data);
  EndpointMessage m;
  std::uint64_t src_hi = 0, src_lo = 0, dst_hi = 0, dst_lo = 0;
  std::uint64_t id_hi = 0, id_lo = 0, ttl = 0;
  const bool ok = r.try_read_u64(src_hi) && r.try_read_u64(src_lo) &&
                  r.try_read_u64(dst_hi) && r.try_read_u64(dst_lo) &&
                  r.try_read_string(m.service) && r.try_read_varint(ttl) &&
                  r.try_read_u64(id_hi) && r.try_read_u64(id_lo) &&
                  r.try_read_bytes(m.payload);
  if (!ok) {
    if (error != nullptr) *error = r.error();
    return std::nullopt;
  }
  m.src = PeerId{util::Uuid{src_hi, src_lo}};
  m.dst = PeerId{util::Uuid{dst_hi, dst_lo}};
  m.ttl = static_cast<std::uint32_t>(ttl);
  m.msg_id = util::Uuid{id_hi, id_lo};
  return m;
}

EndpointMessage EndpointMessage::deserialize(
    std::span<const std::uint8_t> data) {
  util::DecodeError error = util::DecodeError::kNone;
  auto m = try_deserialize(data, &error);
  if (!m) {
    throw util::ParseError("EndpointMessage: " +
                           std::string(util::to_string(error)));
  }
  return std::move(*m);
}

EndpointService::EndpointService(PeerId self, util::SerialExecutor& executor,
                                 std::shared_ptr<obs::Registry> metrics,
                                 std::shared_ptr<obs::Tracer> tracer)
    : self_(self),
      executor_(executor),
      metrics_(metrics ? std::move(metrics)
                       : std::make_shared<obs::Registry>()),
      tracer_(tracer ? std::move(tracer) : std::make_shared<obs::Tracer>()),
      msgs_sent_(metrics_->counter("net.msgs_sent")),
      msgs_received_(metrics_->counter("net.msgs_received")),
      msgs_relayed_(metrics_->counter("net.msgs_relayed")),
      bytes_sent_(metrics_->counter("net.bytes_sent")),
      bytes_received_(metrics_->counter("net.bytes_received")),
      send_failures_(metrics_->counter("net.send_failures")),
      decode_errors_(metrics_->counter("net.decode_errors")) {}

void EndpointService::add_transport(
    std::shared_ptr<net::Transport> transport) {
  transport->set_receiver([this](net::Datagram d) { on_datagram(std::move(d)); });
  // Point the transport's own instruments (net.connections_active & co. for
  // TCP) at the peer-wide registry so one metrics dump covers both layers.
  transport->bind_metrics(metrics_);
  const obs::Counter failures =
      metrics_->counter("net." + transport->scheme() + ".send_failures");
  const util::MutexLock lock(mu_);
  transports_.push_back({std::move(transport), failures});
}

std::vector<net::Address> EndpointService::local_addresses() const {
  const util::MutexLock lock(mu_);
  std::vector<net::Address> out;
  out.reserve(transports_.size());
  for (const auto& e : transports_) out.push_back(e.transport->local_address());
  return out;
}

void EndpointService::learn_peer(const PeerId& peer,
                                 std::vector<net::Address> addresses,
                                 bool relay_capable) {
  if (peer == self_) return;
  const util::MutexLock lock(mu_);
  PeerRecord& rec = address_book_[peer];
  // Newest knowledge first; drop duplicates.
  for (auto it = addresses.rbegin(); it != addresses.rend(); ++it) {
    std::erase(rec.addresses, *it);
    rec.addresses.insert(rec.addresses.begin(), *it);
  }
  rec.relay_capable = rec.relay_capable || relay_capable;
}

void EndpointService::learn_route(const PeerId& dst, const PeerId& via) {
  if (dst == self_ || via == dst) return;
  const util::MutexLock lock(mu_);
  PeerRecord& rec = address_book_[dst];
  if (std::find(rec.via.begin(), rec.via.end(), via) == rec.via.end()) {
    rec.via.insert(rec.via.begin(), via);
  }
}

void EndpointService::forget_peer(const PeerId& peer) {
  const util::MutexLock lock(mu_);
  address_book_.erase(peer);
}

std::vector<net::Address> EndpointService::addresses_of(
    const PeerId& peer) const {
  const util::MutexLock lock(mu_);
  const auto it = address_book_.find(peer);
  return it != address_book_.end() ? it->second.addresses
                                   : std::vector<net::Address>{};
}

std::vector<PeerId> EndpointService::known_relays() const {
  const util::MutexLock lock(mu_);
  std::vector<PeerId> out;
  for (const auto& [peer, rec] : address_book_) {
    if (rec.relay_capable) out.push_back(peer);
  }
  return out;
}

void EndpointService::register_listener(std::string service,
                                        Listener listener) {
  const util::MutexLock lock(mu_);
  listeners_[std::move(service)] = std::move(listener);
}

void EndpointService::unregister_listener(const std::string& service) {
  const util::MutexLock lock(mu_);
  listeners_.erase(service);
  // Dispatch happens on the executor thread; if that's not us, wait until
  // any in-flight invocation of this service finishes, so callers may free
  // listener-captured state once we return.
  if (!executor_.on_executor_thread()) {
    while (dispatching_service_ == service) dispatch_cv_.wait(mu_);
  }
}

bool EndpointService::send(const PeerId& dst, std::string_view service,
                           util::Bytes payload) {
  if (stopped_) return false;
  EndpointMessage msg;
  msg.src = self_;
  msg.dst = dst;
  msg.service = std::string(service);
  msg.payload = std::move(payload);
  msgs_sent_.inc();
  bytes_sent_.inc(msg.payload.size());
  if (dst == self_) {
    executor_.post([this, msg = std::move(msg)]() mutable {
      dispatch(std::move(msg));
    });
    return true;
  }
  if (send_message(msg)) return true;
  send_failures_.inc();
  return false;
}

bool EndpointService::broadcast(std::string_view service,
                                util::Bytes payload) {
  if (stopped_) return false;
  EndpointMessage msg;
  msg.src = self_;
  msg.dst = PeerId{};  // nil: any receiver
  msg.service = std::string(service);
  msg.payload = std::move(payload);
  const util::Bytes wire = msg.serialize();
  std::vector<TransportEntry> transports;
  {
    const util::MutexLock lock(mu_);
    transports = transports_;
  }
  bool any = false;
  for (const auto& [t, failures] : transports) {
    if (t->broadcast(wire)) {
      any = true;
    } else {
      failures.inc();
    }
  }
  if (any) {
    msgs_sent_.inc();
    bytes_sent_.inc(wire.size());
  }
  return any;
}

bool EndpointService::send_to_address(const net::Address& address,
                                      std::string_view service,
                                      util::Bytes payload) {
  if (stopped_) return false;
  EndpointMessage msg;
  msg.src = self_;
  msg.dst = PeerId{};  // nil: accepted by whoever listens there
  msg.service = std::string(service);
  msg.payload = std::move(payload);
  const util::Bytes wire = msg.serialize();
  std::vector<TransportEntry> transports;
  {
    const util::MutexLock lock(mu_);
    transports = transports_;
  }
  for (const auto& [t, failures] : transports) {
    if (t->scheme() != address.scheme()) continue;
    if (t->send(address, wire)) {
      msgs_sent_.inc();
      bytes_sent_.inc(wire.size());
      return true;
    }
    failures.inc();
  }
  send_failures_.inc();
  return false;
}

bool EndpointService::send_direct(const PeerId& next_hop,
                                  const EndpointMessage& msg) {
  const util::Bytes wire = msg.serialize();
  std::vector<net::Address> addresses = addresses_of(next_hop);
  std::vector<TransportEntry> transports;
  {
    const util::MutexLock lock(mu_);
    transports = transports_;
  }
  for (const auto& addr : addresses) {
    for (const auto& [t, failures] : transports) {
      if (t->scheme() != addr.scheme()) continue;
      if (t->send(addr, wire)) return true;
      failures.inc();
    }
  }
  return false;
}

bool EndpointService::send_message(const EndpointMessage& msg) {
  // 1. Direct delivery over any shared transport.
  if (send_direct(msg.dst, msg)) return true;
  if (msg.ttl == 0) return false;

  EndpointMessage relayed = msg;
  relayed.ttl = msg.ttl - 1;

  // 2. Learned ERP routes for this destination.
  std::vector<PeerId> vias;
  {
    const util::MutexLock lock(mu_);
    const auto it = address_book_.find(msg.dst);
    if (it != address_book_.end()) vias = it->second.via;
  }
  for (const auto& via : vias) {
    if (via == self_) continue;
    if (send_direct(via, relayed)) return true;
  }

  // 3. Relay of last resort: any known router/rendezvous peer.
  for (const auto& relay : known_relays()) {
    if (relay == msg.src || relay == msg.dst) continue;
    if (send_direct(relay, relayed)) return true;
  }
  return false;
}

void EndpointService::on_datagram(net::Datagram d) {
  if (stopped_) return;
  // Trust boundary: d.payload is whatever a peer (or the network) sent.
  // The envelope decode is non-throwing — a malformed datagram is a
  // counted, recoverable event, not an exception on a transport thread.
  util::DecodeError error = util::DecodeError::kNone;
  auto decoded = EndpointMessage::try_deserialize(d.payload, &error);
  if (!decoded) {
    decode_errors_.inc();
    P2P_LOG(kWarn, "endpoint") << "dropping malformed datagram ("
                               << util::to_string(error) << ")";
    return;
  }
  EndpointMessage msg = std::move(*decoded);
  // Observed envelope address: the reply path to msg.src. This is how a
  // rendezvous learns how to reach a firewalled client (the client's
  // outbound lease punched the hole; we reuse its source address).
  if (!msg.src.is_nil() && msg.src != self_) {
    learn_peer(msg.src, {d.src}, /*relay_capable=*/false);
  }
  if (!msg.dst.is_nil() && msg.dst != self_) {
    // ERP relay duty.
    if (!is_router_ || msg.ttl == 0) return;
    EndpointMessage fwd = std::move(msg);
    fwd.ttl -= 1;
    msgs_relayed_.inc();
    // Forward off the transport thread to keep transports non-blocking.
    executor_.post([this, fwd = std::move(fwd)] { send_message(fwd); });
    return;
  }
  msgs_received_.inc();
  bytes_received_.inc(msg.payload.size());
  executor_.post([this, msg = std::move(msg)]() mutable {
    dispatch(std::move(msg));
  });
}

void EndpointService::dispatch(EndpointMessage msg) {
  Listener listener;
  {
    const util::MutexLock lock(mu_);
    const auto it = listeners_.find(msg.service);
    if (it != listeners_.end()) {
      listener = it->second;
      dispatching_service_ = msg.service;
    }
  }
  if (!listener) {
    P2P_LOG(kDebug, "endpoint")
        << "no listener for service '" << msg.service << "'";
    return;
  }
  const std::string service = msg.service;
  try {
    listener(std::move(msg));
  } catch (const std::exception& e) {
    P2P_LOG(kError, "endpoint")
        << "listener for '" << service << "' threw: " << e.what();
  }
  {
    const util::MutexLock lock(mu_);
    dispatching_service_.clear();
  }
  dispatch_cv_.notify_all();
}

EndpointTraffic EndpointService::traffic() const {
  EndpointTraffic t;
  t.msgs_sent = msgs_sent_.value();
  t.msgs_received = msgs_received_.value();
  t.msgs_relayed = msgs_relayed_.value();
  t.bytes_sent = bytes_sent_.value();
  t.bytes_received = bytes_received_.value();
  t.send_failures = send_failures_.value();
  return t;
}

void EndpointService::stop() {
  if (stopped_.exchange(true)) return;
  std::vector<TransportEntry> transports;
  {
    const util::MutexLock lock(mu_);
    transports = transports_;
  }
  for (const auto& e : transports) e.transport->close();
}

}  // namespace p2p::jxta
