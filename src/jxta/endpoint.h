// EndpointService: transport multiplexing + Endpoint Routing Protocol (ERP).
//
// The endpoint service is the bottom of the JXTA core: every protocol above
// it (resolver, rendezvous, pipes) addresses *peers*, not network addresses.
// This service
//   * owns the peer's transports (a peer may have several network
//     interfaces — paper §2.1 footnote),
//   * keeps an address book mapping PeerId -> learned transport addresses
//     (from peer advertisements and from observed message envelopes),
//   * implements ERP: when no transport can deliver directly (firewall,
//     unknown address), the message is handed to a relay — a peer flagged
//     as router/rendezvous — which forwards it (paper §2.2, Fig. 6).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "jxta/id.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/executor.h"
#include "util/thread_annotations.h"

namespace p2p::jxta {

// The unit the endpoint service moves between peers.
struct EndpointMessage {
  PeerId src;
  PeerId dst;
  std::string service;  // destination listener, e.g. "jxta.resolver"
  std::uint32_t ttl = 4;  // remaining relay hops
  util::Uuid msg_id = util::Uuid::generate();
  util::Bytes payload;

  [[nodiscard]] util::Bytes serialize() const;
  static EndpointMessage deserialize(std::span<const std::uint8_t> data);
  // Non-throwing decode for the datagram receive path: nullopt (and a
  // classified reason in *error when non-null) on malformed input.
  static std::optional<EndpointMessage> try_deserialize(
      std::span<const std::uint8_t> data,
      util::DecodeError* error = nullptr);
};

// Per-peer traffic counters surfaced by the Peer Information Protocol.
// Since the obs layer landed this is a *view* assembled from the peer's
// metrics registry (net.* counters), kept as a struct so PIP answers and
// existing callers are unchanged.
struct EndpointTraffic {
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t msgs_relayed = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t send_failures = 0;
};

class EndpointService {
 public:
  // Listeners run on the peer's executor; they may call back into the
  // endpoint service freely.
  using Listener = std::function<void(EndpointMessage)>;

  // `metrics` / `tracer` are normally shared in by the owning Peer so every
  // service on the peer writes to one registry; when absent (bare service
  // in a unit test) the endpoint creates private ones.
  EndpointService(PeerId self, util::SerialExecutor& executor,
                  std::shared_ptr<obs::Registry> metrics = nullptr,
                  std::shared_ptr<obs::Tracer> tracer = nullptr);

  // --- observability -----------------------------------------------------
  // The peer-wide metrics registry / tracer. Services above the endpoint
  // (resolver, rendezvous, wire, pipes, TPS) resolve their instruments here.
  [[nodiscard]] obs::Registry& metrics() const { return *metrics_; }
  [[nodiscard]] const std::shared_ptr<obs::Registry>& metrics_ptr() const {
    return metrics_;
  }
  [[nodiscard]] obs::Tracer& tracer() const { return *tracer_; }
  [[nodiscard]] const std::shared_ptr<obs::Tracer>& tracer_ptr() const {
    return tracer_;
  }

  // --- configuration (before or after start; thread-safe) ---------------
  void add_transport(std::shared_ptr<net::Transport> transport)
      EXCLUDES(mu_);
  void set_router(bool is_router) { is_router_ = is_router; }
  [[nodiscard]] bool is_router() const { return is_router_; }

  [[nodiscard]] const PeerId& local_peer() const { return self_; }
  [[nodiscard]] std::vector<net::Address> local_addresses() const
      EXCLUDES(mu_);

  // --- address book ------------------------------------------------------
  // Records addresses for a peer (newest first). `relay_capable` marks the
  // peer usable as an ERP relay of last resort.
  void learn_peer(const PeerId& peer, std::vector<net::Address> addresses,
                  bool relay_capable) EXCLUDES(mu_);
  // Records an ERP route: to reach `dst`, forward via `via`.
  void learn_route(const PeerId& dst, const PeerId& via) EXCLUDES(mu_);
  void forget_peer(const PeerId& peer) EXCLUDES(mu_);
  [[nodiscard]] std::vector<net::Address> addresses_of(
      const PeerId& peer) const EXCLUDES(mu_);
  [[nodiscard]] std::vector<PeerId> known_relays() const EXCLUDES(mu_);

  // --- messaging -----------------------------------------------------------
  void register_listener(std::string service, Listener listener)
      EXCLUDES(mu_);
  // Synchronous: blocks until an in-flight invocation of this service's
  // listener completes (unless called from the dispatching executor thread
  // itself), so listener-captured state may be freed afterwards.
  void unregister_listener(const std::string& service) EXCLUDES(mu_);

  // Delivers to dst's `service` listener. Local destinations dispatch via
  // the executor. Remote: direct transports first, then learned routes,
  // then any relay-capable peer. Returns false if nothing accepted the
  // message (delivery remains best-effort even when true).
  bool send(const PeerId& dst, std::string_view service, util::Bytes payload);

  // Multicasts to `service` on every peer of the local segment, over every
  // transport that supports broadcasting (the JXTA LAN-discovery path).
  // The local peer does NOT receive its own broadcast.
  bool broadcast(std::string_view service, util::Bytes payload);

  // Delivers to whatever peer listens at a known transport address (nil
  // destination id). Used to bootstrap: contacting a seed rendezvous whose
  // peer id is not known yet. The receiver accepts it as its own.
  bool send_to_address(const net::Address& address, std::string_view service,
                       util::Bytes payload);

  [[nodiscard]] EndpointTraffic traffic() const;

  // Stops dispatching received datagrams. Transports are closed.
  void stop();

 private:
  void on_datagram(net::Datagram d);
  void dispatch(EndpointMessage msg);
  bool send_message(const EndpointMessage& msg);
  bool send_direct(const PeerId& next_hop, const EndpointMessage& msg);

  const PeerId self_;
  util::SerialExecutor& executor_;
  std::atomic<bool> is_router_{false};
  std::atomic<bool> stopped_{false};

  mutable util::Mutex mu_{"endpoint"};
  util::CondVar dispatch_cv_;
  // Each transport with its "net.<scheme>.send_failures" counter, resolved
  // once in add_transport().
  struct TransportEntry {
    std::shared_ptr<net::Transport> transport;
    obs::Counter send_failures;
  };
  std::vector<TransportEntry> transports_ GUARDED_BY(mu_);
  std::unordered_map<std::string, Listener> listeners_ GUARDED_BY(mu_);
  // Listener currently being invoked on the executor thread.
  std::string dispatching_service_ GUARDED_BY(mu_);

  struct PeerRecord {
    std::vector<net::Address> addresses;
    bool relay_capable = false;
    std::vector<PeerId> via;  // learned relays for this destination
  };
  std::unordered_map<PeerId, PeerRecord> address_book_ GUARDED_BY(mu_);

  std::shared_ptr<obs::Registry> metrics_;
  std::shared_ptr<obs::Tracer> tracer_;
  obs::Counter msgs_sent_;
  obs::Counter msgs_received_;
  obs::Counter msgs_relayed_;
  obs::Counter bytes_sent_;
  obs::Counter bytes_received_;
  obs::Counter send_failures_;
  // Malformed datagrams rejected at the envelope decode (trust boundary).
  obs::Counter decode_errors_;
};

}  // namespace p2p::jxta
