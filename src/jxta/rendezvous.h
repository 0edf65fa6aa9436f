// RendezvousService: leases and message propagation.
//
// "Rendez-vous (rdv) are specific peers that keep track of information about
// peers that are connected. Rendez-vous allow to make the bridge between two
// different sub-networks. They are mainly used to dispatch information and
// discovery queries between peers." (paper §2.1)
//
// Edge peers lease onto one or more rendezvous; a rendezvous tracks its
// clients and forwards *propagated* messages to all of them and to fellow
// rendezvous. Propagation is what carries resolver queries (and thus
// discovery) and JXTA-WIRE traffic beyond the local network segment. Loop
// suppression uses a bounded seen-set of propagation ids; multicast on the
// local segment is used in addition, so rdv-less LANs still work.
#pragma once

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "jxta/advertisement.h"
#include "jxta/endpoint.h"
#include "util/clock.h"
#include "util/dedup_ring.h"
#include "util/thread_annotations.h"

namespace p2p::jxta {

struct RendezvousConfig {
  bool is_rendezvous = false;
  // How long a granted lease lasts before the client must renew. Renewal
  // itself rides the peer's heartbeat (PeerConfig::heartbeat), which must
  // therefore be comfortably shorter than this.
  util::Duration lease_ttl{30'000};
  // Propagation hop budget.
  std::uint32_t propagate_ttl = 7;
  // Loop-suppression memory (number of remembered propagation ids).
  std::size_t seen_cache_size = 4096;
};

class RendezvousService {
 public:
  RendezvousService(EndpointService& endpoint, util::Clock& clock,
                    RendezvousConfig config,
                    PeerAdvertisement self_advertisement);
  ~RendezvousService();

  RendezvousService(const RendezvousService&) = delete;
  RendezvousService& operator=(const RendezvousService&) = delete;

  // Bootstrap rendezvous this peer should lease onto. Addresses are fed to
  // the endpoint address book; the id may be nil if unknown (it is learned
  // from the lease grant).
  void add_seed(const net::Address& address) EXCLUDES(mu_);

  // Registers endpoint listeners. Must be called before traffic flows.
  void start() EXCLUDES(mu_);
  void stop() EXCLUDES(mu_);

  // Called with every peer advertisement learned from lease traffic (a
  // client requesting a lease, a rendezvous granting one). The Peer uses
  // it to feed DHT-capable contacts into the Kademlia routing table. Set
  // before start(); invoked outside mu_.
  using PeerObserver = std::function<void(const PeerAdvertisement&)>;
  void set_peer_observer(PeerObserver observer) {
    peer_observer_ = std::move(observer);
  }

  // Client: sends/renews lease requests to all known rendezvous. Invoked
  // periodically by the peer's timer; also callable directly (tests).
  void connect_tick() EXCLUDES(mu_);

  // True if at least one unexpired lease is held.
  [[nodiscard]] bool connected() const EXCLUDES(mu_);
  // Rendezvous: currently leased clients.
  [[nodiscard]] std::vector<PeerId> clients() const EXCLUDES(mu_);
  // Rendezvous peers we hold a lease on.
  [[nodiscard]] std::vector<PeerId> lessors() const EXCLUDES(mu_);

  // Propagates `payload` to listeners of `service` on every reachable group
  // member: local segment (multicast), own clients (if rdv) and peer
  // rendezvous. The message is NOT delivered to the local listener — the
  // caller decides whether to self-deliver.
  void propagate(std::string_view service, util::Bytes payload)
      EXCLUDES(mu_);

 private:
  // Wire envelope kinds on the "jxta.rdv" listener.
  enum class Kind : std::uint8_t {
    kLeaseRequest = 1,
    kLeaseGrant = 2,
    kPropagate = 3,
  };

  void on_message(EndpointMessage msg);
  void handle_lease_request(const EndpointMessage& msg, util::ByteReader& r);
  void handle_lease_grant(const EndpointMessage& msg, util::ByteReader& r);
  void handle_propagate(const EndpointMessage& msg, util::ByteReader& r);
  // `multicast_segment`: whether to (re)multicast on the local segment.
  // A propagation that ARRIVED via multicast is never re-multicast — every
  // node on the segment already received it — only forwarded across
  // rendezvous links (which is what bridges sub-networks).
  void forward_propagation(const util::Uuid& prop_id, const PeerId& origin,
                           const PeerId& arrived_from, std::uint32_t ttl,
                           const std::string& service,
                           const util::Bytes& payload,
                           bool multicast_segment);
  // Returns true when the id was seen before (and records it otherwise).
  bool seen_before(const util::Uuid& prop_id) EXCLUDES(mu_);
  [[nodiscard]] util::Bytes make_propagate_frame(const util::Uuid& prop_id,
                                                 const PeerId& origin,
                                                 std::uint32_t ttl,
                                                 std::string_view service,
                                                 const util::Bytes& payload);

  EndpointService& endpoint_;
  util::Clock& clock_;
  const RendezvousConfig config_;
  const PeerAdvertisement self_adv_;
  PeerObserver peer_observer_;  // set before start(); called outside mu_
  obs::Counter propagations_originated_;
  obs::Counter propagations_received_;
  obs::Counter propagations_forwarded_;
  obs::Counter duplicates_suppressed_;
  // Malformed rendezvous frames rejected at decode (trust boundary).
  obs::Counter decode_errors_;
  // Cumulative table slots probed by seen_before. The ratio to
  // propagations seen is the effective probe depth — healthy is ~1.5.
  obs::Counter dedup_probe_depth_;

  mutable util::Mutex mu_{"rendezvous"};
  bool started_ GUARDED_BY(mu_) = false;
  std::vector<net::Address> seeds_ GUARDED_BY(mu_);
  // Rdv role: client id -> lease expiry.
  std::unordered_map<PeerId, util::TimePoint> clients_ GUARDED_BY(mu_);
  // Client role: rdv id -> lease expiry.
  std::unordered_map<PeerId, util::TimePoint> lessors_ GUARDED_BY(mu_);
  // Rdv mesh: other rendezvous peers we know of.
  std::unordered_set<PeerId> peer_rendezvous_ GUARDED_BY(mu_);
  // Loop suppression: the last seen_cache_size propagation ids.
  util::DedupRing seen_ GUARDED_BY(mu_);
};

}  // namespace p2p::jxta
