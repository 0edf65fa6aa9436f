// DiscoveryService: the Peer Discovery Protocol (PDP).
//
// "The PDP allows different peers to find each other. In fact, this protocol
// allows to find any kind of published advertisements. Without this
// protocol, a peer remains alone unless it knows in advance the peers it
// wants to connect to." (paper §2.2, Fig. 1)
//
// API mirrors the JXTA Discovery the paper codes against (Fig. 15/16):
//   publish / remotePublish           -> publish(), remote_publish()
//   getLocalAdvertisements(type,a,v)  -> get_local()
//   getRemoteAdvertisements(...)      -> get_remote()
//   flushAdvertisements(null, type)   -> flush()
// plus DiscoveryListener callbacks fired when remote advertisements arrive.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "jxta/advertisement.h"
#include "jxta/resolver.h"
#include "util/clock.h"
#include "util/thread_annotations.h"
#include "util/timer_queue.h"

namespace p2p::jxta {

class KadService;

// JXTA's three discovery namespaces (paper Fig. 16 uses Discovery.GROUP).
enum class DiscoveryType : std::uint8_t { kPeer = 0, kGroup = 1, kAdv = 2 };

struct DiscoveryEvent {
  DiscoveryType type{};
  util::Uuid query_id;  // nil for unsolicited pushes (remote_publish)
  PeerId source;        // who supplied the advertisements
  std::vector<AdvertisementPtr> advertisements;
};

using DiscoveryListener = std::function<void(const DiscoveryEvent&)>;

class DiscoveryService final
    : public ResolverHandler,
      public std::enable_shared_from_this<DiscoveryService> {
 public:
  static constexpr std::string_view kHandlerName = "jxta.discovery";
  // Max advertisements a peer returns per query (the paper's finder passes
  // NUMBER_OF_ADV_PER_PEER).
  static constexpr std::size_t kDefaultThreshold = 20;

  // `timers` (the owning peer's queue) carries the expiry sweep; a
  // kSimulated queue puts cache expiry on virtual time.
  DiscoveryService(ResolverService& resolver, util::Clock& clock,
                   util::TimerQueue& timers);

  // Registers the PRP handler and arms the cache expiry sweep. Call once
  // after construction (needs shared_from_this, hence not in the
  // constructor).
  void start() EXCLUDES(mu_);
  void stop() EXCLUDES(mu_);

  // Plugs in the Kademlia backend (kad_service.h). When set and ready,
  // eligible get_remote() queries route through the DHT first and fall
  // back to the rendezvous flood on a miss (same query id, so listeners
  // observe one logical query either way), and remote_publish() STOREs at
  // the k closest peers instead of flooding a push. Set before start().
  void set_dht(std::shared_ptr<KadService> dht) { dht_ = std::move(dht); }

  // --- local cache ---------------------------------------------------------
  // Stores the advertisement (replacing any previous one with the same
  // identity). lifetime_ms bounds how long it stays valid locally and is
  // shipped to remote peers alongside the advertisement.
  void publish(const Advertisement& adv, DiscoveryType type,
               std::int64_t lifetime_ms = kDefaultAdvLifetimeMs);

  // publish() + immediately push to other peers (paper Fig. 15 lines 50-53:
  // publish to stable storage, then remotePublish via the used protocols).
  void remote_publish(const Advertisement& adv, DiscoveryType type,
                      std::int64_t lifetime_ms = kDefaultAdvLifetimeMs);

  // Matching entries still alive; attr=="" matches everything, otherwise
  // the advertisement field `attr` is matched against glob `value`.
  [[nodiscard]] std::vector<AdvertisementPtr> get_local(
      DiscoveryType type, std::string_view attr = {},
      std::string_view value = {}) const EXCLUDES(mu_);

  // Sends a group-wide (or directed, if peer set) discovery query. Remote
  // answers land in the local cache and fire listeners. Returns query id.
  util::Uuid get_remote(DiscoveryType type, std::string_view attr,
                        std::string_view value,
                        std::size_t threshold = kDefaultThreshold,
                        const std::optional<PeerId>& peer = std::nullopt);

  // Drops every cached advertisement of the given type (paper Fig. 16
  // lines 9-11 flush with a null identity). Own peer adv is re-published by
  // the Peer on its next heartbeat.
  void flush(DiscoveryType type) EXCLUDES(mu_);
  // Drops one advertisement by identity.
  void flush(DiscoveryType type, const std::string& identity)
      EXCLUDES(mu_);

  // --- stable storage --------------------------------------------------------
  // "The first call writes the advertisement to the stable storage of the
  // peer (if any)" (paper §4.4.1 on Fig. 15 line 51). These persist the
  // whole cache across restarts: save_cache() writes every live entry with
  // its remaining lifetime; load_cache() merges entries back, skipping
  // ones that expired while the peer was down. Both return entry counts.
  std::size_t save_cache(const std::string& path) const EXCLUDES(mu_);
  std::size_t load_cache(const std::string& path);

  // --- listeners -----------------------------------------------------------
  std::uint64_t add_listener(DiscoveryListener listener) EXCLUDES(mu_);
  // Synchronous: blocks until an in-flight invocation of this listener (on
  // another thread) completes, so its captured state may be freed after
  // this returns. A listener must not remove itself from a foreign thread
  // while also blocking that thread.
  void remove_listener(std::uint64_t handle) EXCLUDES(mu_);

  // --- ResolverHandler -------------------------------------------------------
  std::optional<util::Bytes> process_query(const ResolverQuery& q) override;
  void process_response(const ResolverResponse& r) override;

  // Cache statistics (observability / tests).
  [[nodiscard]] std::size_t cache_size(DiscoveryType type) const
      EXCLUDES(mu_);

 private:
  struct Entry {
    AdvertisementPtr adv;
    util::TimePoint expires;
  };

  void store(const Advertisement& adv, DiscoveryType type,
             std::int64_t lifetime_ms) EXCLUDES(mu_);
  // Periodic expiry sweep: erases dead entries so get_local() never scans
  // them, recomputes the per-type earliest expiry, updates the size gauge.
  void sweep_tick() EXCLUDES(mu_);
  void fire(const DiscoveryEvent& event) EXCLUDES(mu_);
  [[nodiscard]] static util::Bytes encode_batch(
      DiscoveryType type, const std::vector<AdvertisementPtr>& advs,
      std::int64_t lifetime_ms);
  void decode_and_cache(std::span<const std::uint8_t> payload,
                        const util::Uuid& query_id, const PeerId& source);

  ResolverService& resolver_;
  util::Clock& clock_;
  util::TimerQueue& timers_;
  std::shared_ptr<KadService> dht_;  // set before start(); may be null
  obs::Counter cache_hits_;
  obs::Counter cache_misses_;
  obs::Counter remote_queries_;
  obs::Counter advs_cached_;
  // DHT-first queries that missed and fell back to the rendezvous flood.
  obs::Counter flood_fallbacks_;
  obs::Gauge cache_size_gauge_;

  mutable util::Mutex mu_{"discovery"};
  util::CondVar fire_cv_;
  bool started_ GUARDED_BY(mu_) = false;
  // type -> identity -> entry
  std::map<DiscoveryType, std::map<std::string, Entry>> cache_
      GUARDED_BY(mu_);
  // Earliest expiry per type: while now precedes it, no entry of that type
  // can be expired and get_local() skips the per-entry liveness checks.
  std::map<DiscoveryType, util::TimePoint> min_expires_ GUARDED_BY(mu_);
  std::uint64_t sweep_timer_ GUARDED_BY(mu_) = 0;
  std::map<std::uint64_t, DiscoveryListener> listeners_ GUARDED_BY(mu_);
  std::uint64_t next_listener_ GUARDED_BY(mu_) = 1;
  // fire() can run concurrently on the peer executor AND on app threads
  // (a group-wide query self-answers synchronously on the caller's
  // thread), so in-flight invocations are tracked per handle, with a
  // per-thread stack for self-removal detection.
  std::map<std::uint64_t, int> firing_counts_ GUARDED_BY(mu_);
  std::map<std::thread::id, std::vector<std::uint64_t>> firing_stacks_
      GUARDED_BY(mu_);
};

}  // namespace p2p::jxta
