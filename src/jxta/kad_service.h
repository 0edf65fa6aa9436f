// KadService: a Kademlia-style DHT as an alternative discovery backend.
//
// The paper's PDP resolves every advertisement query by flooding through
// rendezvous peers — O(N) messages per lookup. This service keys
// advertisements by XOR distance in the same 128-bit space as peer ids and
// routes queries iteratively through a k-bucket table instead: STORE places
// a record at the k closest peers on remote_publish, FIND_VALUE walks
// greedily toward the key with parallelism α, so a lookup costs
// O(α·log N) RPCs. DiscoveryService consults it first (when configured and
// ready) and falls back to the rendezvous flood deterministically — peers
// that do not advertise the DHT capability interoperate unchanged, exactly
// like the batch-frame and codec negotiations before it.
//
// RPCs ride the resolver as *directed* queries on the "jxta.kad" handler;
// frames are the frozen binary layout in kad_wire.h, decoded only through
// the non-throwing ByteReader surface. Per-RPC timeouts (with one
// doubled-timeout retry) and liveness pings are deadlines on the shared
// TimerQueue — no thread ever parks in a sleep.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "jxta/advertisement.h"
#include "jxta/kad_routing_table.h"
#include "jxta/kad_wire.h"
#include "jxta/resolver.h"
#include "util/clock.h"
#include "util/thread_annotations.h"
#include "util/timer_queue.h"

namespace p2p::jxta {

struct KadConfig {
  // Master switch: when false the Peer neither creates the service nor
  // advertises the capability, and discovery floods as before.
  bool enabled = false;
  // Bucket capacity and STORE replication factor.
  std::size_t k = 16;
  // Lookup parallelism: concurrent FIND_* RPCs per iterative lookup.
  std::size_t alpha = 3;
  // First-attempt RPC deadline; each retry doubles it.
  util::Duration rpc_timeout{500};
  // Retries after the first attempt before the peer counts as failed.
  std::uint32_t rpc_retries = 1;
  // Cadence of the maintenance tick (liveness pings, record expiry).
  util::Duration liveness_interval{10'000};
  // Contacts silent for longer than this get a liveness ping.
  util::Duration staleness{30'000};
  // Caps on the local record store (a hostile peer controls STOREs).
  std::size_t max_store_keys = 4096;
  std::size_t max_records_per_key = 16;
  // When true, DiscoveryService routes eligible get_remote() queries
  // through the DHT first; the flood remains the fallback.
  bool prefer_dht = true;
};

class KadService final : public ResolverHandler,
                         public std::enable_shared_from_this<KadService> {
 public:
  static constexpr std::string_view kHandlerName = "jxta.kad";

  // Miss: empty records. `hops` is the depth of the deepest RPC issued.
  using ValueCallback = std::function<void(
      std::vector<KadRecord> records, std::uint8_t adv_type,
      std::uint32_t hops)>;
  using NodeCallback = std::function<void(std::vector<PeerId> closest)>;

  // `timers` (the owning peer's queue) carries RPC timeouts and the
  // maintenance tick; a kSimulated queue puts them on virtual time.
  KadService(ResolverService& resolver, util::Clock& clock, KadConfig config,
             util::TimerQueue& timers);

  // Registers the PRP handler and arms the maintenance tick. Needs
  // shared_from_this, hence not in the constructor.
  void start() EXCLUDES(mu_);
  void stop() EXCLUDES(mu_);

  // Records a DHT-capable peer (from its advertisement or a lease): learns
  // its addresses into the endpoint address book and inserts it into the
  // routing table (full buckets ping their LRU contact first — the classic
  // eviction rule). The first contact triggers a self-lookup to populate
  // the table (bootstrap).
  void observe_peer(const PeerId& id,
                    const std::vector<net::Address>& addresses) EXCLUDES(mu_);

  // True when the routing table has at least one contact (a lookup can
  // route somewhere). Discovery floods while this is false.
  [[nodiscard]] bool ready() const EXCLUDES(mu_);

  // The well-known key an (advertisement type, attr, value) query hashes
  // to, or nullopt when the attribute is not DHT-indexed. Exact-match
  // queries on "Name" and id-like attributes are indexed; glob queries are
  // not (they stay on the flood).
  [[nodiscard]] static std::optional<util::Uuid> advertisement_key(
      std::uint8_t adv_type, std::string_view attr, std::string_view value);

  // Stores `adv` at the k closest peers to each of its index keys (Name
  // and ID), and locally. Fire-and-forget: failures fall back to the
  // flood-answerable local cache of the publisher.
  void store_advertisement(std::uint8_t adv_type, const Advertisement& adv,
                           std::int64_t lifetime_ms) EXCLUDES(mu_);

  // Iterative FIND_VALUE toward `key`. The callback fires exactly once,
  // on hit or on converged miss (possibly synchronously when no contact
  // can be routed to).
  void lookup_value(const util::Uuid& key, ValueCallback cb) EXCLUDES(mu_);

  // Iterative FIND_NODE: converges on the k closest live peers to `key`.
  void lookup_node(const util::Uuid& key, NodeCallback cb) EXCLUDES(mu_);

  // --- ResolverHandler ----------------------------------------------------
  std::optional<util::Bytes> process_query(const ResolverQuery& q) override;
  void process_response(const ResolverResponse& r) override;

  // --- introspection (tests / observability) ------------------------------
  [[nodiscard]] const KadConfig& config() const { return config_; }
  [[nodiscard]] std::size_t routing_size() const EXCLUDES(mu_);
  [[nodiscard]] std::size_t store_size() const EXCLUDES(mu_);
  [[nodiscard]] const PeerId& self() const { return self_; }

 private:
  // An RPC we sent and have not heard back on.
  struct PendingRpc {
    KadOp op = KadOp::kPing;
    PeerId peer;
    util::Bytes frame;         // re-sent verbatim on retry
    std::uint64_t lookup_id = 0;  // 0: standalone (ping / store)
    std::uint32_t depth = 0;      // hop depth within the lookup
    std::uint32_t attempt = 0;
    util::Duration timeout{0};
    // Bucket-full eviction probe: the newcomer that replaces `peer` if
    // this ping times out.
    std::optional<PeerId> replacement;
  };

  struct LookupEntry {
    PeerId id;
    std::uint32_t depth = 1;
    enum class State : std::uint8_t { kUntried, kInflight, kDone, kFailed };
    State state = State::kUntried;
  };

  struct Lookup {
    std::uint64_t id = 0;
    util::Uuid target;
    bool find_value = false;
    std::vector<LookupEntry> shortlist;  // sorted by XOR distance to target
    std::size_t inflight = 0;
    std::uint32_t max_depth = 0;
    ValueCallback value_cb;
    NodeCallback node_cb;
  };

  // One directed RPC queued while mu_ was held, performed after release.
  struct Send {
    util::Uuid query_id;
    PeerId dst;
    util::Bytes frame;
    util::Duration timeout;
  };
  using Actions = std::vector<Send>;
  using Callbacks = std::vector<std::function<void()>>;

  struct StoredRecord {
    std::string xml;
    util::TimePoint expires;
  };
  struct KeyStore {
    std::uint8_t adv_type = 0;
    std::map<std::string, StoredRecord> by_identity;
  };

  void perform(Actions actions) EXCLUDES(mu_);
  void on_rpc_timeout(const util::Uuid& query_id) EXCLUDES(mu_);
  void maintenance_tick() EXCLUDES(mu_);

  // Inserts `id` into the routing table; a full bucket queues an eviction
  // ping of its LRU contact onto `actions`.
  void observe_locked(const PeerId& id, Actions& actions) REQUIRES(mu_);
  // Queues an RPC: registers the pending entry and the send.
  util::Uuid send_rpc_locked(const PeerId& dst, KadOp op, util::Bytes frame,
                             std::uint64_t lookup_id, std::uint32_t depth,
                             std::optional<PeerId> replacement,
                             Actions& actions) REQUIRES(mu_);
  void start_lookup_locked(const util::Uuid& target, bool find_value,
                           ValueCallback vcb, NodeCallback ncb,
                           Actions& actions, Callbacks& cbs) REQUIRES(mu_);
  // Issues FIND_* RPCs up to α in flight; finishes the lookup when the k
  // closest candidates are all resolved.
  void continue_lookup_locked(Lookup& lookup, Actions& actions,
                              Callbacks& cbs) REQUIRES(mu_);
  void finish_lookup_locked(Lookup& lookup, std::vector<KadRecord> records,
                            std::uint8_t adv_type, Callbacks& cbs)
      REQUIRES(mu_);
  void insert_shortlist_locked(Lookup& lookup, const PeerId& id,
                               std::uint32_t depth) REQUIRES(mu_);
  // STORE fan-out once a node lookup has converged on the k closest.
  void send_store(const util::Uuid& key, std::uint8_t adv_type,
                  const std::string& xml, std::int64_t lifetime_ms,
                  const std::vector<PeerId>& closest) EXCLUDES(mu_);
  [[nodiscard]] std::vector<KadRecord> find_records_locked(
      const util::Uuid& key) REQUIRES(mu_);
  [[nodiscard]] std::vector<KadContact> closest_contacts_locked(
      const util::Uuid& key, const PeerId& exclude) REQUIRES(mu_);

  ResolverService& resolver_;
  util::Clock& clock_;
  util::TimerQueue& timers_;
  const KadConfig config_;
  const PeerId self_;
  obs::Counter lookups_;
  obs::Histogram lookup_hops_;
  obs::Counter rpcs_sent_;
  obs::Counter rpc_timeouts_;
  obs::Counter bucket_evictions_;
  obs::Counter stores_;
  // Malformed kad frames rejected at decode (trust boundary).
  obs::Counter decode_errors_;

  mutable util::Mutex mu_{"kad"};
  bool started_ GUARDED_BY(mu_) = false;
  KadRoutingTable routing_ GUARDED_BY(mu_);
  std::unordered_map<util::Uuid, PendingRpc> pending_ GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, Lookup> lookups_live_ GUARDED_BY(mu_);
  std::uint64_t next_lookup_ GUARDED_BY(mu_) = 1;
  std::map<util::Uuid, KeyStore> store_ GUARDED_BY(mu_);
  std::uint64_t tick_timer_ GUARDED_BY(mu_) = 0;
  bool bootstrapped_ GUARDED_BY(mu_) = false;
};

}  // namespace p2p::jxta
