// TpsSession: the type-erased core behind TpsEngine<T>/TpsInterface<T>.
//
// One session serves one subscribed event type (plus, for publishing, every
// ancestor of any published object's dynamic type). Responsibilities map to
// the paper's blocks (Fig. 10):
//   TPSEngine  -> this class (collect/dispatch publications, subscriptions)
//   Advs       -> AdvertisementsCreator + TpsAdvertisementsFinder +
//                 TpsWireServiceFinder (tps/advertisements.h)
//   IR         -> the subscriber table (interface repository)
//   Connections-> per-advertisement wire pipes ("Binding" below)
//
// The three SR functionalities (paper §4.4 footnote) live here:
//   (1) advertisement minimization  — search before create (init()),
//   (2) multiple advertisements     — every discovered advertisement of a
//       type gets its own pipes; publishing fans out to all of them,
//   (3) duplicate suppression       — per-event UUIDs and a bounded
//       seen-set make delivery exactly-once per session despite (2).
//
// Type-hierarchy dispatch (paper Fig. 7): publishing an event of dynamic
// type D sends it on the wire of D *and of every registered ancestor of D*;
// a subscriber session for type T listens only on T's wire, so it receives
// all events whose type is T or a subtype — each exactly once.
//
// Fast publish pipeline (TpsConfig::batching, off by default): publish()
// validates, encodes once (tps/encode_cache.h) and enqueues; a per-session
// sender thread drains the bounded queue, coalescing publications into
// batch frames (tps/batch.h) — one wire message for many events. See
// DESIGN.md "The publish pipeline".
//
// Fast receive pipeline (TpsConfig::delivery_workers, off by default): the
// wire listener thread only dedups and decodes (once per event); subscriber
// callbacks run on a bounded per-session worker pool (tps/dispatch.h) with
// per-subscriber FIFO order, so one slow subscriber no longer stalls the
// transport. See DESIGN.md "The delivery pipeline".
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <span>
#include <thread>
#include <unordered_set>

#include "serial/type_registry.h"
#include "tps/advertisements.h"
#include "tps/codec.h"
#include "tps/dispatch.h"
#include "tps/encode_cache.h"
#include "tps/exceptions.h"
#include "tps/result.h"
#include "tps/subscription.h"
#include "util/dedup_ring.h"
#include "util/thread_annotations.h"

namespace p2p::tps {

struct TpsConfig {
  // How long init() searches for an existing type advertisement before
  // creating its own (paper §4.1: "If the application does not find such
  // advertisement in a specific amount of time, it creates its own one").
  util::Duration adv_search_timeout{1500};
  // Finder re-query period ("keeps trying to find others in order to send
  // messages to the maximum number of interested subscribers", §4.1).
  util::Duration finder_period{2000};
  // Bound on the duplicate-suppression memory (event ids). 0 disables
  // duplicate suppression entirely (ablation: every wire copy is
  // delivered, as with raw JXTA-WIRE).
  std::size_t dedup_cache_size = 8192;
  std::int64_t adv_lifetime_ms = jxta::kDefaultAdvLifetimeMs;
  // Publish-side: create advertisements for ancestor types that have none
  // (hierarchy dispatch reaches base-type subscribers that come up later).
  bool create_ancestor_advs = true;
  // Keep the objectsSent/objectsReceived history (paper methods (6)/(7)).
  // High-volume benches disable it to avoid unbounded growth.
  bool record_history = true;

  // --- fast publish pipeline (off by default: the synchronous per-event
  // path reproduces the paper's measured behavior; flip these on for the
  // throughput headroom beyond it) ---------------------------------------
  // Async + batched sends: publish() validates, encodes and enqueues; the
  // session's sender thread coalesces up to batch_max_events queued
  // publications per wire frame, lingering up to batch_max_age after the
  // first for stragglers. Off: publish() transmits synchronously.
  bool batching = false;
  std::size_t batch_max_events = 16;
  std::chrono::microseconds batch_max_age{200};
  // Bound on the async send queue. publish() past it reports
  // PublishOutcome::kDroppedQueueFull — backpressure, not an exception.
  std::size_t send_queue_capacity = 1024;
  // Identity-keyed LRU of encoded payloads (tps/encode_cache.h), in
  // entries. 0 disables the cache.
  std::size_t encode_cache_size = 0;

  // --- fast receive pipeline (off by default, same deal as above) --------
  // Subscriber dispatch worker pool (tps/dispatch.h). 0 = inline: callbacks
  // run synchronously on the wire listener thread, reproducing the paper's
  // measured behavior. > 0 = the listener thread only dedups + decodes;
  // callbacks run on this many workers with per-subscriber FIFO order.
  std::size_t delivery_workers = 0;
  // Bound on callbacks queued (not yet running) across the pool. Past it,
  // deliveries are dropped and counted (delivery_drops) — backpressure
  // never blocks the transport.
  std::size_t delivery_queue_capacity = 1024;

  // --- wire codec (DESIGN.md "The wire codec") ---------------------------
  // Preferred codec for outgoing event payloads: "xml" (default, the
  // interoperable pre-codec format) or "binary". Applied per binding at
  // negotiation time — a binding whose advertisement does not list the
  // preference falls back to xml, counted by tps.codec_fallbacks.
  // Receivers accept every codec regardless of this knob.
  std::string codec = "xml";
  // Stamp the tps:codecs capability param (listing every codec this build
  // decodes) on advertisements this session creates. On by default; tests
  // turn it off to model a legacy peer whose advertisements predate the
  // codec seam.
  bool advertise_codecs = true;

  // --- observability -----------------------------------------------------
  // Stamp obs:trace-id/obs:hops on outgoing publications (obs/trace.h), so
  // receivers file end-to-end hop paths into their Tracer. Off shaves the
  // trace elements from every wire message (the fig19 overhead knob).
  bool tracing = true;

  // --- decode limits (the trust boundary, DESIGN.md) ---------------------
  // Resource caps applied when decoding peer-supplied frames on the
  // receive path. A frame past any cap is dropped and counted
  // (tps.decode_failures) — never delivered, never an exception on a
  // listener or delivery thread.
  // Cap on the event count a tps:batch frame may claim.
  std::size_t decode_max_batch_events = 65536;
  // Cap on a single encoded event payload (string/blob length prefixes).
  std::size_t decode_max_event_bytes = 16 * 1024 * 1024;
  // Cap on element nesting when a received payload embeds XML (DynamicEvent,
  // advertisements-in-messages).
  std::size_t decode_max_xml_depth = 64;

  class Builder;
};

// Fluent, validated construction for TpsConfig (v2 API):
//
//   auto config = TpsConfig::Builder()
//                     .adv_search_timeout(std::chrono::milliseconds(400))
//                     .batching(32, std::chrono::microseconds(500))
//                     .no_history()
//                     .build();
//
// build() checks every bound and throws PsException naming the offending
// knob, so a bad configuration fails at construction, not mid-traffic.
class TpsConfig::Builder {
 public:
  Builder() = default;

  // Paper §4.1: the "specific amount of time" an initializing session
  // searches for an existing type advertisement before creating its own
  // (SR functionality (1)). Must be >= 0; 0 means create immediately.
  Builder& adv_search_timeout(util::Duration timeout);
  // Paper §4.1: the period of the background re-query that "keeps trying
  // to find others". Must be > 0.
  Builder& finder_period(util::Duration period);
  // SR functionality (3), paper §4.4: bound on the per-event-UUID memory
  // used to suppress duplicate deliveries. 0 turns suppression off.
  Builder& dedup_cache(std::size_t events);
  Builder& no_dedup() { return dedup_cache(0); }
  // Lifetime stamped on advertisements we create (paper §3.1). Must be > 0.
  Builder& adv_lifetime_ms(std::int64_t ms);
  // Paper Fig. 7 hierarchy dispatch: skip creating advertisements for
  // ancestor types nobody advertises yet (publish reaches only types that
  // already have subscribers somewhere).
  Builder& no_ancestor_advs();
  // Paper methods (6)/(7): drop the objectsSent/objectsReceived history.
  Builder& no_history();
  // Fast publish pipeline: async sends coalescing up to max_events per
  // wire frame, lingering up to max_age for stragglers. max_events must be
  // in [1, 65536]; max_age >= 0.
  Builder& batching(std::size_t max_events, std::chrono::microseconds max_age);
  Builder& no_batching();
  // Backpressure bound on the async send queue. Must be >= 1.
  Builder& send_queue_capacity(std::size_t events);
  // Encode-once LRU size, in entries. 0 disables.
  Builder& encode_cache(std::size_t entries);
  // Fast receive pipeline: run subscriber callbacks on `workers` pool
  // threads (per-subscriber FIFO preserved) behind a queue bounded at
  // `queue_capacity` callbacks. workers must be in [1, 64]; queue_capacity
  // >= 1.
  Builder& delivery_pool(std::size_t workers,
                         std::size_t queue_capacity = 1024);
  Builder& no_delivery_pool();
  // Stop stamping trace elements on outgoing publications (see
  // TpsConfig::tracing).
  Builder& no_tracing();
  // Wire codec for outgoing event payloads: "xml" (default) or "binary"
  // (negotiated per binding; see TpsConfig::codec). Validated at build().
  Builder& codec(std::string_view name);
  Builder& prefer_binary() { return codec(kCodecBinary); }
  // Trust-boundary caps for decoding peer-supplied frames, as one struct:
  // max_count caps the batch-frame event count (in [1, 2^20]), max_length
  // the single-event payload bytes (in [1, 256 MiB]), max_depth the
  // embedded-XML nesting (in [1, 1024]).
  Builder& decode_limits(const util::DecodeLimits& limits);

  [[nodiscard]] TpsConfig build() const;

 private:
  TpsConfig config_;
};

// Session-level observability counters.
struct TpsStats {
  std::uint64_t published = 0;             // accepted publish() calls
  std::uint64_t wire_sends = 0;            // per-event pipe transmissions
  std::uint64_t received_unique = 0;       // events delivered to subscribers
  std::uint64_t duplicates_suppressed = 0; // SR functionality (3) at work
  std::uint64_t decode_failures = 0;
  std::uint64_t callback_errors = 0;       // exceptions routed to handlers
  // Bindings negotiated below the session's preferred codec (the
  // advertisement did not list it; the sender fell back to xml).
  std::uint64_t codec_fallbacks = 0;
  // Fast publish pipeline.
  std::uint64_t batches_sent = 0;          // multi-event frames built
  std::uint64_t batched_events = 0;        // events those frames carried
  std::uint64_t encode_cache_hits = 0;
  std::uint64_t publish_drops = 0;         // backpressure (queue full)
  std::uint64_t send_queue_hwm = 0;        // high-water send-queue depth
  // Fast receive pipeline.
  std::uint64_t deliveries_inline = 0;     // callbacks run on listener thread
  std::uint64_t deliveries_pooled = 0;     // callbacks run on the pool
  std::uint64_t delivery_drops = 0;        // pool backpressure (queue full)
  std::uint64_t delivery_queue_hwm = 0;    // high-water delivery-queue depth
  std::uint64_t dedup_probes = 0;          // ring slots probed (hot-path cost)
};

class TpsSession : public std::enable_shared_from_this<TpsSession> {
 public:
  // Tracks in-flight dispatches of one subscriber so unsubscribe can wait
  // for quiescence: after cancel()/unsubscribe returns, the callback is
  // never running (except when it cancels itself from its own invocation,
  // the same self-exemption WireInputPipe::close makes). A leaf lock: no
  // callback or session lock is ever taken under gate->mu.
  struct SubscriberGate {
    util::Mutex mu{"tps-subscriber-gate"};
    util::CondVar cv;
    bool cancelled GUARDED_BY(mu) = false;
    int running GUARDED_BY(mu) = 0;
  };

  // A type-erased subscription; built by TpsInterface<T>.
  struct Subscriber {
    const void* callback_tag = nullptr;  // identity of the callback object
    const void* handler_tag = nullptr;   // identity of the exception handler
    std::uint64_t id = 0;                // assigned by subscribe()
    // Casts to the concrete type and invokes the callback; routes any
    // exception to the paired handler and returns false in that case.
    // Never throws.
    std::function<bool(const serial::EventPtr&)> dispatch;
    std::shared_ptr<SubscriberGate> gate;  // assigned by subscribe()
  };

  TpsSession(jxta::Peer& peer, std::string type_name, Criteria criteria,
             TpsConfig config,
             serial::TypeRegistry& registry = serial::TypeRegistry::global());
  ~TpsSession();

  TpsSession(const TpsSession&) = delete;
  TpsSession& operator=(const TpsSession&) = delete;

  // Blocking initialization (the paper's initialization phase): find an
  // existing advertisement for the subscribed type or create one. Starts
  // the sender thread when config.batching is on. Must not be called on
  // the peer executor.
  void init() EXCLUDES(mu_, send_mu_);
  void shutdown() EXCLUDES(mu_, send_mu_);

  // Publishes an event by its *dynamic* type. Never throws: every outcome
  // — sent, enqueued, shed by backpressure, or rejected (unregistered
  // type, not a subtype, session not running, null event) — is reported
  // on the ticket. TpsInterface<T>::publish() restores the v1 throwing
  // behavior via PublishTicket::raise().
  [[nodiscard]] PublishTicket publish(serial::EventPtr event)
      EXCLUDES(mu_, send_mu_);

  // Blocks until every accepted publication has been handed to the wires
  // (async mode; a no-op when batching is off), then until every queued
  // delivery has run (delivery pool; a no-op when delivery_workers is 0).
  // Cuts short any batch linger in progress. Must not be called from a
  // subscriber callback.
  void flush() EXCLUDES(mu_, send_mu_);
  [[nodiscard]] std::size_t send_queue_depth() const EXCLUDES(send_mu_);
  // Callbacks accepted but not yet running (delivery pool; 0 when inline).
  [[nodiscard]] std::size_t delivery_queue_depth() const;

  // Registers the subscriber and returns its registration id.
  std::uint64_t subscribe(Subscriber subscriber) EXCLUDES(mu_);
  // Like subscribe(), wrapped in an RAII handle (v2 API).
  [[nodiscard]] Subscription subscribe_scoped(Subscriber subscriber)
      EXCLUDES(mu_);
  // Non-throwing removal by registration id; false if absent (already
  // removed, or the session shut down).
  bool unsubscribe_by_id(std::uint64_t id) EXCLUDES(mu_);
  // Removes the pair; throws PsException if it was never subscribed.
  void unsubscribe(const void* callback_tag, const void* handler_tag)
      EXCLUDES(mu_);
  void unsubscribe_all() EXCLUDES(mu_);
  [[nodiscard]] std::size_t subscriber_count() const EXCLUDES(mu_);

  [[nodiscard]] std::vector<serial::EventPtr> objects_received() const
      EXCLUDES(mu_);
  [[nodiscard]] std::vector<serial::EventPtr> objects_sent() const
      EXCLUDES(mu_);

  [[nodiscard]] TpsStats stats() const EXCLUDES(mu_);
  [[nodiscard]] const std::string& type_name() const { return type_name_; }
  // Advertisements currently bound for a type (default: subscribed type).
  [[nodiscard]] std::size_t binding_count(std::string_view type = {}) const
      EXCLUDES(mu_);

 private:
  // One advertisement of a type, with its instantiated group and pipes.
  struct Binding {
    jxta::PeerGroupAdvertisement adv;
    std::shared_ptr<jxta::PeerGroup> group;
    jxta::PipeAdvertisement pipe;
    std::shared_ptr<jxta::WireInputPipe> input;    // subscribed type only
    std::shared_ptr<jxta::WireOutputPipe> output;  // lazily, when publishing
    // Send-side codec negotiated from the advertisement's tps:codecs
    // capability at adopt time (tps/advertisements.h). Receive side is
    // codec-blind: messages are self-describing.
    const Codec* codec = nullptr;
  };

  // All bindings of one type name, fed by its finder.
  struct Channel {
    std::string type_name;
    bool open_inputs = false;  // subscribe new bindings' input pipes
    std::unique_ptr<TpsAdvertisementsFinder> finder;
    std::vector<std::shared_ptr<Binding>> bindings;  // keyed by adv gid
  };

  // One accepted publication: queued for the sender thread, or held on the
  // stack by a synchronous publish(). Carries the event itself, not a
  // payload: which encodings are needed depends on the codecs the receiving
  // bindings negotiated, so the sender encodes per codec at frame-build time
  // (the encode cache de-duplicates).
  struct PendingPublication {
    util::Uuid id;
    std::string type_name;
    serial::EventPtr event;
    std::int64_t t0_us = 0;
  };

  // Returns the channel for `type`, creating its finder if needed. If
  // `wait_for_adv`, blocks up to adv_search_timeout for a binding and falls
  // back to creating our own advertisement (SR functionality (1)).
  Channel& channel(const std::string& type, bool open_inputs,
                   bool wait_for_adv) EXCLUDES(mu_);
  // `own` marks an advertisement this session just created itself: it
  // bypasses the Criteria (which filters *discovered* advertisements).
  void adopt_advertisement(const std::string& type,
                           const jxta::PeerGroupAdvertisement& adv,
                           bool own = false) EXCLUDES(mu_);
  // Sends a frame once per binding of every type in `chain` (dup() per
  // transmission). `frame_for` returns the wire message for a binding's
  // negotiated codec — built lazily, so a group whose bindings all speak
  // one codec never encodes the other. Returns the number of pipe-level
  // transmissions.
  std::uint64_t fan_out(
      const std::vector<std::string>& chain,
      const std::function<const jxta::Message&(const Codec&)>& frame_for)
      EXCLUDES(mu_);
  // Sender thread: drains the queue into frames.
  void sender_loop() EXCLUDES(mu_, send_mu_);
  void send_pending(std::vector<PendingPublication> items)
      EXCLUDES(mu_, send_mu_);
  // Sends one frame for `group` (equal published types) on the wires of
  // `chain`, the type's ancestry: the v1 single-event framing for a lone
  // publication, a batch frame otherwise. Both publish paths end here.
  // Returns the per-event transmissions.
  std::uint64_t send_group(std::span<PendingPublication> group,
                           const std::vector<std::string>& chain)
      EXCLUDES(mu_, send_mu_);
  void on_event_message(jxta::Message msg) EXCLUDES(mu_);
  // Dedup + decode-once + dispatch of one received event. The payload is
  // shared because a decode-in-place codec pins it under the delivered
  // event's views. True iff the event was unique and handed to subscribers
  // (inline or enqueued).
  bool deliver_event(const util::Uuid& event_id,
                     std::shared_ptr<const util::Bytes> payload,
                     const Codec& codec) EXCLUDES(mu_);
  // Runs one subscriber's callback under its gate (skipped if cancelled).
  void dispatch_one(const Subscriber& sub, const serial::EventPtr& event,
                    bool pooled) EXCLUDES(mu_);
  // Marks the gate cancelled and waits until its callback is not running
  // (self-exempt when called from that very callback).
  static void close_gate(const std::shared_ptr<SubscriberGate>& gate);
  // Re-publishes subscribers_ as a fresh immutable snapshot for the
  // delivery hot path. Called after every mutation.
  void publish_subscriber_list() REQUIRES(mu_) EXCLUDES(list_mu_);

  // The session's instruments, one slot each. Slots before kSendQueueDepth
  // are counted here and read by stats(); the rest are only registry cells,
  // for numbers their owner keeps (the send queue's depth, the encode
  // cache, the delivery pool).
  enum Stat : std::size_t {
    kPublished,
    kWireSends,
    kReceivedUnique,
    kDuplicatesSuppressed,
    kDecodeFailures,
    kCallbackErrors,
    kCodecFallbacks,
    kBatchesSent,
    kBatchedEvents,  // no registry cell
    kPublishDrops,
    kSendQueueHwm,
    kDeliveriesInline,
    kDeliveriesPooled,
    kDedupProbes,
    kSubscribes,
    kAdvsCreated,
    kAdvsAdopted,
    kSendQueueDepth,
    kEncodeCacheHits,
    kDeliveryDrops,
    kDeliveryQueueDepth,
    kDeliveryQueueHwm,
    kStatCount
  };
  // A slot's peer-registry cell: a counter or a gauge, as the slot's row
  // in bind_cells() says; the other handle stays unbound.
  struct Cell {
    obs::Counter counter;
    obs::Gauge gauge;
  };
  static std::array<Cell, kStatCount> bind_cells(obs::Registry& registry);
  // Bumps a counter slot and its registry cell together.
  void add(Stat stat, std::uint64_t n = 1);

  jxta::Peer& peer_;
  const std::string type_name_;
  const Criteria criteria_;
  const TpsConfig config_;
  serial::TypeRegistry& registry_;
  // Resolved from config_.codec (Builder-validated; the constructor throws
  // PsException on a hand-assembled config naming an unknown codec).
  const Codec& preferred_codec_;
  AdvertisementsCreator creator_;
  // Relaxed atomics, so the hot paths count without mu_ and the count stays
  // exact when -DP2P_OBS=OFF compiles the registry cells out.
  std::array<std::atomic<std::uint64_t>, kStatCount> counts_{};
  // The same slots in the peer registry, so TPS traffic shows up in the
  // peer-wide metrics like every other layer.
  const std::array<Cell, kStatCount> cells_;
  obs::Histogram publish_latency_us_;
  obs::Histogram callback_latency_us_;
  EncodeCache encode_cache_;

  mutable util::Mutex mu_{"tps-session"};
  util::CondVar cv_;
  bool initialized_ GUARDED_BY(mu_) = false;
  bool shut_down_ GUARDED_BY(mu_) = false;
  // Shutdown in progress: publish() rejects, but the pipeline still drains.
  bool closing_ GUARDED_BY(mu_) = false;
  std::map<std::string, Channel> channels_ GUARDED_BY(mu_);
  // Advertisements currently being instantiated ("type|gid"), to prevent a
  // concurrent double-adopt of the same advertisement.
  std::unordered_set<std::string> adopting_ GUARDED_BY(mu_);
  std::uint64_t next_subscriber_id_ GUARDED_BY(mu_) = 1;
  // Authoritative subscriber table. Mutations (under mu_) re-publish an
  // immutable snapshot guarded by the leaf list_mu_; the delivery hot path
  // holds list_mu_ only long enough to copy the shared_ptr and never takes
  // mu_. (Not std::atomic<shared_ptr>: libstdc++'s _Sp_atomic spinlock is
  // opaque to TSan and reports the internal pointer swap as a race.)
  std::vector<Subscriber> subscribers_ GUARDED_BY(mu_);
  mutable util::Mutex list_mu_{"tps-subscriber-list"};
  std::shared_ptr<const std::vector<Subscriber>> subscribers_snapshot_
      GUARDED_BY(list_mu_);
  std::vector<serial::EventPtr> received_ GUARDED_BY(mu_);
  std::vector<serial::EventPtr> sent_ GUARDED_BY(mu_);
  // Duplicate suppression (SR functionality (3)): the last
  // dedup_cache_size event ids. Capacity 0 suppresses nothing.
  util::DedupRing seen_ GUARDED_BY(mu_);
  // Delivery pool (tps/dispatch.h). Created by init() *before* any input
  // pipe exists and torn down by shutdown() *after* every pipe is closed,
  // so listener threads read the pointer without synchronization.
  std::unique_ptr<DeliveryExecutor> executor_;
  // Starvation probe registered with the peer's watchdog (0 = none).
  // Written by init(), cleared by shutdown(); both run on app threads.
  std::uint64_t watchdog_probe_ = 0;

  // Async send queue. send_mu_ is a leaf: no code path holds it together
  // with mu_ — publish() and the sender release one before taking the
  // other, so queue handoff never serializes against delivery.
  mutable util::Mutex send_mu_{"tps-send-queue"};
  util::CondVar send_cv_;   // publish -> sender: work / stop / flush
  util::CondVar drain_cv_;  // sender -> flush(): drained and idle
  std::deque<PendingPublication> send_queue_ GUARDED_BY(send_mu_);
  bool sender_started_ GUARDED_BY(send_mu_) = false;
  bool sender_stop_ GUARDED_BY(send_mu_) = false;
  bool sender_busy_ GUARDED_BY(send_mu_) = false;
  bool flush_pending_ GUARDED_BY(send_mu_) = false;
  std::thread sender_;  // started by init() when config_.batching
};

}  // namespace p2p::tps
