#include "tps/session.h"

#include <algorithm>
#include <array>
#include <optional>
#include <typeindex>

#include "obs/flight.h"
#include "obs/watchdog.h"
#include "tps/batch.h"
#include "util/logging.h"

namespace p2p::tps {

using jxta::PeerGroupAdvertisement;

namespace {
constexpr std::string_view kEventElement = "tps:event";
constexpr std::string_view kEventBinElement = "tps:event-bin";
constexpr std::string_view kEventIdElement = "tps:event-id";
constexpr std::string_view kTypeElement = "tps:type";

// The element name tells the receiver which codec encoded the payload —
// messages are self-describing, so receivers never need the negotiation
// state (the PR 3 batch-frame contract, applied to codecs).
std::string_view event_element_for(const Codec& codec) {
  return &codec == &binary_codec() ? kEventBinElement : kEventElement;
}
std::string_view batch_element_for(const Codec& codec) {
  return &codec == &binary_codec() ? kBatchBinElement : kBatchElement;
}

// Resolves a config's codec name; throws the Builder-convention error so a
// hand-assembled TpsConfig fails at session construction, not mid-traffic.
const Codec& resolve_codec(const std::string& name) {
  const Codec* codec = find_codec(name);
  if (codec == nullptr) {
    throw PsException("TpsConfig: codec must be one of [" +
                      supported_codec_names() + "], got '" + name + "'");
  }
  return *codec;
}

// The decode capabilities stamped on advertisements we create. Every build
// decodes both codecs; an empty list (advertise_codecs off) models a
// legacy peer and keeps the advertisement byte-identical to pre-codec.
std::vector<std::string> capability_list(const TpsConfig& config) {
  if (!config.advertise_codecs) return {};
  return {std::string(kCodecXml), std::string(kCodecBinary)};
}

util::Bytes uuid_to_bytes(const util::Uuid& id) {
  util::ByteWriter w;
  w.write_u64(id.hi());
  w.write_u64(id.lo());
  return w.take();
}

std::optional<util::Uuid> uuid_from_bytes(const util::Bytes& bytes) {
  if (bytes.size() != 16) return std::nullopt;
  util::ByteReader r(bytes);
  const std::uint64_t hi = r.read_u64();
  const std::uint64_t lo = r.read_u64();
  return util::Uuid{hi, lo};
}

PublishTicket make_rejection(PublishOutcome outcome, std::string why) {
  PublishTicket ticket;
  ticket.outcome = outcome;
  ticket.error = std::move(why);
  return ticket;
}

// The registry cell of one TpsSession::Stat slot, by name and kind. Spelled
// as counter("...") / gauge("...") calls so the metrics-manifest lint
// (tools/lint.py) checks every name against src/obs/instruments.h.
struct CellName {
  std::string_view name;
  bool gauge = false;
};
constexpr CellName counter(std::string_view name) { return {name, false}; }
constexpr CellName gauge(std::string_view name) { return {name, true}; }

}  // namespace

// --- TpsConfig::Builder -------------------------------------------------------

TpsConfig::Builder& TpsConfig::Builder::adv_search_timeout(
    util::Duration timeout) {
  config_.adv_search_timeout = timeout;
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::finder_period(util::Duration period) {
  config_.finder_period = period;
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::dedup_cache(std::size_t events) {
  config_.dedup_cache_size = events;
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::adv_lifetime_ms(std::int64_t ms) {
  config_.adv_lifetime_ms = ms;
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::no_ancestor_advs() {
  config_.create_ancestor_advs = false;
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::no_history() {
  config_.record_history = false;
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::batching(
    std::size_t max_events, std::chrono::microseconds max_age) {
  config_.batching = true;
  config_.batch_max_events = max_events;
  config_.batch_max_age = max_age;
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::no_batching() {
  config_.batching = false;
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::send_queue_capacity(
    std::size_t events) {
  config_.send_queue_capacity = events;
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::encode_cache(std::size_t entries) {
  config_.encode_cache_size = entries;
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::delivery_pool(
    std::size_t workers, std::size_t queue_capacity) {
  config_.delivery_workers = workers;
  config_.delivery_queue_capacity = queue_capacity;
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::no_delivery_pool() {
  config_.delivery_workers = 0;
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::no_tracing() {
  config_.tracing = false;
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::codec(std::string_view name) {
  config_.codec = std::string(name);
  return *this;
}

TpsConfig::Builder& TpsConfig::Builder::decode_limits(
    const util::DecodeLimits& limits) {
  config_.decode_max_batch_events = static_cast<std::size_t>(limits.max_count);
  config_.decode_max_event_bytes = limits.max_length;
  config_.decode_max_xml_depth = limits.max_depth;
  return *this;
}

TpsConfig TpsConfig::Builder::build() const {
  if (config_.adv_search_timeout < util::Duration::zero()) {
    throw PsException("TpsConfig: adv_search_timeout must be >= 0");
  }
  if (config_.finder_period <= util::Duration::zero()) {
    throw PsException("TpsConfig: finder_period must be > 0");
  }
  if (config_.adv_lifetime_ms <= 0) {
    throw PsException("TpsConfig: adv_lifetime_ms must be > 0");
  }
  if (config_.batch_max_events == 0 || config_.batch_max_events > 65536) {
    throw PsException("TpsConfig: batch_max_events must be in [1, 65536]");
  }
  if (config_.batch_max_age < std::chrono::microseconds::zero()) {
    throw PsException("TpsConfig: batch_max_age must be >= 0");
  }
  if (config_.send_queue_capacity == 0) {
    throw PsException("TpsConfig: send_queue_capacity must be >= 1");
  }
  if (config_.delivery_workers > 64) {
    throw PsException("TpsConfig: delivery_workers must be in [0, 64]");
  }
  if (config_.delivery_queue_capacity == 0) {
    throw PsException("TpsConfig: delivery_queue_capacity must be >= 1");
  }
  if (config_.decode_max_batch_events == 0 ||
      config_.decode_max_batch_events > (1u << 20)) {
    throw PsException(
        "TpsConfig: decode_max_batch_events must be in [1, 2^20]");
  }
  if (config_.decode_max_event_bytes == 0 ||
      config_.decode_max_event_bytes > 256 * 1024 * 1024) {
    throw PsException(
        "TpsConfig: decode_max_event_bytes must be in [1, 256 MiB]");
  }
  if (config_.decode_max_xml_depth == 0 ||
      config_.decode_max_xml_depth > 1024) {
    throw PsException("TpsConfig: decode_max_xml_depth must be in [1, 1024]");
  }
  if (find_codec(config_.codec) == nullptr) {
    throw PsException("TpsConfig: codec must be one of [" +
                      supported_codec_names() + "], got '" + config_.codec +
                      "'");
  }
  return config_;
}

// --- TpsSession ---------------------------------------------------------------

TpsSession::TpsSession(jxta::Peer& peer, std::string type_name,
                       Criteria criteria, TpsConfig config,
                       serial::TypeRegistry& registry)
    : peer_(peer),
      type_name_(std::move(type_name)),
      criteria_(std::move(criteria)),
      config_(config),
      registry_(registry),
      preferred_codec_(resolve_codec(config.codec)),
      creator_(peer),
      cells_(bind_cells(peer.metrics())),
      publish_latency_us_(
          peer.metrics().histogram("tps.publish_latency_us")),
      callback_latency_us_(
          peer.metrics().histogram("tps.callback_latency_us")),
      encode_cache_(config.encode_cache_size, cells_[kEncodeCacheHits].counter),
      seen_(config.dedup_cache_size) {
  subscribers_snapshot_ = std::make_shared<const std::vector<Subscriber>>();
}

std::array<TpsSession::Cell, TpsSession::kStatCount> TpsSession::bind_cells(
    obs::Registry& registry) {
  // Every registry cell of a session, once, with the slot it mirrors.
  static constexpr std::pair<Stat, CellName> kCells[] = {
      {kPublished, counter("tps.published")},
      {kWireSends, counter("tps.wire_sends")},
      {kReceivedUnique, counter("tps.received_unique")},
      {kDuplicatesSuppressed, counter("tps.duplicates_suppressed")},
      {kDecodeFailures, counter("tps.decode_failures")},
      {kCallbackErrors, counter("tps.callback_errors")},
      {kCodecFallbacks, counter("tps.codec_fallbacks")},
      {kBatchesSent, counter("tps.batches_sent")},
      {kPublishDrops, counter("tps.publish_drops")},
      {kSendQueueHwm, gauge("tps.send_queue_hwm")},
      {kDeliveriesInline, counter("tps.deliveries_inline")},
      {kDeliveriesPooled, counter("tps.deliveries_pooled")},
      {kDedupProbes, counter("tps.dedup_probe_depth")},
      {kSubscribes, counter("tps.subscribes")},
      {kAdvsCreated, counter("tps.advs_created")},
      {kAdvsAdopted, counter("tps.advs_adopted")},
      {kSendQueueDepth, gauge("tps.send_queue_depth")},
      {kEncodeCacheHits, counter("tps.encode_cache_hits")},
      {kDeliveryDrops, counter("tps.delivery_drops")},
      {kDeliveryQueueDepth, gauge("tps.delivery_queue_depth")},
      {kDeliveryQueueHwm, gauge("tps.delivery_queue_hwm")},
  };
  std::array<Cell, kStatCount> cells;
  for (const auto& [slot, cell] : kCells) {
    if (cell.gauge) {
      cells[slot].gauge = registry.gauge(std::string(cell.name));
    } else {
      cells[slot].counter = registry.counter(std::string(cell.name));
    }
  }
  return cells;
}

void TpsSession::add(Stat stat, std::uint64_t n) {
  counts_[stat].fetch_add(n, std::memory_order_relaxed);
  cells_[stat].counter.inc(n);
}

TpsSession::~TpsSession() { shutdown(); }

void TpsSession::init() {
  {
    const util::MutexLock lock(mu_);
    if (shut_down_) throw PsException("session is shut down");
    if (initialized_) return;
  }
  // The pool must exist before channel() opens the first input pipe: the
  // wire can deliver (and deliver_event read executor_) the moment a
  // listener is attached, possibly before init() returns.
  if (config_.delivery_workers > 0 && !executor_) {
    executor_ = std::make_unique<DeliveryExecutor>(
        config_.delivery_workers, config_.delivery_queue_capacity,
        cells_[kDeliveryDrops].counter, cells_[kDeliveryQueueDepth].gauge,
        cells_[kDeliveryQueueHwm].gauge);
    // Starvation probe: the peer's watchdog (when enabled) samples the age
    // of our oldest queued callback each period. unwatch() in shutdown()
    // precedes executor teardown, so the probe never outlives the pool.
    if (auto* watchdog = peer_.watchdog()) {
      watchdog_probe_ = watchdog->watch_queue_age(
          "tps-delivery:" + type_name_,
          [executor = executor_.get()] {
            return executor->oldest_queue_age_us();
          });
    }
  }
  channel(type_name_, /*open_inputs=*/true, /*wait_for_adv=*/true);
  {
    const util::MutexLock lock(mu_);
    initialized_ = true;
  }
  if (config_.batching) {
    const util::MutexLock lock(send_mu_);
    if (!sender_started_) {
      sender_started_ = true;
      sender_ = std::thread([this] { sender_loop(); });
    }
  }
}

void TpsSession::shutdown() {
  {
    const util::MutexLock lock(mu_);
    if (shut_down_ || closing_) return;
    closing_ = true;  // publish() now rejects; the pipeline still drains
  }
  // Drain accepted publications, then retire the sender. Bounded: the
  // sender's waits inside channel() are capped by adv_search_timeout.
  if (sender_.joinable()) {
    flush();
    {
      const util::MutexLock lock(send_mu_);
      sender_stop_ = true;
      send_cv_.notify_all();
    }
    sender_.join();
  }
  std::map<std::string, Channel> channels;
  std::vector<std::shared_ptr<SubscriberGate>> gates;
  {
    const util::MutexLock lock(mu_);
    shut_down_ = true;
    channels.swap(channels_);
    gates.reserve(subscribers_.size());
    for (auto& s : subscribers_) gates.push_back(std::move(s.gate));
    subscribers_.clear();
    publish_subscriber_list();
  }
  cv_.notify_all();
  for (auto& [name, ch] : channels) {
    if (ch.finder) ch.finder->stop();
    for (const auto& b : ch.bindings) {
      if (b->input) b->input->close();
      if (b->output) b->output->close();
    }
  }
  // The pipes are quiescent: no new deliveries arrive. Cancel the gates —
  // waiting out callbacks already running — so queued pooled dispatches
  // skip, then drain and join the pool.
  for (const auto& gate : gates) close_gate(gate);
  if (watchdog_probe_ != 0) {
    // unwatch() blocks out a concurrently-running probe, so the executor
    // below is torn down only once nothing samples it.
    if (auto* watchdog = peer_.watchdog()) watchdog->unwatch(watchdog_probe_);
    watchdog_probe_ = 0;
  }
  if (executor_) executor_->shutdown();
}

TpsSession::Channel& TpsSession::channel(const std::string& type,
                                         bool open_inputs,
                                         bool wait_for_adv) {
  util::MutexLock lock(mu_);
  auto it = channels_.find(type);
  if (it == channels_.end()) {
    it = channels_.emplace(type, Channel{}).first;
    Channel& ch = it->second;
    ch.type_name = type;
    ch.open_inputs = open_inputs;
    lock.unlock();
    auto finder =
        std::make_unique<TpsAdvertisementsFinder>(peer_, type, criteria_);
    // Capture `this` raw, NOT a locked weak_ptr: taking a strong reference
    // inside finder callbacks would let the *last* session reference die on
    // the finder's own callback thread, destroying the finder underneath
    // its running task. Safety comes from ordering instead: shutdown()
    // stops every finder synchronously (stop() waits out in-flight
    // callbacks) before the session can be destroyed.
    finder->add_listener([this, type](const PeerGroupAdvertisement& adv) {
      adopt_advertisement(type, adv);
    });
    finder->start(config_.finder_period);
    lock.lock();
    it = channels_.find(type);  // re-find: map may have rehashed? (node-based; stable, but be explicit)
    it->second.finder = std::move(finder);
  }
  Channel& ch = it->second;
  if (wait_for_adv && ch.bindings.empty()) {
    const util::TimePoint deadline =
        util::SystemClock::instance().now() + config_.adv_search_timeout;
    while (ch.bindings.empty() && !shut_down_) {
      if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) break;
    }
    if (ch.bindings.empty() && !shut_down_) {
      // SR functionality (1): nobody advertises this type yet -> we do
      // (paper §4.1), while the finder keeps looking for latecomers.
      lock.unlock();
      const PeerGroupAdvertisement own =
          creator_.create_type_advertisement(type, capability_list(config_));
      creator_.publish_advertisement(own, config_.adv_lifetime_ms);
      add(kAdvsCreated);
      adopt_advertisement(type, own, /*own=*/true);
      lock.lock();
      // The finder can discover the advertisement the moment it is
      // published and beat us into adopt_advertisement — then the call
      // above returned without binding (concurrent-adopt guard) while the
      // finder's bind is still in flight. Callers rely on init() returning
      // with the type actually bound, so wait for whichever adopt wins;
      // if it failed (and cleared adopting_), re-issue ours once.
      const util::TimePoint bind_deadline =
          util::SystemClock::instance().now() + config_.adv_search_timeout;
      while (ch.bindings.empty() && !shut_down_) {
        if (cv_.wait_until(mu_, bind_deadline) == std::cv_status::timeout) {
          break;
        }
      }
      if (ch.bindings.empty() && !shut_down_) {
        lock.unlock();
        adopt_advertisement(type, own, /*own=*/true);
        lock.lock();
      }
    }
  }
  return ch;
}

void TpsSession::adopt_advertisement(const std::string& type,
                                     const PeerGroupAdvertisement& adv,
                                     bool own) {
  if (!own && !criteria_.accepts(adv)) return;
  const std::string key = type + "|" + adv.gid.to_string();
  bool open_inputs = false;
  {
    const util::MutexLock lock(mu_);
    if (shut_down_) return;
    const auto it = channels_.find(type);
    if (it == channels_.end()) return;
    for (const auto& b : it->second.bindings) {
      if (b->adv.gid == adv.gid) return;  // already bound
    }
    if (!adopting_.insert(key).second) return;  // concurrent adopt
    open_inputs = it->second.open_inputs;
  }

  auto binding = std::make_shared<Binding>();
  binding->adv = adv;
  try {
    // Per-channel codec negotiation (DESIGN.md "The wire codec"): fix the
    // codec we SEND with on this binding once, at adopt time. A mismatch
    // (advertisement lists only codecs this build lacks) aborts the bind —
    // same handling as a missing wire service.
    binding->codec = &negotiate_codec(adv, preferred_codec_);
    TpsWireServiceFinder wsf(peer_, adv);
    wsf.lookup_wire_service();
    binding->group = wsf.group();
    binding->pipe = wsf.pipe_advertisement();
    if (open_inputs) {
      binding->input = wsf.create_input_pipe();
      // Capture `this` raw, NOT a weak_ptr: during a destructor-driven
      // shutdown the use count is already zero, so weak.lock() would fail
      // and the drain-on-close deliveries (self-published events still in
      // the send queue) would be dropped. Safety comes from ordering, as
      // with the finder callback above: shutdown() close()s every input
      // pipe — which waits out in-flight listeners — before ~TpsSession
      // completes.
      binding->input->set_listener([this](jxta::Message msg) {
        on_event_message(std::move(msg));
      });
    }
    binding->output = wsf.create_output_pipe();
  } catch (const std::exception& e) {
    P2P_LOG(kWarn, "tps") << peer_.name() << ": cannot bind advertisement "
                          << adv.gid.to_string() << ": " << e.what();
    const util::MutexLock lock(mu_);
    adopting_.erase(key);
    return;
  }

  // Count the fallback once per adopted binding (not per send): the adopt
  // event is what mixed-version interop tests can assert deterministically.
  const bool fell_back = binding->codec != &preferred_codec_;
  {
    const util::MutexLock lock(mu_);
    adopting_.erase(key);
    if (shut_down_) return;
    const auto it = channels_.find(type);
    if (it == channels_.end()) return;
    it->second.bindings.push_back(std::move(binding));
    if (fell_back) add(kCodecFallbacks);
  }
  if (fell_back) {
    P2P_LOG(kInfo, "tps") << peer_.name() << ": advertisement "
                          << adv.gid.to_string() << " does not list codec '"
                          << preferred_codec_.name()
                          << "'; falling back for this binding";
  }
  add(kAdvsAdopted);
  cv_.notify_all();
}

PublishTicket TpsSession::publish(serial::EventPtr event) {
  if (!event) {
    return make_rejection(PublishOutcome::kRejectedNullEvent,
                          "cannot publish a null event");
  }
  {
    const util::MutexLock lock(mu_);
    if (!initialized_ || shut_down_ || closing_) {
      return make_rejection(PublishOutcome::kRejectedNotRunning,
                            "session is not running");
    }
  }
  // Statically-typed events are identified by RTTI; dynamically-typed
  // (XML) events carry their type name themselves.
  const std::string_view dynamic_name = event->tps_type_name();
  auto info = dynamic_name.empty()
                  ? registry_.find(std::type_index(typeid(*event)))
                  : registry_.find(dynamic_name);
  if (!info) {
    return make_rejection(
        PublishOutcome::kRejectedUnregisteredType,
        std::string("published object's dynamic type is not registered: ") +
            (dynamic_name.empty() ? typeid(*event).name()
                                  : std::string(dynamic_name)));
  }
  const std::vector<std::string> chain = registry_.ancestry(info->name);
  if (std::find(chain.begin(), chain.end(), type_name_) == chain.end()) {
    return make_rejection(PublishOutcome::kRejectedNotSubtype,
                          "published type '" + info->name +
                              "' is not a subtype of '" + type_name_ + "'");
  }

  // Encoding is deferred to frame-building time (fan_out's frame_for): the
  // wire bytes depend on the codec each binding negotiated, and a frame is
  // encoded at most once per codec actually in use.
  const std::int64_t t0 = obs::now_us();
  PendingPublication publication{util::Uuid::generate(),
                                 std::move(info->name), event, t0};

  PublishTicket ticket;
  if (!config_.batching) {
    // Synchronous: send the lone frame the sender thread would build.
    const std::uint64_t sends = send_group({&publication, 1}, chain);
    ticket.outcome =
        sends > 0 ? PublishOutcome::kSent : PublishOutcome::kNoBinding;
    ticket.wire_sends = sends;
    if (sends == 0) ticket.error = "no advertisement bound for '" +
                                   publication.type_name +
                                   "'; nothing transmitted";
  } else {
    // Async: hand off to the sender thread through the bounded queue.
    std::size_t depth = 0;
    {
      const util::MutexLock lock(send_mu_);
      if (sender_stop_) {
        // Lost the race against shutdown(): the queue is already retired.
        return make_rejection(PublishOutcome::kRejectedNotRunning,
                              "session is not running");
      }
      if (send_queue_.size() < config_.send_queue_capacity) {
        send_queue_.push_back(std::move(publication));
        depth = send_queue_.size();
        // The high-water slot is only written here, under send_mu_.
        if (depth > counts_[kSendQueueHwm].load(std::memory_order_relaxed)) {
          counts_[kSendQueueHwm].store(depth, std::memory_order_relaxed);
          cells_[kSendQueueHwm].gauge.set(static_cast<std::int64_t>(depth));
        }
        cells_[kSendQueueDepth].gauge.set(static_cast<std::int64_t>(depth));
        send_cv_.notify_one();
      }
    }
    if (depth == 0) {  // the queue was full
      add(kPublishDrops);
      obs::flight::record(obs::FlightComponent::kTps, obs::FlightKind::kDrop,
                          config_.send_queue_capacity);
      ticket.outcome = PublishOutcome::kDroppedQueueFull;
      ticket.error = "send queue full (" +
                     std::to_string(config_.send_queue_capacity) +
                     " pending)";
      return ticket;
    }
    obs::flight::record(obs::FlightComponent::kTps, obs::FlightKind::kEnqueue,
                        depth);
    ticket.outcome = PublishOutcome::kEnqueued;
    ticket.queue_depth = depth;
  }
  add(kPublished);
  if (config_.record_history) {
    const util::MutexLock lock(mu_);
    sent_.push_back(std::move(event));
  }
  return ticket;
}

std::uint64_t TpsSession::fan_out(
    const std::vector<std::string>& chain,
    const std::function<const jxta::Message&(const Codec&)>& frame_for) {
  // Type-hierarchy dispatch (paper Fig. 7): one transmission per
  // advertisement of the dynamic type and of each ancestor type, each in
  // the codec that binding negotiated at adopt time.
  std::uint64_t sends = 0;
  for (const auto& name : chain) {
    const bool is_own_type = name == type_name_;
    Channel& ch = channel(name, /*open_inputs=*/is_own_type,
                          /*wait_for_adv=*/is_own_type ||
                              config_.create_ancestor_advs);
    std::vector<std::shared_ptr<Binding>> bindings;
    {
      const util::MutexLock lock(mu_);
      bindings = ch.bindings;
    }
    for (const auto& b : bindings) {
      if (!b->output) continue;
      const Codec& codec = b->codec != nullptr ? *b->codec : xml_codec();
      if (b->output->send(frame_for(codec).dup())) ++sends;
    }
  }
  return sends;
}

void TpsSession::sender_loop() {
  for (;;) {
    std::vector<PendingPublication> batch;
    {
      util::MutexLock lock(send_mu_);
      while (send_queue_.empty() && !sender_stop_) send_cv_.wait(send_mu_);
      if (send_queue_.empty()) return;  // stopped and fully drained
      // Linger: give stragglers up to batch_max_age to coalesce with the
      // publication that woke us — unless the batch is already full or a
      // flush/stop wants the queue empty now.
      if (send_queue_.size() < config_.batch_max_events &&
          config_.batch_max_age > std::chrono::microseconds::zero()) {
        const util::TimePoint deadline =
            util::SystemClock::instance().now() + config_.batch_max_age;
        while (send_queue_.size() < config_.batch_max_events &&
               !sender_stop_ && !flush_pending_) {
          if (send_cv_.wait_until(send_mu_, deadline) ==
              std::cv_status::timeout) {
            break;
          }
        }
      }
      const std::size_t n =
          std::min(send_queue_.size(), config_.batch_max_events);
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(send_queue_.front()));
        send_queue_.pop_front();
      }
      if (send_queue_.empty()) flush_pending_ = false;
      cells_[kSendQueueDepth].gauge.set(
          static_cast<std::int64_t>(send_queue_.size()));
      sender_busy_ = true;
    }
    obs::flight::record(obs::FlightComponent::kTps, obs::FlightKind::kDequeue,
                        batch.size());
    send_pending(std::move(batch));
    {
      const util::MutexLock lock(send_mu_);
      sender_busy_ = false;
      if (send_queue_.empty()) drain_cv_.notify_all();
    }
  }
}

void TpsSession::send_pending(std::vector<PendingPublication> items) {
  // One frame per run of equal published types (usually the whole batch).
  std::size_t i = 0;
  while (i < items.size()) {
    std::size_t j = i + 1;
    while (j < items.size() && items[j].type_name == items[i].type_name) ++j;
    const std::string& publish_type = items[i].type_name;
    std::vector<std::string> chain;
    try {
      chain = registry_.ancestry(publish_type);
    } catch (const std::exception&) {
      chain = {publish_type};  // validated at publish; registry only grows
    }
    obs::flight::record(obs::FlightComponent::kTps,
                        obs::FlightKind::kBatchFlush, j - i);
    send_group(std::span<PendingPublication>(items).subspan(i, j - i), chain);
    i = j;
  }
}

std::uint64_t TpsSession::send_group(std::span<PendingPublication> group,
                                     const std::vector<std::string>& chain) {
  const std::string& publish_type = group.front().type_name;
  // One frame per codec in use across the fan-out, built on first request.
  // In a single-codec group (the common case) each event is encoded exactly
  // once, with whichever codec the bindings negotiated; the batch layout
  // itself is codec-agnostic, only the payload bytes and element name differ.
  std::array<std::optional<jxta::Message>, kCodecCount> frames;
  const auto frame_for = [&](const Codec& codec) -> const jxta::Message& {
    std::optional<jxta::Message>& slot = frames[codec.index()];
    if (!slot) {
      jxta::Message base;
      if (group.size() == 1) {
        // Lone publications keep the v1 single-event framing so peers that
        // predate batching parse them (wire-format compatibility).
        const std::shared_ptr<const util::Bytes> payload =
            encode_cache_.encode(registry_, codec, group.front().event);
        base.add_bytes(std::string(event_element_for(codec)), *payload);
        base.add_bytes(std::string(kEventIdElement),
                       uuid_to_bytes(group.front().id));
      } else {
        std::vector<BatchItem> frame;
        frame.reserve(group.size());
        for (const auto& p : group) {
          frame.push_back(
              BatchItem{p.id, encode_cache_.encode(registry_, codec, p.event)});
        }
        base.add_bytes(std::string(batch_element_for(codec)),
                       encode_batch_frame(frame));
      }
      base.add_string(std::string(kTypeElement), publish_type);
      // First trace hop: the publication leaves the TPS engine. dup() keeps
      // elements, so every wire transmission carries the same trace id.
      if (config_.tracing) {
        obs::start_trace(base, peer_.id().to_string(), "publish",
                         group.front().t0_us);
        if (group.size() > 1) {
          // The batch stage: events coalesced into one frame. Hops ride the
          // message, so they survive the frame round-trip on every receiver.
          obs::append_hop(base, peer_.id().to_string(), "batch",
                          obs::now_us());
        }
      }
      slot = std::move(base);
    }
    return *slot;
  };

  const std::uint64_t frames_sent = fan_out(chain, frame_for);
  // wire_sends keeps its v1 meaning: per-event, per-binding transmissions.
  const std::uint64_t sends = frames_sent * group.size();
  add(kWireSends, sends);
  if (group.size() > 1) {
    add(kBatchesSent);
    add(kBatchedEvents, group.size());
  }
  const std::int64_t now = obs::now_us();
  for (const auto& p : group) {
    publish_latency_us_.record(static_cast<double>(now - p.t0_us));
  }
  return sends;
}

void TpsSession::flush() {
  {
    const util::MutexLock lock(send_mu_);
    if (sender_started_) {
      flush_pending_ = true;
      send_cv_.notify_all();  // cut any linger short
      while (!send_queue_.empty() || sender_busy_) drain_cv_.wait(send_mu_);
      flush_pending_ = false;
    }
  }
  if (executor_) executor_->flush();
}

std::size_t TpsSession::send_queue_depth() const {
  const util::MutexLock lock(send_mu_);
  return send_queue_.size();
}

std::size_t TpsSession::delivery_queue_depth() const {
  return executor_ ? executor_->queue_depth() : 0;
}

void TpsSession::on_event_message(jxta::Message msg) {
  // Decode stage begins here (no-op on untraced messages).
  obs::append_hop(msg, peer_.id().to_string(), "decode", obs::now_us());
  // The element name identifies both the framing (batch vs single event)
  // and the codec that produced the payload bytes — receivers accept all
  // of them unconditionally, independent of what they advertise, which is
  // what lets mixed-version groups interoperate.
  const Codec* codec = &xml_codec();
  auto frame = msg.get_bytes(std::string(kBatchElement));
  if (!frame) {
    frame = msg.get_bytes(std::string(kBatchBinElement));
    if (frame) codec = &binary_codec();
  }
  if (frame) {
    // Trust boundary: the frame is peer bytes. Decode through the capped,
    // non-throwing path; a frame past any cap (or truncated) is a counted
    // drop, not an exception on the listener thread.
    const BatchLimits limits{
        .max_events = config_.decode_max_batch_events,
        .max_event_bytes = config_.decode_max_event_bytes};
    BatchDecodeResult decoded = try_decode_batch_frame(*frame, limits);
    if (!decoded.ok()) {
      P2P_LOG(kWarn, "tps") << peer_.name() << ": cannot decode batch frame ("
                            << util::to_string(decoded.error) << ")";
      add(kDecodeFailures);
      return;
    }
    bool any_unique = false;
    for (auto& item : decoded.items) {
      any_unique =
          deliver_event(item.id,
                        std::make_shared<const util::Bytes>(
                            std::move(item.payload)),
                        *codec) ||
          any_unique;
    }
    if (!any_unique) return;
  } else {
    const auto id_bytes = msg.get_bytes(std::string(kEventIdElement));
    auto event_bytes = msg.get_bytes(std::string(kEventElement));
    if (!event_bytes) {
      event_bytes = msg.get_bytes(std::string(kEventBinElement));
      if (event_bytes) codec = &binary_codec();
    }
    std::optional<util::Uuid> event_id;
    if (id_bytes) event_id = uuid_from_bytes(*id_bytes);
    if (!event_id || !event_bytes) {
      add(kDecodeFailures);
      return;
    }
    if (!deliver_event(*event_id,
                       std::make_shared<const util::Bytes>(
                           std::move(*event_bytes)),
                       *codec)) {
      return;
    }
  }
  // The last hop: this message carried at least one unique delivery to the
  // subscribing session. File the completed path into the peer's tracer.
  obs::append_hop(msg, peer_.id().to_string(), "deliver", obs::now_us());
  if (auto trace = obs::extract_trace(msg)) {
    peer_.tracer().record(std::move(*trace));
  }
}

bool TpsSession::deliver_event(const util::Uuid& event_id,
                               std::shared_ptr<const util::Bytes> payload,
                               const Codec& codec) {
  bool duplicate = false;
  std::uint32_t probes = 0;
  {
    const util::MutexLock lock(mu_);
    if (shut_down_) return false;
    duplicate = seen_.test_and_set(event_id, &probes);
  }
  add(kDedupProbes, probes);
  if (duplicate) {
    add(kDuplicatesSuppressed);  // SR functionality (3)
    return false;
  }
  // Decode exactly once per session; every subscriber receives the same
  // immutable event instance. The payload arrives as a shared_ptr so the
  // binary codec can hand out decode-in-place views pinned to it.
  const util::DecodeLimits limits{
      .max_length = config_.decode_max_event_bytes,
      .max_depth = config_.decode_max_xml_depth};
  const CodecResult decoded = codec.decode(registry_, payload, limits);
  if (!decoded.ok()) {
    P2P_LOG(kWarn, "tps") << peer_.name() << ": cannot decode "
                          << codec.name() << " event ("
                          << util::to_string(decoded.error)
                          << (decoded.detail.empty() ? "" : ": ")
                          << decoded.detail << ")";
    add(kDecodeFailures);
    return false;
  }
  {
    const util::MutexLock lock(mu_);
    if (shut_down_) return false;
    add(kReceivedUnique);
    if (config_.record_history) received_.push_back(decoded.event);
  }
  // Hot path: copy the current subscriber snapshot under the leaf list_mu_
  // (a refcount bump, not a vector copy), then dispatch without any lock.
  // The shared_ptr keeps the snapshot alive for any pooled dispatch still
  // referencing it after a concurrent (un)subscribe.
  std::shared_ptr<const std::vector<Subscriber>> subscribers;
  {
    const util::MutexLock lock(list_mu_);
    subscribers = subscribers_snapshot_;
  }
  if (!subscribers || subscribers->empty()) return true;
  if (executor_) {
    for (std::size_t i = 0; i < subscribers->size(); ++i) {
      // Striping by subscriber id keeps one subscriber's events on one
      // worker (FIFO) while distinct subscribers run in parallel. A full
      // queue drops the delivery (counted by the executor; see stats())
      // rather than blocking the transport.
      const std::uint64_t key = (*subscribers)[i].id;
      executor_->submit(key, [this, subscribers, i, event = decoded.event] {
        dispatch_one((*subscribers)[i], event, /*pooled=*/true);
      });
    }
  } else {
    for (const auto& sub : *subscribers) {
      dispatch_one(sub, decoded.event, /*pooled=*/false);
    }
  }
  return true;
}

namespace {
// The gate whose callback the current thread is inside, if any. Lets a
// callback cancel its own subscription without deadlocking the quiescence
// wait (same pattern as WireInputPipe's t_delivering_wire).
thread_local const TpsSession::SubscriberGate* t_active_gate = nullptr;
}  // namespace

void TpsSession::dispatch_one(const Subscriber& sub,
                              const serial::EventPtr& event, bool pooled) {
  const std::shared_ptr<SubscriberGate> gate = sub.gate;
  {
    const util::MutexLock lock(gate->mu);
    if (gate->cancelled) return;
    ++gate->running;
  }
  const SubscriberGate* prev = t_active_gate;
  t_active_gate = gate.get();
  const std::int64_t t0 = obs::now_us();
  obs::flight::record(obs::FlightComponent::kDelivery,
                      obs::FlightKind::kDeliverStart, sub.id);
  const bool ok = sub.dispatch(event);
  const std::int64_t elapsed = obs::now_us() - t0;
  obs::flight::record(obs::FlightComponent::kDelivery,
                      obs::FlightKind::kDeliverEnd,
                      elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 0);
  callback_latency_us_.record(static_cast<double>(elapsed));
  t_active_gate = prev;
  add(pooled ? kDeliveriesPooled : kDeliveriesInline);
  if (!ok) add(kCallbackErrors);
  {
    const util::MutexLock lock(gate->mu);
    --gate->running;
    gate->cv.notify_all();
  }
}

void TpsSession::close_gate(const std::shared_ptr<SubscriberGate>& gate) {
  if (!gate) return;
  const util::MutexLock lock(gate->mu);
  gate->cancelled = true;
  // Quiescence: after this returns the callback is never running — except
  // when the callback is cancelling itself, which must not self-deadlock.
  const int self = t_active_gate == gate.get() ? 1 : 0;
  while (gate->running > self) gate->cv.wait(gate->mu);
}

void TpsSession::publish_subscriber_list() {
  auto next = std::make_shared<const std::vector<Subscriber>>(subscribers_);
  const util::MutexLock lock(list_mu_);
  subscribers_snapshot_ = std::move(next);
}

std::uint64_t TpsSession::subscribe(Subscriber subscriber) {
  const util::MutexLock lock(mu_);
  if (!initialized_ || shut_down_) {
    throw PsException("session is not running");
  }
  add(kSubscribes);
  subscriber.id = next_subscriber_id_++;
  subscriber.gate = std::make_shared<SubscriberGate>();
  const std::uint64_t id = subscriber.id;
  subscribers_.push_back(std::move(subscriber));
  publish_subscriber_list();
  return id;
}

Subscription TpsSession::subscribe_scoped(Subscriber subscriber) {
  const std::uint64_t id = subscribe(std::move(subscriber));
  return Subscription(weak_from_this(), id);
}

bool TpsSession::unsubscribe_by_id(std::uint64_t id) {
  std::shared_ptr<SubscriberGate> gate;
  {
    const util::MutexLock lock(mu_);
    const auto it =
        std::find_if(subscribers_.begin(), subscribers_.end(),
                     [&](const Subscriber& s) { return s.id == id; });
    if (it == subscribers_.end()) return false;
    gate = std::move(it->gate);
    subscribers_.erase(it);
    publish_subscriber_list();
  }
  // With mu_ released (the callback may be inside publish/subscribe), wait
  // out any in-flight invocation: after this returns the callback is done.
  close_gate(gate);
  return true;
}

void Subscription::cancel() noexcept {
  if (id_ == 0) return;
  if (const auto session = session_.lock()) session->unsubscribe_by_id(id_);
  session_.reset();
  id_ = 0;
}

void TpsSession::unsubscribe(const void* callback_tag,
                             const void* handler_tag) {
  std::vector<std::shared_ptr<SubscriberGate>> gates;
  {
    const util::MutexLock lock(mu_);
    const auto before = subscribers_.size();
    std::erase_if(subscribers_, [&](Subscriber& s) {
      if (s.callback_tag != callback_tag || s.handler_tag != handler_tag) {
        return false;
      }
      gates.push_back(std::move(s.gate));
      return true;
    });
    if (subscribers_.size() == before) {
      throw PsException("unsubscribe: this (call-back, handler) pair is not "
                        "subscribed");
    }
    publish_subscriber_list();
  }
  for (const auto& gate : gates) close_gate(gate);
}

void TpsSession::unsubscribe_all() {
  std::vector<std::shared_ptr<SubscriberGate>> gates;
  {
    const util::MutexLock lock(mu_);
    gates.reserve(subscribers_.size());
    for (auto& s : subscribers_) gates.push_back(std::move(s.gate));
    subscribers_.clear();
    publish_subscriber_list();
  }
  for (const auto& gate : gates) close_gate(gate);
}

std::size_t TpsSession::subscriber_count() const {
  const util::MutexLock lock(mu_);
  return subscribers_.size();
}

std::vector<serial::EventPtr> TpsSession::objects_received() const {
  const util::MutexLock lock(mu_);
  return received_;
}

std::vector<serial::EventPtr> TpsSession::objects_sent() const {
  const util::MutexLock lock(mu_);
  return sent_;
}

TpsStats TpsSession::stats() const {
  const auto count = [this](Stat stat) {
    return counts_[stat].load(std::memory_order_relaxed);
  };
  TpsStats out;
  out.published = count(kPublished);
  out.wire_sends = count(kWireSends);
  out.received_unique = count(kReceivedUnique);
  out.duplicates_suppressed = count(kDuplicatesSuppressed);
  out.decode_failures = count(kDecodeFailures);
  out.callback_errors = count(kCallbackErrors);
  out.codec_fallbacks = count(kCodecFallbacks);
  out.batches_sent = count(kBatchesSent);
  out.batched_events = count(kBatchedEvents);
  out.encode_cache_hits = encode_cache_.hits();
  out.publish_drops = count(kPublishDrops);
  out.send_queue_hwm = count(kSendQueueHwm);
  out.deliveries_inline = count(kDeliveriesInline);
  out.deliveries_pooled = count(kDeliveriesPooled);
  if (executor_) {
    out.delivery_drops = executor_->dropped();
    out.delivery_queue_hwm = executor_->queue_hwm();
  }
  out.dedup_probes = count(kDedupProbes);
  return out;
}

std::size_t TpsSession::binding_count(std::string_view type) const {
  const util::MutexLock lock(mu_);
  const std::string key = type.empty() ? type_name_ : std::string(type);
  const auto it = channels_.find(key);
  return it != channels_.end() ? it->second.bindings.size() : 0;
}

}  // namespace p2p::tps
