#include "jxta/discovery.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "jxta/kad_service.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer_queue.h"

namespace p2p::jxta {

namespace {

// Cadence of the cache expiry sweep (satellite of the DHT work: get_local
// used to pay a liveness comparison per dead entry on every scan).
constexpr util::Duration kSweepInterval{5'000};

// Query payload layout.
struct QueryBody {
  DiscoveryType type{};
  std::string attr;
  std::string value;
  std::uint64_t threshold = DiscoveryService::kDefaultThreshold;
};

util::Bytes encode_query(const QueryBody& q) {
  util::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(q.type));
  w.write_string(q.attr);
  w.write_string(q.value);
  w.write_varint(q.threshold);
  return w.take();
}

QueryBody decode_query(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  QueryBody q;
  q.type = static_cast<DiscoveryType>(r.read_u8());
  q.attr = r.read_string();
  q.value = r.read_string();
  q.threshold = r.read_varint();
  return q;
}

}  // namespace

DiscoveryService::DiscoveryService(ResolverService& resolver,
                                   util::Clock& clock,
                                   util::TimerQueue& timers)
    : resolver_(resolver),
      clock_(clock),
      timers_(timers),
      cache_hits_(resolver.metrics().counter("jxta.discovery.cache_hits")),
      cache_misses_(
          resolver.metrics().counter("jxta.discovery.cache_misses")),
      remote_queries_(
          resolver.metrics().counter("jxta.discovery.remote_queries")),
      advs_cached_(resolver.metrics().counter("jxta.discovery.advs_cached")),
      flood_fallbacks_(
          resolver.metrics().counter("jxta.discovery.flood_fallbacks")),
      cache_size_gauge_(
          resolver.metrics().gauge("jxta.discovery.cache_size")) {}

void DiscoveryService::start() {
  {
    const util::MutexLock lock(mu_);
    if (started_) return;
    started_ = true;
    auto weak = weak_from_this();
    sweep_timer_ = timers_.schedule_after(
        kSweepInterval, [weak] {
          if (const auto self = weak.lock()) self->sweep_tick();
        });
  }
  resolver_.register_handler(std::string(kHandlerName), weak_from_this());
}

void DiscoveryService::stop() {
  std::uint64_t timer = 0;
  {
    const util::MutexLock lock(mu_);
    if (!started_) return;
    started_ = false;
    timer = sweep_timer_;
    sweep_timer_ = 0;
  }
  timers_.cancel(timer);
  resolver_.unregister_handler(std::string(kHandlerName));
}

void DiscoveryService::store(const Advertisement& adv, DiscoveryType type,
                             std::int64_t lifetime_ms) {
  const util::MutexLock lock(mu_);
  Entry entry;
  entry.adv = AdvertisementPtr(adv.clone().release());
  entry.expires = clock_.now() + util::Duration{lifetime_ms};
  const auto [it, inserted] = min_expires_.emplace(type, entry.expires);
  if (!inserted && entry.expires < it->second) it->second = entry.expires;
  cache_[type][adv.identity()] = std::move(entry);
  advs_cached_.inc();
  std::size_t total = 0;
  for (const auto& [t, entries] : cache_) total += entries.size();
  cache_size_gauge_.set(static_cast<std::int64_t>(total));
}

void DiscoveryService::sweep_tick() {
  const util::MutexLock lock(mu_);
  if (!started_) return;
  const auto now = clock_.now();
  std::size_t total = 0;
  for (auto& [type, entries] : cache_) {
    auto earliest = util::TimePoint::max();
    for (auto it = entries.begin(); it != entries.end();) {
      if (it->second.expires < now) {
        it = entries.erase(it);
      } else {
        if (it->second.expires < earliest) earliest = it->second.expires;
        ++it;
      }
    }
    min_expires_[type] = earliest;
    total += entries.size();
  }
  cache_size_gauge_.set(static_cast<std::int64_t>(total));
  auto weak = weak_from_this();
  sweep_timer_ = timers_.schedule_after(
      kSweepInterval, [weak] {
        if (const auto self = weak.lock()) self->sweep_tick();
      });
}

void DiscoveryService::publish(const Advertisement& adv, DiscoveryType type,
                               std::int64_t lifetime_ms) {
  store(adv, type, lifetime_ms);
}

void DiscoveryService::remote_publish(const Advertisement& adv,
                                      DiscoveryType type,
                                      std::int64_t lifetime_ms) {
  publish(adv, type, lifetime_ms);
  // With a routable DHT, placement replaces the flood: the record is
  // STOREd at the k peers closest to its index keys, and lookups route to
  // them in O(log N). Peer advertisements still flood as well — the
  // rendezvous/lease machinery of non-DHT peers depends on seeing them.
  if (dht_ && dht_->ready()) {
    dht_->store_advertisement(static_cast<std::uint8_t>(type), adv,
                              lifetime_ms);
    if (type != DiscoveryType::kPeer) return;
  }
  // An unsolicited push is a response with a nil query id, propagated
  // group-wide through the resolver's query channel: we reuse the query
  // mechanism with a special "push" marker instead of adding a channel.
  std::vector<AdvertisementPtr> batch{
      AdvertisementPtr(adv.clone().release())};
  util::ByteWriter w;
  w.write_u8(1);  // marker: push
  w.write_raw(encode_batch(type, batch, lifetime_ms));
  resolver_.send_query(std::string(kHandlerName), w.take());
}

std::vector<AdvertisementPtr> DiscoveryService::get_local(
    DiscoveryType type, std::string_view attr, std::string_view value) const {
  std::vector<AdvertisementPtr> out;
  {
    const util::MutexLock lock(mu_);
    const auto it = cache_.find(type);
    if (it != cache_.end()) {
      const auto now = clock_.now();
      // Fast path: when the earliest expiry of this type is still ahead,
      // nothing can be stale — skip the per-entry liveness comparisons.
      // (Dead entries themselves are erased by the periodic sweep_tick.)
      const auto me = min_expires_.find(type);
      const bool maybe_stale = me == min_expires_.end() || me->second < now;
      for (const auto& [identity, entry] : it->second) {
        if (maybe_stale && entry.expires < now) continue;  // stale
        if (!attr.empty() &&
            !util::glob_match(value, entry.adv->field(attr))) {
          continue;
        }
        out.push_back(entry.adv);
      }
    }
  }
  if (out.empty()) {
    cache_misses_.inc();
  } else {
    cache_hits_.inc();
  }
  return out;
}

util::Uuid DiscoveryService::get_remote(DiscoveryType type,
                                        std::string_view attr,
                                        std::string_view value,
                                        std::size_t threshold,
                                        const std::optional<PeerId>& peer) {
  QueryBody q;
  q.type = type;
  q.attr = std::string(attr);
  q.value = std::string(value);
  q.threshold = threshold;
  util::ByteWriter w;
  w.write_u8(0);  // marker: query
  w.write_raw(encode_query(q));
  remote_queries_.inc();

  // DHT-first path: exact-match queries on indexed attributes route
  // through the Kademlia backend in O(log N) RPCs. Directed queries keep
  // their explicit destination, glob/unindexed queries have no key, and a
  // not-yet-routable table floods — all deterministically. A DHT miss
  // falls back to the flood under the SAME query id, so listeners observe
  // one logical query regardless of which plane answered it.
  if (!peer && dht_ && dht_->config().prefer_dht && dht_->ready()) {
    if (const auto key = KadService::advertisement_key(
            static_cast<std::uint8_t>(type), attr, value)) {
      const util::Uuid query_id = util::Uuid::generate();
      auto weak = weak_from_this();
      dht_->lookup_value(
          *key, [weak, type, query_id, frame = w.take()](
                    std::vector<KadRecord> records, std::uint8_t /*adv_type*/,
                    std::uint32_t /*hops*/) {
            const auto self = weak.lock();
            if (!self) return;
            if (records.empty()) {
              // Converged miss: fall back to the rendezvous flood.
              self->flood_fallbacks_.inc();
              self->resolver_.send_query(std::string(kHandlerName), frame,
                                         std::nullopt, query_id);
              return;
            }
            DiscoveryEvent event;
            event.type = type;
            event.query_id = query_id;
            // DHT records carry no responder identity; the event reports
            // the local peer as the supplier of the resolved batch.
            event.source = self->resolver_.endpoint().local_peer();
            for (const auto& rec : records) {
              try {
                std::unique_ptr<Advertisement> adv =
                    AdvertisementFactory::instance().parse_text(rec.adv_xml);
                self->store(*adv, type, rec.lifetime_ms);
                event.advertisements.emplace_back(adv.release());
              } catch (const std::exception& e) {
                P2P_LOG(kWarn, "discovery")
                    << "dropping bad DHT record: " << e.what();
              }
            }
            if (!event.advertisements.empty()) self->fire(event);
          });
      return query_id;
    }
  }
  return resolver_.send_query(std::string(kHandlerName), w.take(), peer);
}

void DiscoveryService::flush(DiscoveryType type) {
  const util::MutexLock lock(mu_);
  cache_.erase(type);
  min_expires_.erase(type);
}

void DiscoveryService::flush(DiscoveryType type, const std::string& identity) {
  const util::MutexLock lock(mu_);
  const auto it = cache_.find(type);
  if (it != cache_.end()) it->second.erase(identity);
}

std::uint64_t DiscoveryService::add_listener(DiscoveryListener listener) {
  const util::MutexLock lock(mu_);
  const std::uint64_t handle = next_listener_++;
  listeners_[handle] = std::move(listener);
  return handle;
}

void DiscoveryService::remove_listener(std::uint64_t handle) {
  const util::MutexLock lock(mu_);
  listeners_.erase(handle);
  // Do not return while this listener runs on another thread: callers free
  // listener-captured state right after removal. If WE are inside that
  // listener (self-removal), waiting would deadlock — skip; our own frame
  // keeps the state alive until the listener returns.
  const auto stack_it = firing_stacks_.find(std::this_thread::get_id());
  if (stack_it != firing_stacks_.end()) {
    for (const std::uint64_t firing : stack_it->second) {
      if (firing == handle) return;
    }
  }
  while (firing_counts_.contains(handle)) fire_cv_.wait(mu_);
}

void DiscoveryService::fire(const DiscoveryEvent& event) {
  std::vector<std::pair<std::uint64_t, DiscoveryListener>> listeners;
  {
    const util::MutexLock lock(mu_);
    listeners.reserve(listeners_.size());
    for (const auto& [handle, l] : listeners_) listeners.emplace_back(handle, l);
  }
  const auto tid = std::this_thread::get_id();
  for (const auto& [handle, l] : listeners) {
    {
      const util::MutexLock lock(mu_);
      if (!listeners_.contains(handle)) continue;  // removed meanwhile
      ++firing_counts_[handle];
      firing_stacks_[tid].push_back(handle);
    }
    try {
      l(event);
    } catch (const std::exception& e) {
      P2P_LOG(kError, "discovery") << "listener threw: " << e.what();
    }
    {
      const util::MutexLock lock(mu_);
      if (--firing_counts_[handle] == 0) firing_counts_.erase(handle);
      auto& stack = firing_stacks_[tid];
      stack.pop_back();
      if (stack.empty()) firing_stacks_.erase(tid);
    }
    fire_cv_.notify_all();
  }
}

util::Bytes DiscoveryService::encode_batch(
    DiscoveryType type, const std::vector<AdvertisementPtr>& advs,
    std::int64_t lifetime_ms) {
  util::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(type));
  w.write_varint(advs.size());
  for (const auto& adv : advs) {
    w.write_string(adv->to_xml_text());
    w.write_i64(lifetime_ms);
  }
  return w.take();
}

void DiscoveryService::decode_and_cache(std::span<const std::uint8_t> payload,
                                        const util::Uuid& query_id,
                                        const PeerId& source) {
  util::ByteReader r(payload);
  const auto type = static_cast<DiscoveryType>(r.read_u8());
  const std::uint64_t count = r.read_varint();
  DiscoveryEvent event;
  event.type = type;
  event.query_id = query_id;
  event.source = source;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string text = r.read_string();
    const std::int64_t lifetime_ms = r.read_i64();
    try {
      std::unique_ptr<Advertisement> adv =
          AdvertisementFactory::instance().parse_text(text);
      store(*adv, type, lifetime_ms);
      // Peer advertisements double as DHT contact discovery: a peer that
      // advertises the capability joins the routing table.
      if (dht_) {
        if (const auto* peer_adv =
                dynamic_cast<const PeerAdvertisement*>(adv.get());
            peer_adv != nullptr && peer_adv->supports_dht) {
          dht_->observe_peer(peer_adv->pid, peer_adv->endpoints);
        }
      }
      event.advertisements.emplace_back(adv.release());
    } catch (const std::exception& e) {
      P2P_LOG(kWarn, "discovery") << "dropping bad advertisement: "
                                  << e.what();
    }
  }
  if (!event.advertisements.empty()) fire(event);
}

std::optional<util::Bytes> DiscoveryService::process_query(
    const ResolverQuery& q) {
  util::ByteReader r(q.payload);
  const std::uint8_t marker = r.read_u8();
  if (marker == 1) {
    // Unsolicited push (remote_publish by someone else).
    const util::Bytes rest = r.read_raw(r.remaining());
    decode_and_cache(rest, util::Uuid{}, q.src);
    return std::nullopt;
  }
  const QueryBody body = decode_query(r.read_raw(r.remaining()));
  std::vector<AdvertisementPtr> matches =
      get_local(body.type, body.attr, body.value);
  if (matches.empty()) return std::nullopt;
  if (matches.size() > body.threshold) matches.resize(body.threshold);
  // Remaining lifetime is approximated by the default; shipping precise
  // per-entry remaining lifetimes would need the cache entry, kept simple.
  return encode_batch(body.type, matches, kDefaultAdvLifetimeMs);
}

void DiscoveryService::process_response(const ResolverResponse& resp) {
  decode_and_cache(resp.payload, resp.query_id, resp.responder);
}

std::size_t DiscoveryService::save_cache(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw util::P2pError("cannot open cache file for writing: " + path);
  }
  std::size_t saved = 0;
  const util::MutexLock lock(mu_);
  const auto now = clock_.now();
  for (const auto& [type, entries] : cache_) {
    for (const auto& [identity, entry] : entries) {
      if (entry.expires < now) continue;
      const auto remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              entry.expires - now)
              .count();
      // Compact XML has no newlines, so a two-line frame suffices.
      out << "ADV " << static_cast<int>(type) << ' ' << remaining_ms << '\n'
          << entry.adv->to_xml_text() << '\n';
      ++saved;
    }
  }
  return saved;
}

std::size_t DiscoveryService::load_cache(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;  // no stable storage yet — not an error
  std::size_t loaded = 0;
  std::string header;
  std::string xml_line;
  while (std::getline(in, header)) {
    if (!std::getline(in, xml_line)) break;
    int type_int = 0;
    std::int64_t remaining_ms = 0;
    if (std::sscanf(header.c_str(), "ADV %d %" SCNd64, &type_int,
                    &remaining_ms) != 2 ||
        remaining_ms <= 0) {
      continue;  // expired while down, or malformed
    }
    try {
      const auto adv = AdvertisementFactory::instance().parse_text(xml_line);
      store(*adv, static_cast<DiscoveryType>(type_int), remaining_ms);
      ++loaded;
    } catch (const std::exception& e) {
      P2P_LOG(kWarn, "discovery")
          << "skipping bad persisted advertisement: " << e.what();
    }
  }
  return loaded;
}

std::size_t DiscoveryService::cache_size(DiscoveryType type) const {
  const util::MutexLock lock(mu_);
  const auto it = cache_.find(type);
  if (it == cache_.end()) return 0;
  const auto now = clock_.now();
  std::size_t n = 0;
  for (const auto& [identity, entry] : it->second) {
    if (entry.expires >= now) ++n;
  }
  return n;
}

}  // namespace p2p::jxta
