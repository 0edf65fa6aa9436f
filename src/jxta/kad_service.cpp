#include "jxta/kad_service.h"

#include <algorithm>

#include "util/logging.h"
#include "util/timer_queue.h"

namespace p2p::jxta {

namespace {

// Histogram buckets for lookup hop depth: O(log N) should keep real
// lookups in the low single digits.
std::vector<double> hop_bounds() { return {1, 2, 3, 4, 6, 8, 12, 16, 24}; }

struct ParsedRecord {
  std::string identity;
  std::string xml;
  std::int64_t lifetime_ms = 0;
};

// Validates STORE'd records through the advertisement factory (bad XML is
// dropped, not stored) and extracts the replace-key identity. Runs before
// the service mutex is taken — parsing is pure but not cheap.
std::vector<ParsedRecord> parse_records(const std::vector<KadRecord>& recs) {
  std::vector<ParsedRecord> out;
  out.reserve(recs.size());
  for (const auto& rec : recs) {
    if (rec.lifetime_ms <= 0) continue;
    try {
      const auto adv =
          AdvertisementFactory::instance().parse_text(rec.adv_xml);
      out.push_back({adv->identity(), rec.adv_xml, rec.lifetime_ms});
    } catch (const std::exception& e) {
      P2P_LOG(kWarn, "kad") << "dropping bad stored advertisement: "
                            << e.what();
    }
  }
  return out;
}

}  // namespace

KadService::KadService(ResolverService& resolver, util::Clock& clock,
                       KadConfig config, util::TimerQueue& timers)
    : resolver_(resolver),
      clock_(clock),
      timers_(timers),
      config_(config),
      self_(resolver.endpoint().local_peer()),
      lookups_(resolver.metrics().counter("jxta.dht.lookups")),
      lookup_hops_(
          resolver.metrics().histogram("jxta.dht.lookup_hops", hop_bounds())),
      rpcs_sent_(resolver.metrics().counter("jxta.dht.rpcs_sent")),
      rpc_timeouts_(resolver.metrics().counter("jxta.dht.rpc_timeouts")),
      bucket_evictions_(
          resolver.metrics().counter("jxta.dht.bucket_evictions")),
      stores_(resolver.metrics().counter("jxta.dht.stores")),
      decode_errors_(resolver.metrics().counter("jxta.decode_errors")),
      routing_(resolver.endpoint().local_peer(), config.k) {}

void KadService::start() {
  {
    const util::MutexLock lock(mu_);
    if (started_) return;
    started_ = true;
    auto weak = weak_from_this();
    tick_timer_ = timers_.schedule_after(
        config_.liveness_interval, [weak] {
          if (const auto self = weak.lock()) self->maintenance_tick();
        });
  }
  resolver_.register_handler(std::string(kHandlerName), weak_from_this());
}

void KadService::stop() {
  std::uint64_t timer = 0;
  Callbacks cbs;
  {
    const util::MutexLock lock(mu_);
    if (!started_) return;
    started_ = false;
    timer = tick_timer_;
    tick_timer_ = 0;
    pending_.clear();
    // Outstanding lookups miss out: fire their callbacks (exactly-once
    // contract) after the lock drops. Owners torn down before us ignore
    // the miss behind their own started_ flags.
    for (auto& [id, lk] : lookups_live_) {
      if (lk.value_cb) {
        cbs.push_back([cb = std::move(lk.value_cb)] { cb({}, 0, 0); });
      } else if (lk.node_cb) {
        cbs.push_back([cb = std::move(lk.node_cb)] { cb({}); });
      }
    }
    lookups_live_.clear();
  }
  timers_.cancel(timer);
  resolver_.unregister_handler(std::string(kHandlerName));
  for (const auto& cb : cbs) cb();
}

bool KadService::ready() const {
  const util::MutexLock lock(mu_);
  return started_ && routing_.size() > 0;
}

std::size_t KadService::routing_size() const {
  const util::MutexLock lock(mu_);
  return routing_.size();
}

std::size_t KadService::store_size() const {
  const util::MutexLock lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, ks] : store_) n += ks.by_identity.size();
  return n;
}

std::optional<util::Uuid> KadService::advertisement_key(
    std::uint8_t adv_type, std::string_view attr, std::string_view value) {
  std::string_view canon;
  if (attr == "Name") {
    canon = "Name";
  } else if (attr == "ID" || attr == "Id" || attr == "PID") {
    canon = "ID";
  } else {
    return std::nullopt;
  }
  if (value.empty()) return std::nullopt;
  // Glob queries match many values and cannot hash to one key.
  if (value.find_first_of("*?[") != std::string_view::npos) {
    return std::nullopt;
  }
  std::string text = "kad|";
  text += std::to_string(adv_type);
  text += '|';
  text += canon;
  text += '|';
  text += value;
  return util::Uuid::derive(text);
}

// --- routing-table upkeep ---------------------------------------------------

void KadService::observe_locked(const PeerId& id, Actions& actions) {
  PeerId lru;
  const auto result = routing_.observe(id, clock_.now(), &lru);
  if (result == KadRoutingTable::ObserveResult::kFull) {
    // Never drop a live old contact for a newcomer: ping the bucket's LRU
    // and evict only on timeout. One probe per candidate at a time.
    for (const auto& [qid, rpc] : pending_) {
      if (rpc.replacement.has_value() && rpc.peer == lru) return;
    }
    KadFrame ping;
    ping.op = KadOp::kPing;
    send_rpc_locked(lru, KadOp::kPing, encode_kad_frame(ping), 0, 0, id,
                    actions);
  }
  if (result == KadRoutingTable::ObserveResult::kInserted && !bootstrapped_) {
    // First contact: a self-lookup walks toward our own id and fills the
    // near buckets (Kademlia's join procedure).
    bootstrapped_ = true;
    Callbacks cbs;  // a fresh lookup with one seed cannot finish inline
    start_lookup_locked(self_.uuid(), false, nullptr, nullptr, actions, cbs);
  }
}

void KadService::observe_peer(const PeerId& id,
                              const std::vector<net::Address>& addresses) {
  if (id == self_) return;
  if (!addresses.empty()) {
    resolver_.endpoint().learn_peer(id, addresses, false);
  }
  Actions actions;
  {
    const util::MutexLock lock(mu_);
    if (!started_) return;
    observe_locked(id, actions);
  }
  perform(std::move(actions));
}

// --- RPC plumbing -----------------------------------------------------------

util::Uuid KadService::send_rpc_locked(const PeerId& dst, KadOp op,
                                       util::Bytes frame,
                                       std::uint64_t lookup_id,
                                       std::uint32_t depth,
                                       std::optional<PeerId> replacement,
                                       Actions& actions) {
  const util::Uuid qid = util::Uuid::generate();
  PendingRpc rpc;
  rpc.op = op;
  rpc.peer = dst;
  rpc.frame = frame;
  rpc.lookup_id = lookup_id;
  rpc.depth = depth;
  rpc.attempt = 0;
  rpc.timeout = config_.rpc_timeout;
  rpc.replacement = replacement;
  actions.push_back({qid, dst, std::move(frame), rpc.timeout});
  pending_.emplace(qid, std::move(rpc));
  return qid;
}

void KadService::perform(Actions actions) {
  for (auto& send : actions) {
    rpcs_sent_.inc();
    resolver_.send_query(std::string(kHandlerName), std::move(send.frame),
                         send.dst, send.query_id);
    auto weak = weak_from_this();
    timers_.schedule_after(
        send.timeout, [weak, qid = send.query_id] {
          if (const auto self = weak.lock()) self->on_rpc_timeout(qid);
        });
  }
}

void KadService::on_rpc_timeout(const util::Uuid& query_id) {
  Actions actions;
  Callbacks cbs;
  {
    const util::MutexLock lock(mu_);
    if (!started_) return;
    const auto it = pending_.find(query_id);
    if (it == pending_.end()) return;  // answered meanwhile
    PendingRpc rpc = std::move(it->second);
    pending_.erase(it);
    rpc_timeouts_.inc();
    if (rpc.attempt < config_.rpc_retries) {
      // Retry under a fresh id with a doubled deadline (backoff).
      const util::Uuid retry_id = util::Uuid::generate();
      PendingRpc again = rpc;
      ++again.attempt;
      again.timeout = rpc.timeout * 2;
      actions.push_back({retry_id, again.peer, again.frame, again.timeout});
      pending_.emplace(retry_id, std::move(again));
    } else {
      if (rpc.replacement.has_value()) {
        // The eviction probe went unanswered: the newcomer takes the
        // stale contact's bucket slot.
        routing_.replace(rpc.peer, *rpc.replacement, clock_.now());
        bucket_evictions_.inc();
      } else {
        routing_.remove(rpc.peer);
      }
      if (rpc.lookup_id != 0) {
        const auto lit = lookups_live_.find(rpc.lookup_id);
        if (lit != lookups_live_.end()) {
          Lookup& lk = lit->second;
          for (auto& entry : lk.shortlist) {
            if (entry.id == rpc.peer &&
                entry.state == LookupEntry::State::kInflight) {
              entry.state = LookupEntry::State::kFailed;
              --lk.inflight;
              break;
            }
          }
          continue_lookup_locked(lk, actions, cbs);
        }
      }
    }
  }
  perform(std::move(actions));
  for (const auto& cb : cbs) cb();
}

void KadService::maintenance_tick() {
  Actions actions;
  {
    const util::MutexLock lock(mu_);
    if (!started_) return;
    const auto now = clock_.now();
    // Expire stored records; empty keys vanish.
    for (auto it = store_.begin(); it != store_.end();) {
      auto& by_identity = it->second.by_identity;
      for (auto rit = by_identity.begin(); rit != by_identity.end();) {
        if (rit->second.expires < now) {
          rit = by_identity.erase(rit);
        } else {
          ++rit;
        }
      }
      it = by_identity.empty() ? store_.erase(it) : std::next(it);
    }
    // Liveness-ping contacts we have not heard from in a while; a timeout
    // removes them from the table.
    for (const PeerId& id : routing_.stale(now - config_.staleness)) {
      bool probing = false;
      for (const auto& [qid, rpc] : pending_) {
        if (rpc.peer == id && rpc.op == KadOp::kPing) {
          probing = true;
          break;
        }
      }
      if (probing) continue;
      KadFrame ping;
      ping.op = KadOp::kPing;
      send_rpc_locked(id, KadOp::kPing, encode_kad_frame(ping), 0, 0,
                      std::nullopt, actions);
    }
    auto weak = weak_from_this();
    tick_timer_ = timers_.schedule_after(
        config_.liveness_interval, [weak] {
          if (const auto self = weak.lock()) self->maintenance_tick();
        });
  }
  perform(std::move(actions));
}

// --- iterative lookups ------------------------------------------------------

void KadService::insert_shortlist_locked(Lookup& lookup, const PeerId& id,
                                         std::uint32_t depth) {
  if (id == self_) return;
  for (const auto& entry : lookup.shortlist) {
    if (entry.id == id) return;
  }
  const auto pos = std::find_if(
      lookup.shortlist.begin(), lookup.shortlist.end(),
      [&](const LookupEntry& e) {
        return KadRoutingTable::closer(lookup.target, id.uuid(),
                                       e.id.uuid());
      });
  // The shortlist only ever needs the closest few candidates; a hostile
  // kNodes flood cannot grow it without bound.
  if (pos == lookup.shortlist.end() &&
      lookup.shortlist.size() >= config_.k * 8) {
    return;
  }
  lookup.shortlist.insert(pos, {id, depth, LookupEntry::State::kUntried});
  if (lookup.shortlist.size() > config_.k * 8) lookup.shortlist.pop_back();
}

void KadService::start_lookup_locked(const util::Uuid& target,
                                     bool find_value, ValueCallback vcb,
                                     NodeCallback ncb, Actions& actions,
                                     Callbacks& cbs) {
  lookups_.inc();
  Lookup lookup;
  lookup.id = next_lookup_++;
  lookup.target = target;
  lookup.find_value = find_value;
  lookup.value_cb = std::move(vcb);
  lookup.node_cb = std::move(ncb);
  if (find_value) {
    // A local replica answers without touching the network.
    const auto records = find_records_locked(target);
    if (!records.empty()) {
      const std::uint8_t adv_type = store_[target].adv_type;
      if (lookup.value_cb) {
        cbs.push_back([cb = std::move(lookup.value_cb), records,
                       adv_type] { cb(records, adv_type, 0); });
      }
      return;
    }
  }
  for (const PeerId& id : routing_.closest(target, config_.k)) {
    insert_shortlist_locked(lookup, id, 1);
  }
  const auto [it, inserted] = lookups_live_.emplace(lookup.id,
                                                   std::move(lookup));
  continue_lookup_locked(it->second, actions, cbs);
}

void KadService::continue_lookup_locked(Lookup& lookup, Actions& actions,
                                        Callbacks& cbs) {
  while (lookup.inflight < config_.alpha) {
    // Next candidate: the closest untried entry among the k closest
    // not-failed ones (querying beyond that window cannot improve the
    // result set).
    LookupEntry* pick = nullptr;
    std::size_t considered = 0;
    for (auto& entry : lookup.shortlist) {
      if (entry.state == LookupEntry::State::kFailed) continue;
      if (considered++ >= config_.k) break;
      if (entry.state == LookupEntry::State::kUntried) {
        pick = &entry;
        break;
      }
    }
    if (pick == nullptr) break;
    pick->state = LookupEntry::State::kInflight;
    ++lookup.inflight;
    lookup.max_depth = std::max(lookup.max_depth, pick->depth);
    KadFrame frame;
    frame.op = lookup.find_value ? KadOp::kFindValue : KadOp::kFindNode;
    frame.key = lookup.target;
    send_rpc_locked(pick->id, frame.op, encode_kad_frame(frame), lookup.id,
                    pick->depth, std::nullopt, actions);
  }
  if (lookup.inflight == 0) {
    // Nothing in flight and nothing left to try: converged (a value
    // lookup that reaches here missed).
    finish_lookup_locked(lookup, {}, 0, cbs);
  }
}

void KadService::finish_lookup_locked(Lookup& lookup,
                                      std::vector<KadRecord> records,
                                      std::uint8_t adv_type, Callbacks& cbs) {
  lookup_hops_.record(static_cast<double>(lookup.max_depth));
  if (lookup.value_cb) {
    cbs.push_back([cb = std::move(lookup.value_cb),
                   recs = std::move(records), adv_type,
                   hops = lookup.max_depth] { cb(recs, adv_type, hops); });
  } else if (lookup.node_cb) {
    std::vector<PeerId> closest;
    for (const auto& entry : lookup.shortlist) {
      if (entry.state != LookupEntry::State::kDone) continue;
      closest.push_back(entry.id);
      if (closest.size() >= config_.k) break;
    }
    cbs.push_back([cb = std::move(lookup.node_cb),
                   ids = std::move(closest)] { cb(ids); });
  }
  lookups_live_.erase(lookup.id);  // `lookup` is dangling after this line
}

void KadService::lookup_value(const util::Uuid& key, ValueCallback cb) {
  Actions actions;
  Callbacks cbs;
  {
    const util::MutexLock lock(mu_);
    if (!started_) {
      cbs.push_back([cb = std::move(cb)] { cb({}, 0, 0); });
    } else {
      start_lookup_locked(key, true, std::move(cb), nullptr, actions, cbs);
    }
  }
  perform(std::move(actions));
  for (const auto& f : cbs) f();
}

void KadService::lookup_node(const util::Uuid& key, NodeCallback cb) {
  Actions actions;
  Callbacks cbs;
  {
    const util::MutexLock lock(mu_);
    if (!started_) {
      cbs.push_back([cb = std::move(cb)] { cb({}); });
    } else {
      start_lookup_locked(key, false, nullptr, std::move(cb), actions, cbs);
    }
  }
  perform(std::move(actions));
  for (const auto& f : cbs) f();
}

// --- the record store -------------------------------------------------------

std::vector<KadRecord> KadService::find_records_locked(
    const util::Uuid& key) {
  std::vector<KadRecord> out;
  const auto it = store_.find(key);
  if (it == store_.end()) return out;
  const auto now = clock_.now();
  auto& by_identity = it->second.by_identity;
  for (auto rit = by_identity.begin(); rit != by_identity.end();) {
    if (rit->second.expires < now) {
      rit = by_identity.erase(rit);
      continue;
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            rit->second.expires - now)
            .count();
    out.push_back({rit->second.xml, remaining});
    ++rit;
  }
  if (by_identity.empty()) store_.erase(it);
  return out;
}

std::vector<KadContact> KadService::closest_contacts_locked(
    const util::Uuid& key, const PeerId& exclude) {
  std::vector<KadContact> out;
  for (const PeerId& id : routing_.closest(key, config_.k)) {
    if (id == exclude) continue;
    out.push_back({id, resolver_.endpoint().addresses_of(id)});
  }
  return out;
}

void KadService::store_advertisement(std::uint8_t adv_type,
                                     const Advertisement& adv,
                                     std::int64_t lifetime_ms) {
  if (lifetime_ms <= 0) return;
  const std::string xml = adv.to_xml_text();
  const std::string identity = adv.identity();
  std::vector<util::Uuid> keys;
  for (const std::string_view attr : {"Name", "ID"}) {
    const std::string value = adv.field(attr);
    if (const auto key = advertisement_key(adv_type, attr, value)) {
      if (std::find(keys.begin(), keys.end(), *key) == keys.end()) {
        keys.push_back(*key);
      }
    }
  }
  if (keys.empty()) return;
  {
    const util::MutexLock lock(mu_);
    if (!started_) return;
    // Local replica: the publisher can always answer FIND_VALUE itself.
    const auto expires = clock_.now() + util::Duration{lifetime_ms};
    for (const auto& key : keys) {
      auto& ks = store_[key];
      ks.adv_type = adv_type;
      ks.by_identity[identity] = {xml, expires};
    }
  }
  // Place the record at the k closest live peers to each key.
  for (const auto& key : keys) {
    auto weak = weak_from_this();
    lookup_node(key, [weak, key, adv_type, xml,
                      lifetime_ms](std::vector<PeerId> closest) {
      if (const auto self = weak.lock()) {
        self->send_store(key, adv_type, xml, lifetime_ms, closest);
      }
    });
  }
}

void KadService::send_store(const util::Uuid& key, std::uint8_t adv_type,
                            const std::string& xml, std::int64_t lifetime_ms,
                            const std::vector<PeerId>& closest) {
  if (closest.empty()) return;
  KadFrame frame;
  frame.op = KadOp::kStore;
  frame.key = key;
  frame.adv_type = adv_type;
  frame.records.push_back({xml, lifetime_ms});
  const util::Bytes bytes = encode_kad_frame(frame);
  Actions actions;
  {
    const util::MutexLock lock(mu_);
    if (!started_) return;
    for (const PeerId& peer : closest) {
      stores_.inc();
      send_rpc_locked(peer, KadOp::kStore, bytes, 0, 0, std::nullopt,
                      actions);
    }
  }
  perform(std::move(actions));
}

// --- ResolverHandler --------------------------------------------------------

std::optional<util::Bytes> KadService::process_query(const ResolverQuery& q) {
  const auto decoded = try_decode_kad_frame(q.payload);
  if (!decoded.ok) {
    decode_errors_.inc();
    return std::nullopt;
  }
  const KadFrame& frame = decoded.frame;
  // STORE validation parses XML — keep it outside the mutex.
  std::vector<ParsedRecord> parsed;
  if (frame.op == KadOp::kStore) parsed = parse_records(frame.records);

  Actions actions;
  std::optional<util::Bytes> reply;
  {
    const util::MutexLock lock(mu_);
    if (!started_) return std::nullopt;
    // Every inbound RPC is evidence its sender is alive and speaks kad.
    if (q.src != self_) observe_locked(q.src, actions);
    switch (frame.op) {
      case KadOp::kPing: {
        KadFrame pong;
        pong.op = KadOp::kPong;
        reply = encode_kad_frame(pong);
        break;
      }
      case KadOp::kFindNode:
      case KadOp::kFindValue: {
        if (frame.op == KadOp::kFindValue) {
          const auto records = find_records_locked(frame.key);
          if (!records.empty()) {
            KadFrame value;
            value.op = KadOp::kValue;
            value.key = frame.key;
            value.adv_type = store_[frame.key].adv_type;
            value.records = records;
            reply = encode_kad_frame(value);
            break;
          }
        }
        KadFrame nodes;
        nodes.op = KadOp::kNodes;
        nodes.key = frame.key;
        nodes.contacts = closest_contacts_locked(frame.key, q.src);
        reply = encode_kad_frame(nodes);
        break;
      }
      case KadOp::kStore: {
        if (store_.size() < config_.max_store_keys ||
            store_.contains(frame.key)) {
          auto& ks = store_[frame.key];
          ks.adv_type = frame.adv_type;
          const auto now = clock_.now();
          for (const auto& rec : parsed) {
            if (ks.by_identity.size() >= config_.max_records_per_key &&
                !ks.by_identity.contains(rec.identity)) {
              continue;
            }
            ks.by_identity[rec.identity] = {
                rec.xml, now + util::Duration{rec.lifetime_ms}};
          }
          if (ks.by_identity.empty()) store_.erase(frame.key);
        }
        KadFrame pong;
        pong.op = KadOp::kPong;
        reply = encode_kad_frame(pong);
        break;
      }
      default:
        // Response-only ops arriving as queries: well-formed but
        // nonsensical; drop without an answer.
        break;
    }
  }
  perform(std::move(actions));
  return reply;
}

void KadService::process_response(const ResolverResponse& r) {
  const auto decoded = try_decode_kad_frame(r.payload);
  if (!decoded.ok) {
    decode_errors_.inc();
    return;
  }
  const KadFrame& frame = decoded.frame;
  Actions actions;
  Callbacks cbs;
  std::vector<KadContact> learned;
  {
    const util::MutexLock lock(mu_);
    if (!started_) return;
    const auto it = pending_.find(r.query_id);
    if (it == pending_.end()) return;  // late duplicate or timed out
    PendingRpc rpc = std::move(it->second);
    pending_.erase(it);
    if (r.responder != self_) observe_locked(r.responder, actions);
    const auto lit = rpc.lookup_id != 0 ? lookups_live_.find(rpc.lookup_id)
                                        : lookups_live_.end();
    Lookup* lookup =
        lit != lookups_live_.end() ? &lit->second : nullptr;
    if (lookup != nullptr) {
      for (auto& entry : lookup->shortlist) {
        if (entry.id == rpc.peer &&
            entry.state == LookupEntry::State::kInflight) {
          entry.state = LookupEntry::State::kDone;
          --lookup->inflight;
          break;
        }
      }
    }
    switch (frame.op) {
      case KadOp::kPong:
        // Liveness confirmed; observe_locked above already refreshed the
        // contact, which also cancels any pending eviction of it.
        break;
      case KadOp::kNodes:
        learned = frame.contacts;
        if (lookup != nullptr) {
          for (const auto& contact : frame.contacts) {
            insert_shortlist_locked(*lookup, contact.id, rpc.depth + 1);
          }
          continue_lookup_locked(*lookup, actions, cbs);
        }
        break;
      case KadOp::kValue:
        if (lookup != nullptr && lookup->find_value) {
          finish_lookup_locked(*lookup, frame.records, frame.adv_type, cbs);
        }
        break;
      default:
        break;  // query ops in a response: ignore
    }
  }
  for (const auto& contact : learned) {
    if (contact.id == self_ || contact.addresses.empty()) continue;
    resolver_.endpoint().learn_peer(contact.id, contact.addresses, false);
  }
  perform(std::move(actions));
  for (const auto& cb : cbs) cb();
}

}  // namespace p2p::jxta
