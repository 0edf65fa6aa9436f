#include "jxta/cms.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace p2p::jxta {

// --- ContentAdvertisement -----------------------------------------------------

xml::Element ContentAdvertisement::to_xml() const {
  xml::Element e{std::string(kDocType)};
  e.add_text_child("Id", id.to_string());
  e.add_text_child("Name", name);
  e.add_text_child("Description", description);
  e.add_text_child("Size", std::to_string(size));
  e.add_text_child("Provider", provider.to_string());
  return e;
}

std::string ContentAdvertisement::field(std::string_view key) const {
  if (key == "Name") return name;
  if (key == "Id" || key == "ID") return id.to_string();
  if (key == "Description") return description;
  if (key == "Provider") return provider.to_string();
  return {};
}

ContentAdvertisement ContentAdvertisement::from_xml(const xml::Element& e) {
  ContentAdvertisement adv;
  adv.id = CodatId::parse(e.child_text("Id"));
  adv.name = e.child_text("Name");
  adv.description = e.child_text("Description");
  adv.size = std::stoull(e.child_text("Size").empty()
                             ? "0"
                             : e.child_text("Size"));
  adv.provider = PeerId::parse(e.child_text("Provider"));
  return adv;
}

void ContentAdvertisement::register_with_factory() {
  AdvertisementFactory::instance().register_parser(
      std::string(kDocType), [](const xml::Element& e) {
        return std::make_unique<ContentAdvertisement>(
            ContentAdvertisement::from_xml(e));
      });
}

// --- CmsService -----------------------------------------------------------------

CmsService::CmsService(ResolverService& resolver, EndpointService& endpoint,
                       DiscoveryService& discovery, util::TimerQueue& timers)
    : resolver_(resolver),
      endpoint_(endpoint),
      discovery_(discovery),
      timers_(timers) {
  ContentAdvertisement::register_with_factory();
}

void CmsService::start() {
  {
    const util::MutexLock lock(mu_);
    if (started_) return;
    started_ = true;
  }
  resolver_.register_handler(std::string(kHandlerName), weak_from_this());
}

void CmsService::stop() {
  {
    const util::MutexLock lock(mu_);
    if (!started_) return;
    started_ = false;
  }
  resolver_.unregister_handler(std::string(kHandlerName));
}

ContentAdvertisement CmsService::share(const std::string& name,
                                       const std::string& description,
                                       util::Bytes content) {
  if (content.size() > kMaxContentBytes) {
    throw util::InvalidArgument("codat exceeds kMaxContentBytes");
  }
  ContentAdvertisement adv;
  // Content-derived id: identical bytes -> identical codat everywhere.
  adv.id = CodatId{util::Uuid::derive(
      util::to_string(content))};  // derive hashes the full text
  adv.name = name;
  adv.description = description;
  adv.size = content.size();
  adv.provider = endpoint_.local_peer();
  {
    const util::MutexLock lock(mu_);
    store_[adv.id] = Stored{adv, std::move(content)};
  }
  discovery_.remote_publish(adv, DiscoveryType::kAdv);
  return adv;
}

void CmsService::unshare(const CodatId& id) {
  const util::MutexLock lock(mu_);
  store_.erase(id);
}

std::vector<ContentAdvertisement> CmsService::shared() const {
  const util::MutexLock lock(mu_);
  std::vector<ContentAdvertisement> out;
  out.reserve(store_.size());
  for (const auto& [id, stored] : store_) out.push_back(stored.adv);
  return out;
}

void CmsService::search_async(const std::string& keyword_glob,
                              util::Duration window, SearchCallback done) {
  util::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Kind::kSearch));
  w.write_string(keyword_glob);
  // Responses may arrive before send_query returns (self-answers are
  // synchronous; a 0-latency test fabric is nearly so): process_response
  // therefore creates the collector on demand and we only harvest it when
  // the window deadline fires.
  const util::Uuid query_id =
      resolver_.send_query(std::string(kHandlerName), w.take());
  timers_.schedule_after(
      window,
      [weak = weak_from_this(), query_id, done = std::move(done)] {
        std::vector<ContentAdvertisement> out;
        if (const auto self = weak.lock()) {
          const util::MutexLock lock(self->mu_);
          const auto it = self->search_results_.find(query_id);
          if (it != self->search_results_.end()) {
            out = std::move(it->second);
            self->search_results_.erase(it);
          }
        }
        done(std::move(out));
      });
}

std::vector<ContentAdvertisement> CmsService::search(
    const std::string& keyword_glob, util::Duration window) {
  struct Wait {
    util::Mutex mu{"search-wait"};
    util::CondVar cv;
    bool done GUARDED_BY(mu) = false;
    std::vector<ContentAdvertisement> results GUARDED_BY(mu);
  };
  const auto wait = std::make_shared<Wait>();
  search_async(keyword_glob, window,
               [wait](std::vector<ContentAdvertisement> advs) {
                 {
                   const util::MutexLock lock(wait->mu);
                   wait->results = std::move(advs);
                   wait->done = true;
                 }
                 wait->cv.notify_all();
               });
  const util::MutexLock lock(wait->mu);
  while (!wait->done) wait->cv.wait(wait->mu);
  return std::move(wait->results);
}

std::optional<util::Bytes> CmsService::fetch(const ContentAdvertisement& adv,
                                             util::Duration timeout) {
  util::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Kind::kFetch));
  w.write_u64(adv.id.uuid().hi());
  w.write_u64(adv.id.uuid().lo());
  // Directed to the provider; falls back to propagation if unknown.
  const bool know_provider =
      !endpoint_.addresses_of(adv.provider).empty() ||
      adv.provider == endpoint_.local_peer();
  const util::Uuid query_id = resolver_.send_query(
      std::string(kHandlerName), w.take(),
      know_provider ? std::optional<PeerId>(adv.provider) : std::nullopt);
  const util::MutexLock lock(mu_);
  const util::TimePoint deadline = util::SystemClock::instance().now() + timeout;
  while (!fetch_results_.contains(query_id)) {
    if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) break;
  }
  const auto it = fetch_results_.find(query_id);
  if (it == fetch_results_.end()) return std::nullopt;
  util::Bytes content = std::move(it->second);
  fetch_results_.erase(it);
  // Integrity: the id is content-derived.
  if (CodatId{util::Uuid::derive(util::to_string(content))} != adv.id) {
    P2P_LOG(kWarn, "cms") << "fetched content fails integrity check";
    return std::nullopt;
  }
  return content;
}

std::optional<util::Bytes> CmsService::process_query(const ResolverQuery& q) {
  util::ByteReader r(q.payload);
  const auto kind = static_cast<Kind>(r.read_u8());
  const util::MutexLock lock(mu_);
  if (kind == Kind::kSearch) {
    const std::string glob = r.read_string();
    util::ByteWriter w;
    std::uint64_t matches = 0;
    util::ByteWriter body;
    for (const auto& [id, stored] : store_) {
      if (util::glob_match(glob, stored.adv.name) ||
          util::glob_match(glob, stored.adv.description)) {
        body.write_string(stored.adv.to_xml_text());
        ++matches;
      }
    }
    if (matches == 0) return std::nullopt;
    w.write_u8(static_cast<std::uint8_t>(Kind::kSearch));
    w.write_varint(matches);
    w.write_raw(body.data());
    return w.take();
  }
  if (kind == Kind::kFetch) {
    const CodatId id{util::Uuid{r.read_u64(), r.read_u64()}};
    const auto it = store_.find(id);
    if (it == store_.end()) return std::nullopt;
    util::ByteWriter w;
    w.write_u8(static_cast<std::uint8_t>(Kind::kFetch));
    w.write_bytes(it->second.content);
    return w.take();
  }
  return std::nullopt;
}

template <typename Map>
void CmsService::arm_result_gc(Map CmsService::* map, util::Uuid query_id) {
  timers_.schedule_after(
      kResultTtl, [weak = weak_from_this(), map, query_id] {
        if (const auto self = weak.lock()) {
          const util::MutexLock lock(self->mu_);
          ((*self).*map).erase(query_id);
        }
      });
}

void CmsService::process_response(const ResolverResponse& resp) {
  util::ByteReader r(resp.payload);
  const auto kind = static_cast<Kind>(r.read_u8());
  if (kind == Kind::kSearch) {
    const std::uint64_t count = r.read_varint();
    std::vector<ContentAdvertisement> advs;
    for (std::uint64_t i = 0; i < count; ++i) {
      try {
        advs.push_back(
            ContentAdvertisement::from_xml(xml::parse(r.read_string())));
      } catch (const std::exception& e) {
        P2P_LOG(kWarn, "cms") << "bad search result: " << e.what();
      }
    }
    bool fresh_bucket = false;
    {
      const util::MutexLock lock(mu_);
      // Create-on-demand (answers can beat the collector registration);
      // bound the map against responses to long-forgotten queries.
      if (!search_results_.contains(resp.query_id) &&
          search_results_.size() >= 128) {
        return;
      }
      fresh_bucket = !search_results_.contains(resp.query_id);
      auto& bucket = search_results_[resp.query_id];
      for (auto& adv : advs) {
        discovery_.publish(adv, DiscoveryType::kAdv);
        bucket.push_back(std::move(adv));
      }
    }
    if (fresh_bucket) {
      arm_result_gc(&CmsService::search_results_, resp.query_id);
    }
    return;
  }
  if (kind == Kind::kFetch) {
    util::Bytes content = r.read_bytes();
    bool fresh_bucket = false;
    {
      const util::MutexLock lock(mu_);
      fresh_bucket = !fetch_results_.contains(resp.query_id);
      fetch_results_[resp.query_id] = std::move(content);
    }
    if (fresh_bucket) {
      arm_result_gc(&CmsService::fetch_results_, resp.query_id);
    }
    cv_.notify_all();
  }
}

}  // namespace p2p::jxta
