// CmsService: content management — share, search and fetch codats.
//
// The paper lists the cms (content management system) among the best-known
// JXTA services (§2), and "searching and file sharing (Morpheus,
// AudioGalaxy)" among the application types P2P developers build (§1).
// This service implements that substrate piece:
//   * share()  — registers a codat ("code and data", §2.1) locally and
//                publishes its ContentAdvertisement,
//   * search() — group-wide keyword search over advertised content,
//   * fetch()  — pulls the bytes from whoever shares the codat (any
//                holder answers; content is integrity-checked against the
//                id, which is derived from the bytes).
#pragma once

#include "jxta/discovery.h"
#include "jxta/resolver.h"
#include "util/thread_annotations.h"
#include "util/timer_queue.h"

namespace p2p::jxta {

// Describes a shared codat. Travels through discovery like any other
// advertisement (registered with the AdvertisementFactory).
class ContentAdvertisement final : public Advertisement {
 public:
  static constexpr std::string_view kDocType = "jxta:ContentAdvertisement";

  CodatId id;
  std::string name;
  std::string description;
  std::uint64_t size = 0;
  PeerId provider;

  [[nodiscard]] std::string doc_type() const override {
    return std::string(kDocType);
  }
  [[nodiscard]] std::string identity() const override {
    return id.to_string() + "@" + provider.to_string();
  }
  [[nodiscard]] xml::Element to_xml() const override;
  [[nodiscard]] std::unique_ptr<Advertisement> clone() const override {
    return std::make_unique<ContentAdvertisement>(*this);
  }
  [[nodiscard]] std::string field(std::string_view key) const override;

  static ContentAdvertisement from_xml(const xml::Element& e);
  // Hooks the parser into the AdvertisementFactory (idempotent).
  static void register_with_factory();
};

class CmsService final : public ResolverHandler,
                         public std::enable_shared_from_this<CmsService> {
 public:
  static constexpr std::string_view kHandlerName = "jxta.cms";
  // Single-message fetch bound; keeps the demo substrate simple and the
  // memory bounded (a production CMS would chunk).
  static constexpr std::size_t kMaxContentBytes = 8 * 1024 * 1024;

  // `timers` (the owning peer's queue) carries the search collection
  // windows.
  CmsService(ResolverService& resolver, EndpointService& endpoint,
             DiscoveryService& discovery, util::TimerQueue& timers);

  void start() EXCLUDES(mu_);
  void stop() EXCLUDES(mu_);

  // Shares content under a human name + free-text description. The codat
  // id is derived from the bytes, so identical content shared anywhere
  // gets the same id. Throws InvalidArgument above kMaxContentBytes.
  ContentAdvertisement share(const std::string& name,
                             const std::string& description,
                             util::Bytes content) EXCLUDES(mu_);
  // Stops sharing a codat (search/fetch no longer answered for it).
  void unshare(const CodatId& id) EXCLUDES(mu_);
  [[nodiscard]] std::vector<ContentAdvertisement> shared() const
      EXCLUDES(mu_);

  // Group-wide keyword search: matches name/description/keyword globs.
  // The collect window rides the shared util::TimerQueue; `done` fires on
  // the timer thread with every answer that landed inside it. Safe to call
  // from anywhere, including the peer executor.
  using SearchCallback =
      std::function<void(std::vector<ContentAdvertisement>)>;
  void search_async(const std::string& keyword_glob, util::Duration window,
                    SearchCallback done);

  // Blocking wrapper around search_async. Not for the peer executor.
  std::vector<ContentAdvertisement> search(const std::string& keyword_glob,
                                           util::Duration window)
      EXCLUDES(mu_);

  // Fetches the codat's bytes from its provider (or any peer sharing the
  // same id). Verifies the content against the id. nullopt on timeout.
  std::optional<util::Bytes> fetch(const ContentAdvertisement& adv,
                                   util::Duration timeout) EXCLUDES(mu_);

  // --- ResolverHandler -----------------------------------------------------
  std::optional<util::Bytes> process_query(const ResolverQuery& q) override;
  void process_response(const ResolverResponse& r) override;

 private:
  enum class Kind : std::uint8_t { kSearch = 1, kFetch = 2 };
  struct Stored {
    ContentAdvertisement adv;
    util::Bytes content;
  };
  // TTL on uncollected result buckets (late answers after the window or a
  // fetch timeout); a shared-TimerQueue GC timer reclaims them.
  static constexpr util::Duration kResultTtl = std::chrono::seconds(30);

  // Arms the GC deadline for one entry of `map` (search_results_ or
  // fetch_results_).
  template <typename Map>
  void arm_result_gc(Map CmsService::* map, util::Uuid query_id);

  ResolverService& resolver_;
  EndpointService& endpoint_;
  DiscoveryService& discovery_;
  util::TimerQueue& timers_;

  mutable util::Mutex mu_{"cms"};
  util::CondVar cv_;
  bool started_ GUARDED_BY(mu_) = false;
  std::map<CodatId, Stored> store_ GUARDED_BY(mu_);
  // In-flight collectors keyed by query id.
  std::map<util::Uuid, std::vector<ContentAdvertisement>> search_results_
      GUARDED_BY(mu_);
  std::map<util::Uuid, util::Bytes> fetch_results_ GUARDED_BY(mu_);
};

}  // namespace p2p::jxta
