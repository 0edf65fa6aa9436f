// Kademlia discovery backend: routing-table unit tests, iterative lookup
// convergence on a simulated fabric, churn during lookups, and the
// mixed-version interop matrix (DHT peers among rendezvous-only peers).
#include "jxta/kad_routing_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "jxta/kad_service.h"
#include "jxta/peer.h"
#include "support/test_net.h"

namespace p2p {
namespace {

using jxta::DiscoveryType;
using jxta::KadRoutingTable;
using jxta::PeerId;
using util::Uuid;

util::TimePoint at_ms(std::int64_t ms) {
  return util::TimePoint{std::chrono::milliseconds{ms}};
}

PeerId pid(std::uint64_t hi, std::uint64_t lo) {
  return PeerId{Uuid{hi, lo}};
}

// Deterministic pseudo-random ids (no global RNG in tests).
PeerId derived_pid(int i) {
  return PeerId{Uuid::derive("kad-test-peer-" + std::to_string(i))};
}

// --- routing table ----------------------------------------------------------

TEST(KadRoutingTableTest, BucketIndexIsXorBitLength) {
  const Uuid self{0, 0};
  // Distance 1 -> bucket 0; distance 2..3 -> bucket 1; high bit -> 127.
  EXPECT_EQ(KadRoutingTable::bucket_index(self, Uuid{0, 1}), 0);
  EXPECT_EQ(KadRoutingTable::bucket_index(self, Uuid{0, 2}), 1);
  EXPECT_EQ(KadRoutingTable::bucket_index(self, Uuid{0, 3}), 1);
  EXPECT_EQ(KadRoutingTable::bucket_index(self, Uuid{0, 1ull << 63}), 63);
  EXPECT_EQ(KadRoutingTable::bucket_index(self, Uuid{1, 0}), 64);
  EXPECT_EQ(KadRoutingTable::bucket_index(self, Uuid{1ull << 63, 0}), 127);
  // Identical ids have no bucket.
  EXPECT_EQ(KadRoutingTable::bucket_index(self, self), -1);
  // XOR symmetry.
  EXPECT_EQ(KadRoutingTable::bucket_index(Uuid{5, 9}, Uuid{5, 12}),
            KadRoutingTable::bucket_index(Uuid{5, 12}, Uuid{5, 9}));
}

TEST(KadRoutingTableTest, CloserIsXorMetric) {
  const Uuid target{0, 8};
  EXPECT_TRUE(KadRoutingTable::closer(target, Uuid{0, 9}, Uuid{0, 0}));
  EXPECT_FALSE(KadRoutingTable::closer(target, Uuid{0, 0}, Uuid{0, 9}));
  // hi dominates lo.
  EXPECT_TRUE(KadRoutingTable::closer(target, Uuid{0, ~0ull}, Uuid{1, 8}));
  // Equal distance: not closer (strict weak ordering).
  EXPECT_FALSE(KadRoutingTable::closer(target, Uuid{0, 9}, Uuid{0, 9}));
}

TEST(KadRoutingTableTest, ObserveInsertRefreshAndFullBucket) {
  // Relative to self (0,0): ids 2..3 land in bucket 1, ids 4..7 in
  // bucket 2. With k=2, bucket 2 fills at two contacts.
  KadRoutingTable table(pid(0, 0), /*k=*/2);
  EXPECT_EQ(table.observe(pid(0, 0), at_ms(1), nullptr),
            KadRoutingTable::ObserveResult::kSelf);
  EXPECT_EQ(table.observe(pid(0, 2), at_ms(1), nullptr),
            KadRoutingTable::ObserveResult::kInserted);
  EXPECT_EQ(table.observe(pid(0, 3), at_ms(2), nullptr),
            KadRoutingTable::ObserveResult::kInserted);
  EXPECT_EQ(table.size(), 2u);

  // Re-observing a known contact refreshes, never duplicates.
  EXPECT_EQ(table.observe(pid(0, 2), at_ms(3), nullptr),
            KadRoutingTable::ObserveResult::kRefreshed);
  EXPECT_EQ(table.size(), 2u);

  // Fill bucket 2, then a third bucket-2 id reports the bucket's
  // least-recently-seen contact as the eviction candidate — and is NOT
  // inserted (never drop a live old contact for a newcomer).
  EXPECT_EQ(table.observe(pid(0, 6), at_ms(4), nullptr),
            KadRoutingTable::ObserveResult::kInserted);
  EXPECT_EQ(table.observe(pid(0, 7), at_ms(5), nullptr),
            KadRoutingTable::ObserveResult::kInserted);
  PeerId evict_candidate;
  EXPECT_EQ(table.observe(pid(0, 4), at_ms(6), &evict_candidate),
            KadRoutingTable::ObserveResult::kFull);
  EXPECT_EQ(evict_candidate, pid(0, 6));  // 6 seen before 7
  EXPECT_FALSE(table.contains(pid(0, 4)));

  // Refreshing rotates the LRU: now 7 is the candidate.
  EXPECT_EQ(table.observe(pid(0, 6), at_ms(7), nullptr),
            KadRoutingTable::ObserveResult::kRefreshed);
  EXPECT_EQ(table.observe(pid(0, 4), at_ms(8), &evict_candidate),
            KadRoutingTable::ObserveResult::kFull);
  EXPECT_EQ(evict_candidate, pid(0, 7));

  // The classic eviction rule: replace only once the LRU proved dead.
  table.replace(pid(0, 7), pid(0, 4), at_ms(9));
  EXPECT_FALSE(table.contains(pid(0, 7)));
  EXPECT_TRUE(table.contains(pid(0, 4)));
  EXPECT_EQ(table.size(), 4u);
}

TEST(KadRoutingTableTest, RemoveAndStale) {
  KadRoutingTable table(pid(0, 0), 4);
  (void)table.observe(pid(0, 1), at_ms(10), nullptr);
  (void)table.observe(pid(0, 2), at_ms(20), nullptr);
  (void)table.observe(pid(0, 9), at_ms(30), nullptr);

  const auto stale = table.stale(at_ms(25));
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_TRUE(std::find(stale.begin(), stale.end(), pid(0, 1)) != stale.end());
  EXPECT_TRUE(std::find(stale.begin(), stale.end(), pid(0, 2)) != stale.end());

  table.remove(pid(0, 2));
  EXPECT_FALSE(table.contains(pid(0, 2)));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.stale(at_ms(25)).size(), 1u);
}

TEST(KadRoutingTableTest, ClosestMatchesBruteForce) {
  const PeerId self = derived_pid(0);
  KadRoutingTable table(self, 8);
  std::vector<PeerId> all;
  for (int i = 1; i <= 200; ++i) {
    const PeerId id = derived_pid(i);
    if (table.observe(id, at_ms(i), nullptr) ==
        KadRoutingTable::ObserveResult::kInserted) {
      all.push_back(id);
    }
  }
  // Most of the 200 land in the 2-3 shallowest buckets and are capped at
  // k=8 each; the deep buckets near self stay sparse. Enough survive to
  // make the closest() comparison meaningful.
  ASSERT_GE(all.size(), 2 * table.k());

  const Uuid target = Uuid::derive("kad-test-target");
  const auto got = table.closest(target, 8);
  ASSERT_EQ(got.size(), 8u);

  std::sort(all.begin(), all.end(),
            [&](const PeerId& a, const PeerId& b) {
              return KadRoutingTable::closer(target, a.uuid(), b.uuid());
            });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], all[i]) << "rank " << i;
  }
}

// --- advertisement keys -----------------------------------------------------

TEST(KadKeyTest, IndexedAttributesDeriveStableKeys) {
  using jxta::KadService;
  const auto name_key = KadService::advertisement_key(1, "Name", "ps.quotes");
  ASSERT_TRUE(name_key.has_value());
  EXPECT_EQ(name_key, KadService::advertisement_key(1, "Name", "ps.quotes"));

  // Id-like attributes share one canonical class: a publisher indexing
  // field("ID") is found by queries spelled "ID", "Id" or "PID" alike.
  const std::string urn = "urn:jxta:uuid-0011";
  EXPECT_EQ(KadService::advertisement_key(0, "ID", urn),
            KadService::advertisement_key(0, "PID", urn));
  EXPECT_EQ(KadService::advertisement_key(2, "ID", urn),
            KadService::advertisement_key(2, "Id", urn));

  // Different type / attr / value never collide onto the same key.
  EXPECT_NE(KadService::advertisement_key(1, "Name", "ps.quotes"),
            KadService::advertisement_key(2, "Name", "ps.quotes"));
  EXPECT_NE(KadService::advertisement_key(1, "Name", "x"),
            KadService::advertisement_key(1, "ID", "x"));
}

TEST(KadKeyTest, UnindexedQueriesHaveNoKey) {
  using jxta::KadService;
  // Globs match many values — they stay on the flood.
  EXPECT_FALSE(KadService::advertisement_key(1, "Name", "ps.*").has_value());
  EXPECT_FALSE(KadService::advertisement_key(1, "Name", "a?b").has_value());
  EXPECT_FALSE(KadService::advertisement_key(1, "Name", "[ab]").has_value());
  // Unindexed attributes and empty values too.
  EXPECT_FALSE(KadService::advertisement_key(1, "Keywords", "x").has_value());
  EXPECT_FALSE(KadService::advertisement_key(1, "Name", "").has_value());
  EXPECT_FALSE(KadService::advertisement_key(1, "", "x").has_value());
}

// --- integration on the simulated fabric ------------------------------------

jxta::PeerConfig kad_config(const std::string& name, bool rendezvous,
                            const std::vector<std::string>& seeds) {
  jxta::PeerConfig config;
  config.name = name;
  config.rendezvous = rendezvous;
  config.heartbeat = std::chrono::milliseconds(100);
  config.rdv.lease_ttl = std::chrono::milliseconds(2000);
  for (const auto& seed : seeds) {
    config.seed_rendezvous.emplace_back("inproc", seed);
  }
  config.kad.enabled = true;
  config.kad.rpc_timeout = std::chrono::milliseconds(300);
  return config;
}

jxta::PeerGroupAdvertisement group_adv(const std::string& name,
                                       const jxta::Peer& creator) {
  jxta::PeerGroupAdvertisement adv;
  adv.gid = jxta::PeerGroupId::derive("kad-test-group-" + name);
  adv.creator = creator.id();
  adv.name = name;
  adv.app = "test";
  return adv;
}

TEST(KadIntegrationTest, LookupResolvesAdvertisementThroughDht) {
  testing::TestNet net;
  jxta::Peer& rdv = net.add_peer(kad_config("rdv", true, {}));
  jxta::Peer& pub = net.add_peer(kad_config("pub", false, {"rdv"}));
  jxta::Peer& sub = net.add_peer(kad_config("sub", false, {"rdv"}));

  ASSERT_TRUE(testing::wait_until(
      [&] { return pub.kad()->ready() && sub.kad()->ready(); }));

  // Sync on a STORE landing at another DHT peer (registry-free, so it holds
  // with metrics compiled out too).
  const auto stored = [&] {
    return rdv.kad()->store_size() + sub.kad()->store_size();
  };
  const std::size_t stored_before = stored();
  pub.discovery().remote_publish(group_adv("ps.kad-target", pub),
                                 DiscoveryType::kGroup);
  ASSERT_TRUE(
      testing::wait_until([&] { return stored() > stored_before; }));
  if (obs::enabled()) {
    EXPECT_GT(pub.metrics().snapshot().counter("jxta.dht.stores"), 0u);
  }

  sub.discovery().get_remote(DiscoveryType::kGroup, "Name", "ps.kad-target");
  ASSERT_TRUE(testing::wait_until([&] {
    return !sub.discovery()
                .get_local(DiscoveryType::kGroup, "Name", "ps.kad-target")
                .empty();
  }));

  // The query went through the DHT plane, not the flood.
  if (obs::enabled()) {
    const auto snap = sub.metrics().snapshot();
    EXPECT_GT(snap.counter("jxta.dht.lookups"), 0u);
    EXPECT_GT(snap.counter("jxta.dht.rpcs_sent"), 0u);
  }
}

TEST(KadIntegrationTest, LookupSurvivesChurn) {
  testing::TestNet net;
  net.add_peer(kad_config("rdv", true, {}));
  jxta::Peer& pub = net.add_peer(kad_config("pub", false, {"rdv"}));
  jxta::Peer& sub = net.add_peer(kad_config("sub", false, {"rdv"}));
  jxta::Peer& churn = net.add_peer(kad_config("churn", false, {"rdv"}));

  ASSERT_TRUE(testing::wait_until([&] {
    return pub.kad()->ready() && sub.kad()->ready() &&
           churn.kad()->ready() && sub.kad()->routing_size() >= 2;
  }));

  // Kill a contact the searcher knows, then publish and search: RPCs to
  // the dead peer time out and the lookup routes around it.
  churn.stop();
  pub.discovery().remote_publish(group_adv("ps.churny", pub),
                                 DiscoveryType::kGroup);
  sub.discovery().get_remote(DiscoveryType::kGroup, "Name", "ps.churny");
  ASSERT_TRUE(testing::wait_until(
      [&] {
        return !sub.discovery()
                    .get_local(DiscoveryType::kGroup, "Name", "ps.churny")
                    .empty();
      },
      std::chrono::milliseconds(15000)));
}

TEST(KadIntegrationTest, DhtPeerFallsBackToFloodForLegacyPublisher) {
  testing::TestNet net;
  // Rendezvous and publisher run WITHOUT the DHT (old builds); only the
  // searcher is new. Its lookup must miss, then resolve via the flood
  // under the same query id.
  net.add_peer("rdv", /*rendezvous=*/true);
  jxta::Peer& legacy = net.add_peer("legacy", false, false, {"rdv"});
  jxta::Peer& finder = net.add_peer(kad_config("finder", false, {"rdv"}));
  jxta::Peer& buddy = net.add_peer(kad_config("buddy", false, {"rdv"}));

  // The finder's DHT becomes ready via its DHT-capable buddy (the legacy
  // peers never join the routing table).
  ASSERT_TRUE(testing::wait_until(
      [&] { return finder.kad()->ready() && buddy.kad()->ready(); }));
  EXPECT_FALSE(finder.kad() == nullptr);
  EXPECT_EQ(legacy.kad(), nullptr);

  legacy.discovery().remote_publish(group_adv("ps.legacy-only", legacy),
                                    DiscoveryType::kGroup);

  // Record the query id of every group answer; the fallback answer must
  // arrive under the id get_remote returned (one logical query).
  std::mutex seen_mu;
  std::vector<util::Uuid> seen_ids;
  const auto listener = finder.discovery().add_listener(
      [&](const jxta::DiscoveryEvent& event) {
        if (event.type != DiscoveryType::kGroup) return;
        const std::lock_guard<std::mutex> lock(seen_mu);
        seen_ids.push_back(event.query_id);
      });
  const util::Uuid query_id = finder.discovery().get_remote(
      DiscoveryType::kGroup, "Name", "ps.legacy-only");
  ASSERT_TRUE(testing::wait_until(
      [&] {
        const std::lock_guard<std::mutex> lock(seen_mu);
        return std::find(seen_ids.begin(), seen_ids.end(), query_id) !=
               seen_ids.end();
      },
      std::chrono::milliseconds(15000)));
  finder.discovery().remove_listener(listener);

  // Deterministic fallback accounting: the DHT missed exactly where it
  // had to, and the flood answered under the original query id.
  if (obs::enabled()) {
    EXPECT_GE(finder.metrics().snapshot().counter(
                  "jxta.discovery.flood_fallbacks"),
              1u);
  }
}

TEST(KadIntegrationTest, LegacySearcherStillFindsDhtPublisher) {
  testing::TestNet net;
  net.add_peer("rdv", /*rendezvous=*/true);
  jxta::Peer& modern = net.add_peer(kad_config("modern", false, {"rdv"}));
  jxta::Peer& buddy = net.add_peer(kad_config("buddy", false, {"rdv"}));
  jxta::Peer& legacy = net.add_peer("legacy", false, false, {"rdv"});

  ASSERT_TRUE(testing::wait_until(
      [&] { return modern.kad()->ready() && buddy.kad()->ready(); }));

  // The modern peer publishes through the DHT (no flood push for groups),
  // but its local cache still answers flooded queries — an old searcher
  // resolves exactly as before.
  modern.discovery().remote_publish(group_adv("ps.modern", modern),
                                    DiscoveryType::kGroup);
  legacy.discovery().get_remote(DiscoveryType::kGroup, "Name", "ps.modern");
  ASSERT_TRUE(testing::wait_until([&] {
    return !legacy.discovery()
                .get_local(DiscoveryType::kGroup, "Name", "ps.modern")
                .empty();
  }));
}

TEST(KadIntegrationTest, DirectedAndGlobQueriesStayOnTheFlood) {
  testing::TestNet net;
  net.add_peer(kad_config("rdv", true, {}));
  jxta::Peer& pub = net.add_peer(kad_config("pub", false, {"rdv"}));
  jxta::Peer& sub = net.add_peer(kad_config("sub", false, {"rdv"}));
  ASSERT_TRUE(testing::wait_until(
      [&] { return pub.kad()->ready() && sub.kad()->ready(); }));

  pub.discovery().publish(group_adv("ps.globbed", pub), DiscoveryType::kGroup);
  const auto before = sub.metrics().snapshot().counter("jxta.dht.lookups");
  sub.discovery().get_remote(DiscoveryType::kGroup, "Name", "ps.glob*");
  ASSERT_TRUE(testing::wait_until([&] {
    return !sub.discovery()
                .get_local(DiscoveryType::kGroup, "Name", "ps.globbed")
                .empty();
  }));
  // A glob has no DHT key: no lookup was started for it.
  EXPECT_EQ(sub.metrics().snapshot().counter("jxta.dht.lookups"), before);
}

}  // namespace
}  // namespace p2p
