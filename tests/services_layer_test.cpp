// Tests for the JXTA service layer additions: active ERP route resolution,
// the CMS (content) service, the monitoring service, and discovery-cache
// persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "obs/metrics.h"
#include "support/test_net.h"

namespace p2p::jxta {
namespace {

using p2p::testing::TestNet;
using p2p::testing::wait_until;

// --- RouteResolverService (active ERP) ---------------------------------------------

TEST(RouteResolverTest, LearnsRouteViaRelayAndDelivers) {
  TestNet net;
  Peer& relay = net.add_peer("relay", /*rendezvous=*/false, /*router=*/true);
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  net.fabric().partition("alice", "bob");  // no direct path
  // alice can talk to the relay; the relay can reach bob.
  alice.endpoint().learn_peer(relay.id(), {net::Address("inproc", "relay")},
                              true);
  relay.endpoint().learn_peer(bob.id(), {net::Address("inproc", "bob")},
                              false);
  // alice has no idea how to reach bob; ERP finds out.
  const auto route = alice.routes().resolve_route(
      bob.id(), std::chrono::milliseconds(3000));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->dest, bob.id());
  ASSERT_FALSE(route->hops.empty());
  EXPECT_EQ(route->hops.front(), relay.id());
  // And the route actually works end to end.
  std::atomic<int> got{0};
  bob.endpoint().register_listener("svc", [&](EndpointMessage) { ++got; });
  EXPECT_TRUE(alice.endpoint().send(bob.id(), "svc", {1}));
  EXPECT_TRUE(wait_until([&] { return got == 1; }));
}

TEST(RouteResolverTest, DestinationAnswersItself) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  const auto route = alice.routes().resolve_route(
      bob.id(), std::chrono::milliseconds(3000));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->dest, bob.id());
  EXPECT_TRUE(route->hops.empty());  // direct: bob answered himself
}

TEST(RouteResolverTest, UnreachableDestinationTimesOut) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  EXPECT_FALSE(alice.routes()
                   .resolve_route(PeerId::generate(),
                                  std::chrono::milliseconds(300))
                   .has_value());
}

TEST(RouteResolverTest, RouteAdvertisementCachedInDiscovery) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  ASSERT_TRUE(alice.routes()
                  .resolve_route(bob.id(), std::chrono::milliseconds(3000))
                  .has_value());
  const auto cached = alice.discovery().get_local(DiscoveryType::kAdv);
  bool found = false;
  for (const auto& adv : cached) {
    if (adv->doc_type() == std::string(RouteAdvertisement::kDocType)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- CmsService -----------------------------------------------------------------------

TEST(CmsTest, ShareSearchFetchRoundTrip) {
  TestNet net;
  Peer& provider = net.add_peer("provider");
  Peer& consumer = net.add_peer("consumer");
  const util::Bytes content = util::to_bytes("the powder snow report 2026");
  const auto adv =
      provider.cms().share("snow-report.txt", "season snow data", content);
  EXPECT_EQ(adv.size, content.size());
  EXPECT_EQ(adv.provider, provider.id());

  const auto hits = consumer.cms().search("snow-report*",
                                          std::chrono::milliseconds(400));
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].id, adv.id);
  EXPECT_EQ(hits[0].name, "snow-report.txt");

  const auto fetched =
      consumer.cms().fetch(hits[0], std::chrono::milliseconds(3000));
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, content);
}

TEST(CmsTest, SearchMatchesDescriptionToo) {
  TestNet net;
  Peer& provider = net.add_peer("provider");
  Peer& consumer = net.add_peer("consumer");
  provider.cms().share("a.bin", "alpine trail maps", {1, 2, 3});
  const auto hits =
      consumer.cms().search("*trail*", std::chrono::milliseconds(400));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].name, "a.bin");
}

TEST(CmsTest, NoMatchesYieldsEmpty) {
  TestNet net;
  Peer& provider = net.add_peer("provider");
  Peer& consumer = net.add_peer("consumer");
  provider.cms().share("a.bin", "x", {1});
  EXPECT_TRUE(consumer.cms()
                  .search("zzz*", std::chrono::milliseconds(300))
                  .empty());
}

TEST(CmsTest, UnshareStopsAnswering) {
  TestNet net;
  Peer& provider = net.add_peer("provider");
  Peer& consumer = net.add_peer("consumer");
  const auto adv = provider.cms().share("gone.bin", "x", {1, 2});
  provider.cms().unshare(adv.id);
  EXPECT_TRUE(provider.cms().shared().empty());
  EXPECT_TRUE(consumer.cms()
                  .search("gone*", std::chrono::milliseconds(300))
                  .empty());
  EXPECT_FALSE(consumer.cms()
                   .fetch(adv, std::chrono::milliseconds(300))
                   .has_value());
}

TEST(CmsTest, IdenticalContentDerivesIdenticalCodatId) {
  TestNet net;
  Peer& a = net.add_peer("a");
  Peer& b = net.add_peer("b");
  const util::Bytes content = util::to_bytes("same bytes");
  const auto adv_a = a.cms().share("one-name", "d", content);
  const auto adv_b = b.cms().share("other-name", "d", content);
  EXPECT_EQ(adv_a.id, adv_b.id);  // codat identity is content-derived
  EXPECT_NE(adv_a.identity(), adv_b.identity());  // but providers differ
}

TEST(CmsTest, OversizedContentRejected) {
  TestNet net;
  Peer& a = net.add_peer("a");
  util::Bytes huge(CmsService::kMaxContentBytes + 1, 0x00);
  EXPECT_THROW((void)a.cms().share("huge", "x", std::move(huge)),
               util::InvalidArgument);
}

TEST(CmsTest, ContentAdvertisementXmlRoundTrip) {
  ContentAdvertisement adv;
  adv.id = CodatId::generate();
  adv.name = "file.txt";
  adv.description = "a file";
  adv.size = 123;
  adv.provider = PeerId::generate();
  const auto back =
      ContentAdvertisement::from_xml(xml::parse(adv.to_xml_text()));
  EXPECT_EQ(back.id, adv.id);
  EXPECT_EQ(back.name, adv.name);
  EXPECT_EQ(back.description, adv.description);
  EXPECT_EQ(back.size, adv.size);
  EXPECT_EQ(back.provider, adv.provider);
  // And the factory knows the kind.
  ContentAdvertisement::register_with_factory();
  const auto parsed =
      AdvertisementFactory::instance().parse_text(adv.to_xml_text());
  EXPECT_EQ(parsed->doc_type(), std::string(ContentAdvertisement::kDocType));
}

// --- PeerInfo survey + MonitoringService -------------------------------------------------

TEST(SurveyTest, CollectsAllGroupMembers) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  net.add_peer("bob");
  net.add_peer("carol");
  const auto infos = alice.info().survey(std::chrono::milliseconds(400));
  // bob + carol answer (alice does not answer her own propagated query).
  EXPECT_GE(infos.size(), 2u);
}

TEST(MonitoringTest, SweepDiscoversPeersAndNotifies) {
  TestNet net;
  Peer& monitor = net.add_peer("monitor");
  Peer& worker = net.add_peer("worker");
  std::atomic<int> appeared{0};
  monitor.monitoring().set_liveness_listener(
      [&](const PeerInfo& info, bool alive) {
        if (alive && info.name == "worker") ++appeared;
      });
  monitor.monitoring().sweep();
  EXPECT_GE(monitor.monitoring().live_peer_count(), 1u);
  EXPECT_EQ(appeared, 1);
  const auto status = monitor.monitoring().status_of(worker.id());
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->info.name, "worker");
}

TEST(MonitoringTest, SilentPeerAgesOut) {
  net::NetworkFabric fabric;
  util::SimClock clock;
  PeerConfig config;
  config.name = "monitor";
  config.heartbeat = std::chrono::hours(1);
  Peer monitor(config, clock);
  monitor.add_transport(
      std::make_shared<net::InProcTransport>(fabric, "monitor"));
  monitor.start();
  PeerConfig worker_config;
  worker_config.name = "worker";
  worker_config.heartbeat = std::chrono::hours(1);
  auto worker = std::make_unique<Peer>(worker_config, clock);
  worker->add_transport(
      std::make_shared<net::InProcTransport>(fabric, "worker"));
  worker->start();

  std::atomic<int> vanished{0};
  monitor.monitoring().set_liveness_listener(
      [&](const PeerInfo& info, bool alive) {
        if (!alive && info.name == "worker") ++vanished;
      });
  monitor.monitoring().sweep();
  // The monitor sees the worker and itself (it answers its own survey).
  ASSERT_EQ(monitor.monitoring().live_peer_count(), 2u);
  // Worker dies; time passes beyond the liveness timeout; next sweep ages
  // it out while the monitor's own entry is refreshed.
  worker->stop();
  worker.reset();
  clock.advance(std::chrono::milliseconds(20'000));
  monitor.monitoring().sweep();
  EXPECT_EQ(monitor.monitoring().live_peer_count(), 1u);
  EXPECT_EQ(vanished, 1);
  monitor.stop();
}

TEST(MonitoringTest, PeriodicSweepsRun) {
  TestNet net;
  Peer& monitor = net.add_peer("monitor");
  net.add_peer("worker");
  monitor.monitoring().start();
  EXPECT_TRUE(
      wait_until([&] { return monitor.monitoring().live_peer_count() >= 1; },
                 std::chrono::milliseconds(8000)));
  monitor.monitoring().stop();
}

TEST(MonitoringTest, SweepReportsRegistrySourcedTraffic) {
  if (!obs::enabled()) GTEST_SKIP() << "asserts registry-sourced counters";
  // After a publish round-trip between alice and bob, a PIP sweep from a
  // third peer must report non-zero message/byte counters for both — the
  // numbers flow from each peer's obs::Registry through PeerInfoService.
  TestNet net;
  Peer& monitor = net.add_peer("monitor");
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");

  bob.endpoint().register_listener("ping", [&](EndpointMessage msg) {
    bob.endpoint().send(msg.src, "pong", {2});
  });
  std::atomic<int> answered{0};
  alice.endpoint().register_listener("pong",
                                     [&](EndpointMessage) { ++answered; });
  // Retried: the first send may predate address discovery.
  ASSERT_TRUE(wait_until([&] {
    return alice.endpoint().send(bob.id(), "ping", {1}) && answered > 0;
  }));

  const auto live_traffic = [&](const Peer& peer) {
    const auto status = monitor.monitoring().status_of(peer.id());
    return status.has_value() && status->info.traffic.msgs_sent > 0 &&
           status->info.traffic.bytes_sent > 0 &&
           status->info.traffic.msgs_received > 0 &&
           status->info.traffic.bytes_received > 0;
  };
  ASSERT_TRUE(wait_until([&] {
    monitor.monitoring().sweep();
    return live_traffic(alice) && live_traffic(bob);
  }));

  // The reported numbers come from the live registry: alice's own counter
  // is at least what the sweep saw a moment ago.
  const auto status = monitor.monitoring().status_of(alice.id());
  ASSERT_TRUE(status.has_value());
  EXPECT_GE(alice.metrics().snapshot().counter("net.msgs_sent"),
            status->info.traffic.msgs_sent);
}

// --- discovery persistence ------------------------------------------------------------

class TempFile {
 public:
  TempFile() : path_(std::filesystem::temp_directory_path() /
                     ("p2p_cache_" + util::Uuid::generate().to_string())) {}
  ~TempFile() { std::filesystem::remove(path_); }
  [[nodiscard]] std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST(DiscoveryPersistenceTest, SaveLoadRoundTrip) {
  TempFile file;
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  // Populate alice's cache with a group advertisement.
  PipeAdvertisement pipe;
  pipe.pid = PipeId::derive("persist-pipe");
  pipe.name = "Persist";
  pipe.type = PipeAdvertisement::Type::kPropagate;
  PeerGroupAdvertisement group;
  group.gid = PeerGroupId::derive("persist-group");
  group.creator = alice.id();
  group.name = "PS_Persist";
  auto wire = WireService::make_service_advertisement(pipe);
  group.services.emplace(wire.name, std::move(wire));
  alice.discovery().publish(group, DiscoveryType::kGroup);

  const std::size_t saved = alice.discovery().save_cache(file.path());
  EXPECT_GE(saved, 2u);  // own peer adv + the group adv

  // A different peer loads the snapshot ("stable storage" survives the
  // peer process).
  EXPECT_EQ(bob.discovery()
                .get_local(DiscoveryType::kGroup, "Name", "PS_Persist")
                .size(),
            0u);
  const std::size_t loaded = bob.discovery().load_cache(file.path());
  EXPECT_EQ(loaded, saved);
  EXPECT_EQ(bob.discovery()
                .get_local(DiscoveryType::kGroup, "Name", "PS_Persist")
                .size(),
            1u);
}

TEST(DiscoveryPersistenceTest, ExpiredEntriesNotSaved) {
  TempFile file;
  net::NetworkFabric fabric;
  util::SimClock clock;
  PeerConfig config;
  config.name = "alice";
  config.heartbeat = std::chrono::hours(1);
  Peer alice(config, clock);
  alice.add_transport(std::make_shared<net::InProcTransport>(fabric, "alice"));
  alice.start();
  PeerGroupAdvertisement group;
  group.gid = PeerGroupId::generate();
  group.creator = alice.id();
  group.name = "PS_Short";
  alice.discovery().publish(group, DiscoveryType::kGroup,
                            /*lifetime_ms=*/500);
  clock.advance(std::chrono::milliseconds(1000));
  const std::size_t saved = alice.discovery().save_cache(file.path());
  // Own peer adv may still be live; the expired group adv must not be.
  Peer bob_like(config, clock);
  bob_like.add_transport(
      std::make_shared<net::InProcTransport>(fabric, "alice2"));
  bob_like.start();
  bob_like.discovery().load_cache(file.path());
  EXPECT_TRUE(bob_like.discovery()
                  .get_local(DiscoveryType::kGroup, "Name", "PS_Short")
                  .empty());
  (void)saved;
  bob_like.stop();
  alice.stop();
}

TEST(DiscoveryPersistenceTest, MissingFileLoadsNothing) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  EXPECT_EQ(alice.discovery().load_cache("/nonexistent/path/cache"), 0u);
}

}  // namespace
}  // namespace p2p::jxta
