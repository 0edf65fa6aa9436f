// Tests for the six JXTA protocols over live peers on the simulated fabric:
// endpoint/ERP, rendezvous, PRP, PDP, PIP, PBP (+ wire, membership, groups).
#include <gtest/gtest.h>

#include <atomic>

#include "jxta/peer.h"
#include "obs/metrics.h"
#include "support/test_net.h"
#include "support/timing.h"

namespace p2p::jxta {
namespace {

using testing::TestNet;
using testing::wait_until;

// --- EndpointService / ERP ------------------------------------------------------

TEST(EndpointTest, LocalLoopbackDelivery) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  std::atomic<int> got{0};
  alice.endpoint().register_listener("test.svc", [&](EndpointMessage msg) {
    EXPECT_EQ(msg.src, alice.id());
    ++got;
  });
  EXPECT_TRUE(alice.endpoint().send(alice.id(), "test.svc", {1, 2}));
  EXPECT_TRUE(wait_until([&] { return got == 1; }));
}

TEST(EndpointTest, RemoteDeliveryAfterLearningAddress) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  std::atomic<int> got{0};
  bob.endpoint().register_listener("test.svc",
                                   [&](EndpointMessage) { ++got; });
  alice.endpoint().learn_peer(bob.id(), {net::Address("inproc", "bob")},
                              false);
  EXPECT_TRUE(alice.endpoint().send(bob.id(), "test.svc", {1}));
  EXPECT_TRUE(wait_until([&] { return got == 1; }));
}

TEST(EndpointTest, SendFailsWithNoRouteAtAll) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  EXPECT_FALSE(alice.endpoint().send(PeerId::generate(), "svc", {1}));
  if (obs::enabled()) {
    EXPECT_EQ(alice.endpoint().traffic().send_failures, 1u);
  }
}

TEST(EndpointTest, ObservedEnvelopeAddressEnablesReply) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  std::atomic<int> bob_got{0};
  std::atomic<int> alice_got{0};
  bob.endpoint().register_listener("ping", [&](EndpointMessage msg) {
    ++bob_got;
    // Reply without ever having been told alice's address explicitly:
    // the endpoint learned it from the incoming envelope.
    EXPECT_TRUE(bob.endpoint().send(msg.src, "pong", {}));
  });
  alice.endpoint().register_listener("pong",
                                     [&](EndpointMessage) { ++alice_got; });
  alice.endpoint().learn_peer(bob.id(), {net::Address("inproc", "bob")},
                              false);
  alice.endpoint().send(bob.id(), "ping", {});
  EXPECT_TRUE(wait_until([&] { return alice_got == 1; }));
}

TEST(EndpointTest, RelayRoutesAroundMissingDirectPath) {
  TestNet net;
  Peer& relay = net.add_peer("relay", /*rendezvous=*/false, /*router=*/true);
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  // No direct path between alice and bob (so start-up broadcasts cannot
  // teach alice a usable direct address); the relay is the only route.
  net.fabric().partition("alice", "bob");
  // alice knows the relay, and knows bob is reachable via the relay.
  alice.endpoint().learn_peer(relay.id(), {net::Address("inproc", "relay")},
                              /*relay_capable=*/true);
  alice.endpoint().learn_route(bob.id(), relay.id());
  // The relay knows bob directly.
  relay.endpoint().learn_peer(bob.id(), {net::Address("inproc", "bob")},
                              false);
  std::atomic<int> got{0};
  bob.endpoint().register_listener("svc", [&](EndpointMessage msg) {
    EXPECT_EQ(msg.src, alice.id());  // original source survives relaying
    ++got;
  });
  EXPECT_TRUE(alice.endpoint().send(bob.id(), "svc", {42}));
  EXPECT_TRUE(wait_until([&] { return got == 1; }));
  if (obs::enabled()) {
    EXPECT_TRUE(wait_until(
        [&] { return relay.endpoint().traffic().msgs_relayed >= 1; }));
  }
}

TEST(EndpointTest, NonRouterRefusesRelayDuty) {
  TestNet net;
  Peer& bystander = net.add_peer("bystander");  // router=false
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  net.fabric().partition("alice", "bob");  // force the relay attempt
  alice.endpoint().learn_peer(bystander.id(),
                              {net::Address("inproc", "bystander")},
                              /*relay_capable=*/true);  // alice THINKS so
  alice.endpoint().learn_route(bob.id(), bystander.id());
  bystander.endpoint().learn_peer(bob.id(), {net::Address("inproc", "bob")},
                                  false);
  std::atomic<int> got{0};
  bob.endpoint().register_listener("svc", [&](EndpointMessage) { ++got; });
  alice.endpoint().send(bob.id(), "svc", {1});
  p2p::testing::settle(std::chrono::milliseconds(200));
  EXPECT_EQ(got, 0);  // bystander dropped it
}

TEST(EndpointTest, TrafficCountersAdvance) {
  if (!obs::enabled()) GTEST_SKIP() << "asserts counters advance";
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  alice.endpoint().learn_peer(bob.id(), {net::Address("inproc", "bob")},
                              false);
  std::atomic<int> got{0};
  bob.endpoint().register_listener("svc", [&](EndpointMessage) { ++got; });
  const auto before_tx = alice.endpoint().traffic();
  const auto before_rx = bob.endpoint().traffic();
  alice.endpoint().send(bob.id(), "svc", {1, 2, 3, 4});
  ASSERT_TRUE(wait_until([&] { return got == 1; }));
  EXPECT_GT(alice.endpoint().traffic().msgs_sent, before_tx.msgs_sent);
  EXPECT_GT(bob.endpoint().traffic().msgs_received, before_rx.msgs_received);
  EXPECT_GE(bob.endpoint().traffic().bytes_received,
            before_rx.bytes_received + 4);
}

TEST(EndpointTest, AddressBookNewestFirstAndForgettable) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  const PeerId target = PeerId::generate();
  alice.endpoint().learn_peer(target, {net::Address("inproc", "old")}, false);
  alice.endpoint().learn_peer(target, {net::Address("inproc", "new")}, false);
  const auto addrs = alice.endpoint().addresses_of(target);
  ASSERT_EQ(addrs.size(), 2u);
  EXPECT_EQ(addrs[0].authority(), "new");
  alice.endpoint().forget_peer(target);
  EXPECT_TRUE(alice.endpoint().addresses_of(target).empty());
}

// --- RendezvousService -------------------------------------------------------------

TEST(RendezvousTest, ClientObtainsLease) {
  TestNet net;
  net.add_peer("rdv", /*rendezvous=*/true);
  Peer& client = net.add_peer("client", false, false, {"rdv"});
  EXPECT_TRUE(wait_until([&] { return client.rendezvous().connected(); }));
  EXPECT_EQ(client.rendezvous().lessors().size(), 1u);
}

TEST(RendezvousTest, RdvTracksClients) {
  TestNet net;
  Peer& rdv = net.add_peer("rdv", true);
  net.add_peer("c1", false, false, {"rdv"});
  net.add_peer("c2", false, false, {"rdv"});
  EXPECT_TRUE(
      wait_until([&] { return rdv.rendezvous().clients().size() == 2; }));
}

TEST(RendezvousTest, NonRendezvousDoesNotGrantLeases) {
  TestNet net;
  net.add_peer("plain", /*rendezvous=*/false);
  Peer& client = net.add_peer("client", false, false, {"plain"});
  p2p::testing::settle(std::chrono::milliseconds(400));
  EXPECT_FALSE(client.rendezvous().connected());
}

TEST(RendezvousTest, PropagateReachesClientsOfRdv) {
  TestNet net;
  // Clients are firewalled: the ONLY path between them is via the rdv
  // (multicast does not reach firewalled nodes).
  Peer& rdv = net.add_peer("rdv", true);
  Peer& c1 = net.add_peer("c1", false, false, {"rdv"});
  Peer& c2 = net.add_peer("c2", false, false, {"rdv"});
  net.fabric().set_firewalled("c1", true);
  net.fabric().set_firewalled("c2", true);
  // A firewalled client is reachable only after its first post-firewall
  // outbound (the lease renewal punches the hole); force one now.
  c1.tick();
  c2.tick();
  ASSERT_TRUE(wait_until([&] {
    return rdv.rendezvous().clients().size() == 2 &&
           c1.rendezvous().connected() && c2.rendezvous().connected();
  }));
  std::atomic<int> got{0};
  c2.endpoint().register_listener("custom.svc",
                                  [&](EndpointMessage) { ++got; });
  c1.rendezvous().propagate("custom.svc", {7});
  EXPECT_TRUE(wait_until([&] { return got >= 1; }));
}

TEST(RendezvousTest, PropagationLoopSuppression) {
  TestNet net;
  Peer& rdv = net.add_peer("rdv", true);
  Peer& c1 = net.add_peer("c1", false, false, {"rdv"});
  Peer& c2 = net.add_peer("c2", false, false, {"rdv"});
  ASSERT_TRUE(wait_until([&] { return rdv.rendezvous().clients().size() == 2; }));
  std::atomic<int> got{0};
  c2.endpoint().register_listener("svc", [&](EndpointMessage) { ++got; });
  c1.rendezvous().propagate("svc", {1});
  ASSERT_TRUE(wait_until([&] { return got >= 1; }));
  // The message travels both multicast and via the rdv; c2 must deliver it
  // exactly once thanks to the propagation-id seen-set.
  p2p::testing::settle(std::chrono::milliseconds(300));
  EXPECT_EQ(got, 1);
}

TEST(RendezvousTest, LeaseExpiresWithoutRenewal) {
  // Manual-clock variant: build services directly so we control time.
  net::NetworkFabric fabric;
  util::SimClock clock;
  jxta::PeerConfig config;
  config.name = "rdv";
  config.rendezvous = true;
  config.heartbeat = std::chrono::hours(1);  // no automatic ticks
  config.rdv.lease_ttl = std::chrono::milliseconds(500);
  Peer rdv(config, clock);
  rdv.add_transport(std::make_shared<net::InProcTransport>(fabric, "rdv"));
  rdv.start();

  jxta::PeerConfig client_config;
  client_config.name = "client";
  client_config.heartbeat = std::chrono::hours(1);
  client_config.seed_rendezvous = {net::Address("inproc", "client-seed")};
  Peer client(client_config, clock);
  client.add_transport(
      std::make_shared<net::InProcTransport>(fabric, "client"));
  client.start();
  // Point the seed at the rdv's real transport name.
  client.rendezvous().add_seed(net::Address("inproc", "rdv"));
  client.tick();
  ASSERT_TRUE(wait_until([&] { return client.rendezvous().connected(); }));
  clock.advance(std::chrono::milliseconds(1000));
  EXPECT_FALSE(client.rendezvous().connected());
  EXPECT_TRUE(rdv.rendezvous().clients().empty());
  client.stop();
  rdv.stop();
}

// --- ResolverService (PRP) ------------------------------------------------------------

class EchoHandler final : public ResolverHandler {
 public:
  std::optional<util::Bytes> process_query(const ResolverQuery& q) override {
    ++queries;
    if (silent) return std::nullopt;
    util::Bytes reply = q.payload;
    reply.push_back(0xEE);
    return reply;
  }
  void process_response(const ResolverResponse& r) override {
    last_payload = r.payload;
    last_responder = r.responder;
    // Bumped last: waiters poll `responses`, then read the fields above —
    // the atomic publish is what orders those reads after our writes.
    ++responses;
  }
  std::atomic<int> queries{0};
  std::atomic<int> responses{0};
  bool silent = false;
  util::Bytes last_payload;
  PeerId last_responder;
};

TEST(ResolverTest, DirectedQueryGetsResponse) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  auto alice_handler = std::make_shared<EchoHandler>();
  auto bob_handler = std::make_shared<EchoHandler>();
  alice.resolver().register_handler("echo", alice_handler);
  bob.resolver().register_handler("echo", bob_handler);
  alice.endpoint().learn_peer(bob.id(), {net::Address("inproc", "bob")},
                              false);
  alice.resolver().send_query("echo", {1, 2}, bob.id());
  EXPECT_TRUE(wait_until([&] { return alice_handler->responses == 1; }));
  EXPECT_EQ(alice_handler->last_payload, (util::Bytes{1, 2, 0xEE}));
  EXPECT_EQ(alice_handler->last_responder, bob.id());
  EXPECT_EQ(bob_handler->queries, 1);
}

TEST(ResolverTest, PropagatedQueryReachesAllPeers) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  Peer& carol = net.add_peer("carol");
  auto alice_handler = std::make_shared<EchoHandler>();
  auto bob_handler = std::make_shared<EchoHandler>();
  auto carol_handler = std::make_shared<EchoHandler>();
  alice.resolver().register_handler("echo", alice_handler);
  bob.resolver().register_handler("echo", bob_handler);
  carol.resolver().register_handler("echo", carol_handler);
  alice.resolver().send_query("echo", {5});
  // Both remote peers answer; alice collects 2 remote + 1 self response.
  EXPECT_TRUE(wait_until([&] { return alice_handler->responses == 3; }));
  EXPECT_EQ(bob_handler->queries, 1);
  EXPECT_EQ(carol_handler->queries, 1);
}

TEST(ResolverTest, SilentHandlerYieldsNoResponse) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  auto alice_handler = std::make_shared<EchoHandler>();
  auto bob_handler = std::make_shared<EchoHandler>();
  bob_handler->silent = true;
  alice.resolver().register_handler("echo", alice_handler);
  bob.resolver().register_handler("echo", bob_handler);
  alice.endpoint().learn_peer(bob.id(), {net::Address("inproc", "bob")},
                              false);
  alice.resolver().send_query("echo", {1}, bob.id());
  EXPECT_TRUE(wait_until([&] { return bob_handler->queries == 1; }));
  p2p::testing::settle(std::chrono::milliseconds(100));
  EXPECT_EQ(alice_handler->responses, 0);
}

TEST(ResolverTest, ExpiredHandlerIsSkippedSafely) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  {
    auto ephemeral = std::make_shared<EchoHandler>();
    bob.resolver().register_handler("gone", ephemeral);
  }  // handler destroyed; weak_ptr dangles
  alice.endpoint().learn_peer(bob.id(), {net::Address("inproc", "bob")},
                              false);
  alice.resolver().send_query("gone", {1}, bob.id());
  p2p::testing::settle(std::chrono::milliseconds(100));
  // Nothing crashes; no response arrives.
  SUCCEED();
}

TEST(ResolverTest, UnregisterStopsProcessing) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  auto handler = std::make_shared<EchoHandler>();
  bob.resolver().register_handler("echo", handler);
  bob.resolver().unregister_handler("echo");
  alice.endpoint().learn_peer(bob.id(), {net::Address("inproc", "bob")},
                              false);
  alice.resolver().send_query("echo", {1}, bob.id());
  p2p::testing::settle(std::chrono::milliseconds(150));
  EXPECT_EQ(handler->queries, 0);
}

}  // namespace
}  // namespace p2p::jxta
