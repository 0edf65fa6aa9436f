// Tests for discovery (PDP), pipes (PBP), wire, peer info (PIP),
// membership (PMP) and peer groups.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>

#include "jxta/peer.h"
#include "obs/metrics.h"
#include "support/test_net.h"
#include "support/timing.h"

namespace p2p::jxta {
namespace {

using testing::TestNet;
using testing::wait_until;

PipeAdvertisement make_pipe(const std::string& name,
                            PipeAdvertisement::Type type =
                                PipeAdvertisement::Type::kUnicast) {
  PipeAdvertisement adv;
  adv.pid = PipeId::derive(name);
  adv.name = name;
  adv.type = type;
  return adv;
}

PeerGroupAdvertisement make_group(const std::string& name, const Peer& peer,
                                  const std::optional<std::string>& password =
                                      std::nullopt) {
  PeerGroupAdvertisement adv;
  adv.gid = PeerGroupId::derive(name);
  adv.creator = peer.id();
  adv.name = name;
  adv.services.emplace(
      std::string(WireService::kWireName),
      WireService::make_service_advertisement(
          make_pipe(name + "-pipe", PipeAdvertisement::Type::kPropagate)));
  adv.services.emplace(
      std::string(MembershipService::kServiceName),
      MembershipService::make_service_advertisement(password));
  return adv;
}

// --- DiscoveryService (PDP) -----------------------------------------------------

TEST(DiscoveryTest, PublishThenGetLocal) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  const auto group = make_group("PS_Test", alice);
  alice.discovery().publish(group, DiscoveryType::kGroup);
  const auto found =
      alice.discovery().get_local(DiscoveryType::kGroup, "Name", "PS_Test");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->identity(), group.identity());
}

TEST(DiscoveryTest, GlobMatchingOnName) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  alice.discovery().publish(make_group("PS_SkiRental", alice),
                            DiscoveryType::kGroup);
  alice.discovery().publish(make_group("PS_News", alice),
                            DiscoveryType::kGroup);
  alice.discovery().publish(make_group("Other", alice),
                            DiscoveryType::kGroup);
  EXPECT_EQ(alice.discovery()
                .get_local(DiscoveryType::kGroup, "Name", "PS_*")
                .size(),
            2u);
  EXPECT_EQ(alice.discovery().get_local(DiscoveryType::kGroup).size(), 3u);
}

TEST(DiscoveryTest, SameIdentityReplacesNotDuplicates) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  auto group = make_group("PS_Test", alice);
  alice.discovery().publish(group, DiscoveryType::kGroup);
  group.app = "updated";
  alice.discovery().publish(group, DiscoveryType::kGroup);
  const auto found = alice.discovery().get_local(DiscoveryType::kGroup,
                                                 "Name", "PS_Test");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->field("App"), "updated");
}

TEST(DiscoveryTest, FlushClearsType) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  alice.discovery().publish(make_group("PS_A", alice), DiscoveryType::kGroup);
  alice.discovery().flush(DiscoveryType::kGroup);
  EXPECT_TRUE(alice.discovery().get_local(DiscoveryType::kGroup).empty());
  // Peer cache untouched by group flush (own peer adv still there).
  EXPECT_GE(alice.discovery().get_local(DiscoveryType::kPeer).size(), 1u);
}

TEST(DiscoveryTest, FlushByIdentity) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  const auto a = make_group("PS_A", alice);
  const auto b = make_group("PS_B", alice);
  alice.discovery().publish(a, DiscoveryType::kGroup);
  alice.discovery().publish(b, DiscoveryType::kGroup);
  alice.discovery().flush(DiscoveryType::kGroup, a.identity());
  const auto left = alice.discovery().get_local(DiscoveryType::kGroup);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0]->identity(), b.identity());
}

TEST(DiscoveryTest, ExpiryHonoursLifetime) {
  net::NetworkFabric fabric;
  util::SimClock clock;
  PeerConfig config;
  config.name = "alice";
  config.heartbeat = std::chrono::hours(1);
  Peer alice(config, clock);
  alice.add_transport(std::make_shared<net::InProcTransport>(fabric, "alice"));
  alice.start();
  alice.discovery().publish(make_group("PS_Short", alice),
                            DiscoveryType::kGroup, /*lifetime_ms=*/1000);
  EXPECT_EQ(alice.discovery().cache_size(DiscoveryType::kGroup), 1u);
  clock.advance(std::chrono::milliseconds(1500));
  EXPECT_EQ(alice.discovery().cache_size(DiscoveryType::kGroup), 0u);
  EXPECT_TRUE(alice.discovery().get_local(DiscoveryType::kGroup).empty());
  alice.stop();
}

TEST(DiscoveryTest, RemoteQueryPopulatesCacheAndFiresListener) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  bob.discovery().publish(make_group("PS_Remote", bob),
                          DiscoveryType::kGroup);
  std::atomic<int> events{0};
  alice.discovery().add_listener([&](const DiscoveryEvent& event) {
    if (event.type == DiscoveryType::kGroup) ++events;
  });
  alice.discovery().get_remote(DiscoveryType::kGroup, "Name", "PS_Remote*");
  EXPECT_TRUE(wait_until([&] {
    return !alice.discovery()
                .get_local(DiscoveryType::kGroup, "Name", "PS_Remote")
                .empty();
  }));
  EXPECT_GE(events, 1);
}

TEST(DiscoveryTest, RemotePublishPushesUnsolicited) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  bob.discovery().remote_publish(make_group("PS_Pushed", bob),
                                 DiscoveryType::kGroup);
  EXPECT_TRUE(wait_until([&] {
    return !alice.discovery()
                .get_local(DiscoveryType::kGroup, "Name", "PS_Pushed")
                .empty();
  }));
}

TEST(DiscoveryTest, ThresholdLimitsResponse) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  for (int i = 0; i < 10; ++i) {
    bob.discovery().publish(make_group("PS_Many" + std::to_string(i), bob),
                            DiscoveryType::kGroup);
  }
  alice.discovery().get_remote(DiscoveryType::kGroup, "Name", "PS_Many*",
                               /*threshold=*/3);
  ASSERT_TRUE(wait_until([&] {
    return alice.discovery()
               .get_local(DiscoveryType::kGroup, "Name", "PS_Many*")
               .size() >= 3;
  }));
  p2p::testing::settle(std::chrono::milliseconds(200));
  EXPECT_EQ(alice.discovery()
                .get_local(DiscoveryType::kGroup, "Name", "PS_Many*")
                .size(),
            3u);
}

TEST(DiscoveryTest, PeersDiscoverEachOtherOnStart) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  // Each peer remote_publishes its own advertisement at start.
  EXPECT_TRUE(wait_until([&] {
    return !alice.discovery()
                .get_local(DiscoveryType::kPeer, "Name", "bob")
                .empty() &&
           !bob.discovery()
                .get_local(DiscoveryType::kPeer, "Name", "alice")
                .empty();
  }));
}

TEST(DiscoveryTest, ListenerRemovalStopsEvents) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  std::atomic<int> events{0};
  const auto handle = alice.discovery().add_listener(
      [&](const DiscoveryEvent&) { ++events; });
  alice.discovery().remove_listener(handle);
  bob.discovery().remote_publish(make_group("PS_X", bob),
                                 DiscoveryType::kGroup);
  p2p::testing::settle(std::chrono::milliseconds(200));
  EXPECT_EQ(events, 0);
}

// --- PipeService (PBP) ----------------------------------------------------------

TEST(PipeTest, UnicastSendReceive) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  const auto adv = make_pipe("test-pipe");
  auto input = bob.pipes().create_input_pipe(adv);
  auto output = alice.pipes().create_output_pipe(adv);
  ASSERT_TRUE(output->resolved());
  Message m;
  m.add_string("k", "v");
  EXPECT_TRUE(output->send(m));
  const auto got = input->poll(std::chrono::milliseconds(2000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->get_string("k"), "v");
}

TEST(PipeTest, OutputResolutionTimesOutWithoutBinding) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  auto output = alice.pipes().create_output_pipe(
      make_pipe("nobody-listens"), std::chrono::milliseconds(200));
  EXPECT_FALSE(output->resolved());
  EXPECT_FALSE(output->send(Message{}));
}

TEST(PipeTest, ListenerDeliveryAndBacklogFlush) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  const auto adv = make_pipe("listener-pipe");
  auto input = bob.pipes().create_input_pipe(adv);
  auto output = alice.pipes().create_output_pipe(adv);
  ASSERT_TRUE(output->resolved());
  Message m;
  m.add_string("n", "1");
  output->send(m);
  // Arrives while no listener is set -> queued.
  std::atomic<int> got{0};
  ASSERT_TRUE(wait_until([&] {
    return input->poll(std::chrono::milliseconds(10)).has_value();
  }));
  input->set_listener([&](Message) { ++got; });
  output->send(m);
  EXPECT_TRUE(wait_until([&] { return got == 1; }));
}

TEST(PipeTest, MultipleInputPipesSameIdAllReceive) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  const auto adv = make_pipe("shared-pipe");
  auto input1 = bob.pipes().create_input_pipe(adv);
  auto input2 = bob.pipes().create_input_pipe(adv);
  auto output = alice.pipes().create_output_pipe(adv);
  ASSERT_TRUE(output->resolved());
  std::atomic<int> got1{0};
  std::atomic<int> got2{0};
  input1->set_listener([&](Message) { ++got1; });
  input2->set_listener([&](Message) { ++got2; });
  output->send(Message{});
  EXPECT_TRUE(wait_until([&] { return got1 == 1 && got2 == 1; }));
}

TEST(PipeTest, PropagatePipeSendsToAllBoundPeers) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  Peer& carol = net.add_peer("carol");
  const auto adv = make_pipe("prop-pipe", PipeAdvertisement::Type::kPropagate);
  auto in_bob = bob.pipes().create_input_pipe(adv);
  auto in_carol = carol.pipes().create_input_pipe(adv);
  auto output = alice.pipes().create_output_pipe(adv);
  ASSERT_TRUE(
      wait_until([&] { return output->bound_peers().size() == 2; }));
  std::atomic<int> got{0};
  in_bob->set_listener([&](Message) { ++got; });
  in_carol->set_listener([&](Message) { ++got; });
  output->send(Message{});
  EXPECT_TRUE(wait_until([&] { return got == 2; }));
}

TEST(PipeTest, ClosedInputStopsAnswering) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  const auto adv = make_pipe("closing-pipe");
  auto input = bob.pipes().create_input_pipe(adv);
  input->close();
  auto output = alice.pipes().create_output_pipe(
      adv, std::chrono::milliseconds(200));
  EXPECT_FALSE(output->resolved());
}

// The headline PBP property (paper §2.2 Fig. 5): the pipe survives the
// bound peer changing its transport address mid-conversation.
TEST(PipeTest, ReBindingAfterAddressChange) {
  net::NetworkFabric fabric;
  jxta::PeerConfig config_a;
  config_a.name = "alice";
  config_a.heartbeat = std::chrono::milliseconds(100);
  Peer alice(config_a);
  alice.add_transport(std::make_shared<net::InProcTransport>(fabric, "alice"));
  alice.start();

  jxta::PeerConfig config_b;
  config_b.name = "bob";
  config_b.heartbeat = std::chrono::milliseconds(100);
  Peer bob(config_b);
  auto bob_transport = std::make_shared<net::InProcTransport>(fabric, "bob");
  bob.add_transport(bob_transport);
  bob.start();

  const auto adv = make_pipe("mobile-pipe");
  auto input = bob.pipes().create_input_pipe(adv);
  auto output = alice.pipes().create_output_pipe(adv);
  ASSERT_TRUE(output->resolved());
  ASSERT_TRUE(output->send(Message{}));
  ASSERT_TRUE(input->poll(std::chrono::milliseconds(2000)).has_value());

  // Bob moves: same peer id, same pipe, new network address.
  ASSERT_TRUE(bob_transport->change_address("bob-roaming"));

  // Sends fail until re-resolution completes, then succeed again — without
  // recreating the pipe (fixed UUID over changing IP, as the paper puts it).
  EXPECT_TRUE(testing::wait_until([&] {
    if (output->send(Message{})) return true;
    output->resolve(std::chrono::milliseconds(100));
    return false;
  }));
  EXPECT_TRUE(input->poll(std::chrono::milliseconds(2000)).has_value());
  bob.stop();
  alice.stop();
}

// --- WireService ------------------------------------------------------------------

TEST(WireTest, ManyToManyDelivery) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  Peer& carol = net.add_peer("carol");
  const auto group_adv = make_group("wire-group", alice);
  auto g_alice = alice.create_group(group_adv);
  auto g_bob = bob.create_group(group_adv);
  auto g_carol = carol.create_group(group_adv);
  const auto pipe = *group_adv.service(WireService::kWireName)->pipe;
  auto in_bob = g_bob->wire().create_input_pipe(pipe);
  auto in_carol = g_carol->wire().create_input_pipe(pipe);
  auto out = g_alice->wire().create_output_pipe(pipe);
  std::atomic<int> got{0};
  in_bob->set_listener([&](Message) { ++got; });
  in_carol->set_listener([&](Message) { ++got; });
  Message m;
  m.add_string("x", "y");
  EXPECT_TRUE(out->send(m));
  EXPECT_TRUE(wait_until([&] { return got == 2; }));
}

TEST(WireTest, LocalInputPipeAlsoReceives) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  const auto group_adv = make_group("loop-group", alice);
  auto group = alice.create_group(group_adv);
  const auto pipe = *group_adv.service(WireService::kWireName)->pipe;
  auto input = group->wire().create_input_pipe(pipe);
  auto output = group->wire().create_output_pipe(pipe);
  output->send(Message{});
  EXPECT_TRUE(input->poll(std::chrono::milliseconds(2000)).has_value());
}

TEST(WireTest, GroupsIsolateTraffic) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  const auto adv1 = make_group("group-one", alice);
  const auto adv2 = make_group("group-two", alice);
  auto g1_alice = alice.create_group(adv1);
  auto g2_bob = bob.create_group(adv2);
  // Same pipe id in both groups; traffic must not cross group boundaries.
  const auto pipe = make_pipe("shared-name",
                              PipeAdvertisement::Type::kPropagate);
  auto out = g1_alice->wire().create_output_pipe(pipe);
  auto in = g2_bob->wire().create_input_pipe(pipe);
  out->send(Message{});
  EXPECT_FALSE(in->poll(std::chrono::milliseconds(300)).has_value());
}

TEST(WireTest, NoDuplicateSuppressionAtWireLevel) {
  // Faithful JXTA 1.0 behaviour: the SAME payload sent twice arrives twice;
  // deduplication is the SR layers' job, not the wire's.
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  const auto group_adv = make_group("dup-group", alice);
  auto g_alice = alice.create_group(group_adv);
  auto g_bob = bob.create_group(group_adv);
  const auto pipe = *group_adv.service(WireService::kWireName)->pipe;
  auto in = g_bob->wire().create_input_pipe(pipe);
  auto out = g_alice->wire().create_output_pipe(pipe);
  Message m;
  m.add_string("payload", "same");
  out->send(m.dup());
  out->send(m.dup());
  std::atomic<int> got{0};
  in->set_listener([&](Message) { ++got; });
  EXPECT_TRUE(wait_until([&] { return got == 2; }));
}

TEST(WireTest, ServiceAdvertisementCarriesPaperConstants) {
  const auto svc =
      WireService::make_service_advertisement(make_pipe("SkiRental"));
  EXPECT_EQ(svc.name, WireService::kWireName);
  EXPECT_EQ(svc.version, WireService::kWireVersion);
  EXPECT_EQ(svc.uri, WireService::kWireUri);
  EXPECT_EQ(svc.code, WireService::kWireCode);
  EXPECT_EQ(svc.security, WireService::kWireSecurity);
  EXPECT_EQ(svc.keywords, "SkiRental");  // setKeywords(pipeAdv.getName())
  ASSERT_TRUE(svc.pipe.has_value());
}

// --- PeerInfoService (PIP) ----------------------------------------------------------

TEST(PeerInfoTest, LocalInfo) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  const auto info = alice.info().local_info();
  EXPECT_EQ(info.peer, alice.id());
  EXPECT_EQ(info.name, "alice");
  EXPECT_GE(info.uptime_ms, 0);
}

TEST(PeerInfoTest, RemoteQueryReturnsStatus) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  alice.endpoint().learn_peer(bob.id(), {net::Address("inproc", "bob")},
                              false);
  const auto info =
      alice.info().query(bob.id(), std::chrono::milliseconds(3000));
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->peer, bob.id());
  EXPECT_EQ(info->name, "bob");
  if (obs::enabled()) {
    EXPECT_GT(info->traffic.msgs_received, 0u);  // it received our query
  }
}

TEST(PeerInfoTest, QueryUnknownPeerTimesOut) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  EXPECT_FALSE(alice.info()
                   .query(PeerId::generate(), std::chrono::milliseconds(200))
                   .has_value());
}

TEST(PeerInfoTest, SelfQueryShortCircuits) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  const auto info =
      alice.info().query(alice.id(), std::chrono::milliseconds(100));
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->name, "alice");
}

// --- MembershipService (PMP) ---------------------------------------------------------

TEST(MembershipTest, OpenGroupJoinsWithoutPassword) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  auto group = alice.create_group(make_group("open-group", alice));
  EXPECT_FALSE(group->membership().apply().password_required);
  const Credential c = group->membership().join("alice");
  EXPECT_TRUE(group->membership().joined());
  EXPECT_TRUE(group->membership().verify(c));
}

TEST(MembershipTest, PasswordGroupRejectsWrongPassword) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  auto group =
      alice.create_group(make_group("vip-group", alice, "s3cret"));
  EXPECT_TRUE(group->membership().apply().password_required);
  EXPECT_THROW(group->membership().join("alice", "wrong"), MembershipError);
  EXPECT_FALSE(group->membership().joined());
  const Credential c = group->membership().join("alice", "s3cret");
  EXPECT_TRUE(group->membership().joined());
  EXPECT_TRUE(group->membership().verify(c));
}

TEST(MembershipTest, CredentialVerifiableByOtherMember) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  const auto adv = make_group("shared-group", alice, "pw");
  auto g_alice = alice.create_group(adv);
  auto g_bob = bob.create_group(adv);
  const Credential alice_cred = g_alice->membership().join("alice", "pw");
  // Credentials travel as bytes; bob verifies against the same group adv.
  const Credential received =
      Credential::deserialize(alice_cred.serialize());
  EXPECT_TRUE(g_bob->membership().verify(received));
}

TEST(MembershipTest, TamperedCredentialRejected) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  auto group = alice.create_group(make_group("tamper-group", alice, "pw"));
  Credential c = group->membership().join("alice", "pw");
  c.identity = "mallory";  // token no longer matches
  EXPECT_FALSE(group->membership().verify(c));
  Credential c2 = group->membership().join("alice", "pw");
  c2.token ^= 1;
  EXPECT_FALSE(group->membership().verify(c2));
}

TEST(MembershipTest, ResignDropsCredential) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  auto group = alice.create_group(make_group("resign-group", alice));
  group->membership().join("alice");
  group->membership().resign();
  EXPECT_FALSE(group->membership().joined());
}

// --- PeerGroup -----------------------------------------------------------------------

TEST(PeerGroupTest, GroupsAreSingletonsPerGid) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  const auto adv = make_group("singleton-group", alice);
  auto g1 = alice.create_group(adv);
  auto g2 = alice.create_group(adv);
  EXPECT_EQ(g1.get(), g2.get());
}

TEST(PeerGroupTest, NewInstanceAfterRelease) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  const auto adv = make_group("reborn-group", alice);
  PeerGroup* first = alice.create_group(adv).get();  // dies immediately
  auto second = alice.create_group(adv);
  EXPECT_NE(second.get(), nullptr);
  (void)first;
}

TEST(PeerGroupTest, LookupServiceByJxtaName) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  auto group = alice.create_group(make_group("lookup-group", alice));
  EXPECT_EQ(group->lookup_service(WireService::kWireName),
            PeerGroup::ServiceKind::kWire);
  EXPECT_EQ(group->lookup_service(MembershipService::kServiceName),
            PeerGroup::ServiceKind::kMembership);
  EXPECT_THROW(group->lookup_service("jxta.service.unknown"),
               util::NotFoundError);
}

TEST(PeerGroupTest, NetGroupSharedByAllPeers) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  Peer& bob = net.add_peer("bob");
  EXPECT_EQ(alice.net_group().id(), bob.net_group().id());
  EXPECT_EQ(alice.net_group().name(), "NetPeerGroup");
  EXPECT_EQ(alice.net_group().parent(), nullptr);
}

TEST(PeerTest, StoppedPeerRejectsGroupCreation) {
  auto net = std::make_unique<TestNet>();
  Peer& alice = net->add_peer("alice");
  alice.stop();
  EXPECT_THROW((void)alice.create_group(make_group("late", alice)),
               util::StateError);
}

TEST(PeerTest, AddTransportAfterStartRejected) {
  TestNet net;
  Peer& alice = net.add_peer("alice");
  EXPECT_THROW(
      alice.add_transport(
          std::make_shared<net::InProcTransport>(net.fabric(), "late")),
      util::StateError);
}

TEST(PeerTest, MakeAdvertisementReflectsConfig) {
  TestNet net;
  Peer& rdv = net.add_peer("rdv", /*rendezvous=*/true, /*router=*/true);
  const auto adv = rdv.make_advertisement();
  EXPECT_EQ(adv.pid, rdv.id());
  EXPECT_EQ(adv.name, "rdv");
  EXPECT_TRUE(adv.is_rendezvous);
  EXPECT_TRUE(adv.is_router);
  ASSERT_EQ(adv.endpoints.size(), 1u);
  EXPECT_EQ(adv.endpoints[0].to_string(), "inproc://rdv");
}

// Threads of this process, counted from /proc/self/task; -1 where that
// directory is absent.
int process_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  return static_cast<int>(
      std::distance(it, std::filesystem::directory_iterator{}));
}

TEST(PeerTest, StartedThreadedPeerAddsOneThread) {
  if (process_threads() < 0) GTEST_SKIP() << "/proc/self/task is absent";
  // The shared queue's thread belongs to the process, not to a peer.
  (void)util::TimerQueue::shared();
  net::NetworkFabric fabric(42);
  const int before = process_threads();
  PeerConfig config;
  config.name = "solo";
  Peer peer(config);
  peer.add_transport(std::make_shared<net::InProcTransport>(fabric, "solo"));
  peer.start();
  // Its executor; periodic work rides the timer queue.
  EXPECT_EQ(process_threads(), before + 1);
  peer.stop();
}

}  // namespace
}  // namespace p2p::jxta
