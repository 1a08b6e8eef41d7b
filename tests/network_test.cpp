// Unit tests for the network fabric: addressing, unicast forwarding,
// delays, TTL protection, taps, and agent interception hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"

namespace hbh::net {
namespace {

using routing::UnicastRouting;

struct Fixture {
  Topology topo;
  std::unique_ptr<UnicastRouting> routes;
  std::unique_ptr<Network> net;
  sim::Simulator sim;

  // Line topology 0 - 1 - 2 - 3, unit costs, delay 2 per hop.
  void build_line(std::size_t n = 4) {
    for (std::size_t i = 0; i < n; ++i) topo.add_node();
    for (std::size_t i = 0; i + 1 < n; ++i) {
      topo.add_duplex(NodeId{static_cast<std::uint32_t>(i)},
                      NodeId{static_cast<std::uint32_t>(i + 1)},
                      LinkAttrs{1, 2});
    }
    routes = std::make_unique<UnicastRouting>(topo);
    net = std::make_unique<Network>(sim, topo, *routes);
  }
};

/// Agent recording every delivery addressed to it.
class RecordingAgent : public ProtocolAgent {
 public:
  struct Seen {
    Packet packet;
    Time at;
    NodeId from;
  };
  std::vector<Seen> received;

 protected:
  void deliver_local(Packet&& p, NodeId from) override {
    received.push_back(Seen{std::move(p), simulator().now(), from});
  }
};

/// Tap collecting (from, to) of each transmission.
class RecordingTap : public PacketTap {
 public:
  std::vector<std::pair<NodeId, NodeId>> hops;
  std::vector<DropReason> drops;
  void on_transmit(const Topology::Edge& e, const Packet&, Time) override {
    hops.emplace_back(e.from, e.to);
  }
  void on_drop(NodeId, const Packet&, DropReason reason, Time) override {
    drops.push_back(reason);
  }
};

constexpr std::uint32_t kRounds = 1000;

Packet make_data(Network& net, NodeId from, NodeId to) {
  Packet p;
  p.src = net.address_of(from);
  p.dst = net.address_of(to);
  p.type = PacketType::kData;
  p.payload = DataPayload{};
  return p;
}

TEST(NetworkTest, AddressAssignmentIsStableAndReversible) {
  Fixture f;
  f.build_line();
  for (std::uint32_t i = 0; i < 4; ++i) {
    const NodeId n{i};
    const Ipv4Addr a = f.net->address_of(n);
    EXPECT_EQ(f.net->node_of(a), n);
    EXPECT_EQ(a.octet(0), 10);
  }
  EXPECT_EQ(f.net->node_of(Ipv4Addr(1, 2, 3, 4)), kNoNode);
}

TEST(NetworkTest, NodeAddressSchemeSpansIndices) {
  EXPECT_EQ(node_address(NodeId{0}).to_string(), "10.0.0.1");
  EXPECT_EQ(node_address(NodeId{255}).to_string(), "10.0.255.1");
  EXPECT_EQ(node_address(NodeId{256}).to_string(), "10.1.0.1");
}

TEST(NetworkTest, UnicastDeliveryAcrossMultipleHops) {
  Fixture f;
  f.build_line();
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{3}, std::make_unique<RecordingAgent>()));
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{3}));
  f.sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.received[0].at, 6.0);  // 3 hops × delay 2
  EXPECT_EQ(sink.received[0].from, NodeId{2});
}

TEST(NetworkTest, TransmissionCountersTrackHops) {
  Fixture f;
  f.build_line();
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{3}));
  f.sim.run();
  EXPECT_EQ(f.net->counters().transmissions, 3u);
  EXPECT_EQ(f.net->counters().data_transmissions, 3u);
  EXPECT_EQ(f.net->counters().control_transmissions, 0u);
}

TEST(NetworkTest, TapObservesEveryHopInOrder) {
  Fixture f;
  f.build_line();
  RecordingTap tap;
  f.net->add_tap(&tap);
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{3}));
  f.sim.run();
  ASSERT_EQ(tap.hops.size(), 3u);
  EXPECT_EQ(tap.hops[0], std::make_pair(NodeId{0}, NodeId{1}));
  EXPECT_EQ(tap.hops[2], std::make_pair(NodeId{2}, NodeId{3}));
}

TEST(NetworkTest, SelfAddressedPacketDeliversLocally) {
  Fixture f;
  f.build_line();
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{1}, std::make_unique<RecordingAgent>()));
  f.net->send(NodeId{1}, make_data(*f.net, NodeId{1}, NodeId{1}));
  f.sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.received[0].at, 0.0);
  EXPECT_EQ(f.net->counters().transmissions, 0u);
}

TEST(NetworkTest, UnknownDestinationIsDropped) {
  Fixture f;
  f.build_line();
  RecordingTap tap;
  f.net->add_tap(&tap);
  Packet p = make_data(*f.net, NodeId{0}, NodeId{1});
  p.dst = Ipv4Addr(8, 8, 8, 8);
  f.net->send(NodeId{0}, std::move(p));
  f.sim.run();
  ASSERT_EQ(tap.drops.size(), 1u);
  EXPECT_EQ(tap.drops[0], DropReason::kUnknownDestination);
  EXPECT_EQ(f.net->counters().drops_no_route, 1u);
}

TEST(NetworkTest, NoRouteIsDropped) {
  Fixture f;
  // Two disconnected nodes.
  f.topo.add_node();
  f.topo.add_node();
  f.routes = std::make_unique<UnicastRouting>(f.topo);
  f.net = std::make_unique<Network>(f.sim, f.topo, *f.routes);
  RecordingTap tap;
  f.net->add_tap(&tap);
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{1}));
  f.sim.run();
  ASSERT_EQ(tap.drops.size(), 1u);
  EXPECT_EQ(tap.drops[0], DropReason::kNoRoute);
}

TEST(NetworkTest, NodeOfRejectsAddressesOutsideTheScheme) {
  Fixture f;
  f.build_line();  // 4 nodes: 10.0.0.1 .. 10.0.3.1
  const std::vector<Ipv4Addr> strangers{
      Ipv4Addr(10, 0, 0, 2),    // right prefix, wrong host octet
      Ipv4Addr(11, 0, 0, 1),    // wrong first octet
      Ipv4Addr(10, 0, 4, 1),    // index 4 == node_count()
      Ipv4Addr(10, 1, 0, 1),    // index 256
      Ipv4Addr(10, 255, 255, 1)};
  for (const Ipv4Addr a : strangers) {
    EXPECT_EQ(f.net->node_of(a), kNoNode) << a.to_string();
  }
  EXPECT_EQ(f.net->node_of(Ipv4Addr(10, 0, 3, 1)), NodeId{3});

  RecordingTap tap;
  f.net->add_tap(&tap);
  for (const Ipv4Addr a : strangers) {
    Packet p = make_data(*f.net, NodeId{0}, NodeId{1});
    p.dst = a;
    f.net->send(NodeId{0}, std::move(p));
  }
  f.sim.run();
  EXPECT_EQ(tap.drops, std::vector<DropReason>(
                           strangers.size(), DropReason::kUnknownDestination));
  EXPECT_EQ(f.net->counters().drops_no_route, strangers.size());
  EXPECT_EQ(f.net->counters().transmissions, 0u);
}

TEST(NetworkTest, RoutedHopOntoDownLinkDropsAsLinkDown) {
  // Routes computed while 1->2 was up keep naming it after it fails (no
  // invalidate(), i.e. before the IGP reconverges): the hop must reach
  // transmit() and drop there as link-down, not vanish or misroute.
  Fixture f;
  f.build_line();
  const auto link = f.topo.find_link(NodeId{1}, NodeId{2});
  ASSERT_TRUE(link.has_value());
  EXPECT_EQ(f.routes->next_link(NodeId{1}, NodeId{3}), *link);
  EXPECT_EQ(f.routes->next_link(NodeId{0}, NodeId{3}),
            *f.topo.find_link(NodeId{0}, NodeId{1}));
  EXPECT_EQ(f.routes->next_link(NodeId{3}, NodeId{3}), kNoLink);
  f.topo.set_link_up(*link, false);
  RecordingTap tap;
  f.net->add_tap(&tap);
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{3}));
  f.sim.run();
  ASSERT_EQ(tap.hops.size(), 1u);  // 0->1 only
  EXPECT_EQ(tap.drops, std::vector<DropReason>{DropReason::kLinkDown});
  EXPECT_EQ(f.net->counters().drops_link_down, 1u);
}

TEST(NetworkTest, ResendingFromDeliverKeepsExactlyOnceDelivery) {
  // Node 1 answers each self-addressed packet by sending the next one to
  // itself and a copy to node 3, 1,000 times, all inside deliver at t=0.
  // The copies pile up in flight, so the fabric's in-flight pool grows
  // (and reallocates) while it is delivering one of its own entries.
  class Bouncer : public ProtocolAgent {
   public:
    std::vector<std::uint32_t> seen;

   protected:
    void deliver_local(Packet&& p, NodeId from) override {
      (void)from;
      const std::uint32_t seq = p.data().seq;
      if (seq + 1 < kRounds) {
        Packet next = p;
        next.data().seq = seq + 1;
        Packet far = next;
        far.dst = net().address_of(NodeId{3});
        net().send(self(), std::move(far));
        net().send(self(), std::move(next));
      }
      // Read after the sends: they must not have touched the packet being
      // delivered (no aliasing of a recycled or reallocated pool entry).
      seen.push_back(p.data().seq);
    }
  };
  Fixture f;
  f.build_line();
  auto& bouncer = static_cast<Bouncer&>(
      f.net->attach(NodeId{1}, std::make_unique<Bouncer>()));
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{3}, std::make_unique<RecordingAgent>()));
  f.net->send(NodeId{1}, make_data(*f.net, NodeId{1}, NodeId{1}));
  f.sim.run();

  std::vector<std::uint32_t> expected(kRounds);
  for (std::uint32_t i = 0; i < kRounds; ++i) expected[i] = i;
  EXPECT_EQ(bouncer.seen, expected);
  std::vector<std::uint32_t> far;
  for (const auto& seen : sink.received) {
    EXPECT_DOUBLE_EQ(seen.at, 4.0);  // 2 hops x delay 2
    far.push_back(seen.packet.data().seq);
  }
  std::sort(far.begin(), far.end());
  expected.erase(expected.begin());  // seq 0 was never forwarded
  EXPECT_EQ(far, expected);
  EXPECT_EQ(f.net->counters().transmissions, 2u * (kRounds - 1));
}

TEST(NetworkTest, DropReasonNamesAreStable) {
  // The run report's net.drops.<reason> counters and the tracer's
  // drop:<reason> spans are named by these strings.
  EXPECT_EQ(to_string(DropReason::kTtlExpired), "ttl-expired");
  EXPECT_EQ(to_string(DropReason::kNoRoute), "no-route");
  EXPECT_EQ(to_string(DropReason::kUnknownDestination), "unknown-destination");
  EXPECT_EQ(to_string(DropReason::kLinkDown), "link-down");
  EXPECT_EQ(to_string(DropReason::kLoss), "loss");
  EXPECT_EQ(to_string(DropReason::kQueueFull), "queue-full");
  EXPECT_EQ(to_string(DropReason::kRedEarly), "red-early");
  EXPECT_EQ(static_cast<std::size_t>(DropReason::kRedEarly) + 1,
            kDropReasonCount);
}

TEST(NetworkTest, TtlExpiryBoundsForwarding) {
  Fixture f;
  f.build_line(4);
  Packet p = make_data(*f.net, NodeId{0}, NodeId{3});
  p.ttl = 2;  // enough for 2 hops only
  RecordingTap tap;
  f.net->add_tap(&tap);
  f.net->send(NodeId{0}, std::move(p));
  f.sim.run();
  EXPECT_EQ(tap.hops.size(), 2u);
  EXPECT_EQ(f.net->counters().drops_ttl, 1u);
}

TEST(NetworkTest, DefaultAgentForwardsTransitTraffic) {
  Fixture f;
  f.build_line();
  // No custom agents anywhere except destination: transit nodes 1, 2 use
  // the default agent and must forward.
  auto& sink = static_cast<RecordingAgent&>(
      f.net->attach(NodeId{3}, std::make_unique<RecordingAgent>()));
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{3}));
  f.sim.run();
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST(NetworkTest, DefaultAgentSinksSelfAddressed) {
  Fixture f;
  f.build_line();
  f.net->send(NodeId{0}, make_data(*f.net, NodeId{0}, NodeId{2}));
  f.sim.run();
  EXPECT_EQ(f.net->counters().local_sink, 1u);
}

TEST(NetworkTest, SendDirectUsesNamedLinkOnly) {
  Fixture f;
  f.build_line();
  RecordingTap tap;
  f.net->add_tap(&tap);
  // Direct transmission 1->2 of a packet addressed elsewhere; the next
  // agent (default) will then forward it by unicast toward node 0.
  Packet p = make_data(*f.net, NodeId{1}, NodeId{0});
  f.net->send_direct(NodeId{1}, NodeId{2}, std::move(p));
  f.sim.run();
  ASSERT_GE(tap.hops.size(), 2u);
  EXPECT_EQ(tap.hops[0], std::make_pair(NodeId{1}, NodeId{2}));
  EXPECT_EQ(tap.hops[1], std::make_pair(NodeId{2}, NodeId{1}));
}

TEST(NetworkTest, StartInvokesAllAgents) {
  class StartCounting : public ProtocolAgent {
   public:
    explicit StartCounting(int& counter) : counter_(counter) {}
    void start() override { ++counter_; }

   private:
    int& counter_;
  };
  Fixture f;
  f.build_line();
  int started = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    f.net->attach(NodeId{i}, std::make_unique<StartCounting>(started));
  }
  f.net->start();
  EXPECT_EQ(started, 4);
}

TEST(PacketTest, DescribeMentionsTypeAndAddresses) {
  Packet p;
  p.src = Ipv4Addr(10, 0, 0, 1);
  p.dst = Ipv4Addr(10, 0, 1, 1);
  p.type = PacketType::kJoin;
  p.payload = JoinPayload{Ipv4Addr(10, 0, 2, 1), true};
  const std::string d = p.describe();
  EXPECT_NE(d.find("join"), std::string::npos);
  EXPECT_NE(d.find("10.0.0.1"), std::string::npos);
  EXPECT_NE(d.find("first"), std::string::npos);
}

TEST(PacketTest, DescribeFusionListsReceivers) {
  Packet p;
  p.type = PacketType::kFusion;
  p.payload = FusionPayload{{Ipv4Addr(10, 0, 2, 1), Ipv4Addr(10, 0, 3, 1)},
                            Ipv4Addr(10, 0, 9, 1)};
  const std::string d = p.describe();
  EXPECT_NE(d.find("10.0.2.1,10.0.3.1"), std::string::npos);
  EXPECT_NE(d.find("from=10.0.9.1"), std::string::npos);
}

}  // namespace
}  // namespace hbh::net
