// The fault-injection determinism contract (docs/RESILIENCE.md):
// per-link RNG streams derived from (plane seed, link id), fixed draw
// consumption per transmission. These tests pin the contract directly on
// ImpairmentPlane, then check the Network applies decisions (and counts
// them) on a real link.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/impairment.hpp"
#include "net/network.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"

namespace hbh::net {
namespace {

Impairment lossy(double loss) {
  Impairment imp;
  imp.loss = loss;
  return imp;
}

TEST(ImpairmentPlaneTest, TransparentByDefault) {
  ImpairmentPlane plane;
  EXPECT_FALSE(plane.any_active());
  EXPECT_EQ(plane.get(LinkId{0}), nullptr);
  const ImpairmentDecision d = plane.decide(LinkId{0}, 0.0);
  EXPECT_FALSE(d.drop);
  EXPECT_FALSE(d.duplicate);
  EXPECT_FALSE(d.link_down);
  EXPECT_EQ(d.extra_delay, 0.0);
}

TEST(ImpairmentPlaneTest, SameSeedSameDecisionSequence) {
  ImpairmentPlane a{42};
  ImpairmentPlane b{42};
  Impairment imp;
  imp.loss = 0.3;
  imp.duplicate = 0.2;
  imp.reorder = 0.5;
  imp.jitter = 4.0;
  a.set(LinkId{3}, imp);
  b.set(LinkId{3}, imp);
  for (int i = 0; i < 500; ++i) {
    const auto da = a.decide(LinkId{3}, 0.0);
    const auto db = b.decide(LinkId{3}, 0.0);
    ASSERT_EQ(da.drop, db.drop) << i;
    ASSERT_EQ(da.duplicate, db.duplicate) << i;
    ASSERT_EQ(da.extra_delay, db.extra_delay) << i;
    ASSERT_EQ(da.dup_extra_delay, db.dup_extra_delay) << i;
  }
}

TEST(ImpairmentPlaneTest, PerLinkStreamsAreIndependent) {
  // Link 1's outcomes must not move when link 2 appears and consumes
  // draws of its own.
  ImpairmentPlane alone{7};
  alone.set(LinkId{1}, lossy(0.5));
  std::vector<bool> baseline;
  for (int i = 0; i < 200; ++i) {
    baseline.push_back(alone.decide(LinkId{1}, 0.0).drop);
  }

  ImpairmentPlane crowded{7};
  crowded.set(LinkId{1}, lossy(0.5));
  crowded.set(LinkId{2}, lossy(0.5));
  for (std::size_t i = 0; i < 200; ++i) {
    (void)crowded.decide(LinkId{2}, 0.0);  // interleave foreign draws
    EXPECT_EQ(crowded.decide(LinkId{1}, 0.0).drop, baseline[i]) << i;
  }
}

TEST(ImpairmentPlaneTest, FixedConsumptionKeepsOutcomesPairedAcrossConfigs) {
  // Raising the loss probability must not shift the reorder outcomes of
  // the packets that still survive — five draws happen either way.
  Impairment gentle;
  gentle.reorder = 0.5;
  gentle.jitter = 2.0;
  Impairment harsh = gentle;
  harsh.loss = 0.4;

  ImpairmentPlane a{99};
  ImpairmentPlane b{99};
  a.set(LinkId{0}, gentle);
  b.set(LinkId{0}, harsh);
  for (int i = 0; i < 300; ++i) {
    const auto da = a.decide(LinkId{0}, 0.0);
    const auto db = b.decide(LinkId{0}, 0.0);
    if (!db.drop) {
      ASSERT_EQ(da.extra_delay, db.extra_delay) << i;
      ASSERT_EQ(da.duplicate, db.duplicate) << i;
    }
  }
}

TEST(ImpairmentPlaneTest, LossRateApproximatesConfiguredProbability) {
  ImpairmentPlane plane{123};
  plane.set(LinkId{0}, lossy(0.1));
  int drops = 0;
  for (int i = 0; i < 2000; ++i) {
    if (plane.decide(LinkId{0}, 0.0).drop) ++drops;
  }
  EXPECT_GT(drops, 120);  // ~200 expected
  EXPECT_LT(drops, 290);
}

TEST(ImpairmentPlaneTest, DownWindowsBlackholeTransmissions) {
  ImpairmentPlane plane{1};
  Impairment imp;
  imp.down_windows = {{10.0, 20.0}, {30.0, 35.0}};
  plane.set(LinkId{0}, imp);
  EXPECT_FALSE(plane.decide(LinkId{0}, 9.9).link_down);
  EXPECT_TRUE(plane.decide(LinkId{0}, 10.0).link_down);
  EXPECT_TRUE(plane.decide(LinkId{0}, 19.9).link_down);
  EXPECT_FALSE(plane.decide(LinkId{0}, 20.0).link_down);
  EXPECT_TRUE(plane.decide(LinkId{0}, 32.0).link_down);
  EXPECT_FALSE(plane.decide(LinkId{0}, 40.0).link_down);
}

TEST(ImpairmentPlaneTest, ReseedRestartsTheStreams) {
  ImpairmentPlane plane{5};
  plane.set(LinkId{0}, lossy(0.5));
  std::vector<bool> first;
  for (int i = 0; i < 100; ++i) {
    first.push_back(plane.decide(LinkId{0}, 0.0).drop);
  }
  plane.reseed(5);  // same seed: stream starts over
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(plane.decide(LinkId{0}, 0.0).drop, first[i]) << i;
  }
}

TEST(ImpairmentPlaneTest, ClearAllLiftsEverything) {
  ImpairmentPlane plane;
  plane.set(LinkId{0}, lossy(1.0));
  plane.set(LinkId{4}, lossy(1.0));
  EXPECT_TRUE(plane.any_active());
  plane.clear_all();
  EXPECT_FALSE(plane.any_active());
  EXPECT_FALSE(plane.decide(LinkId{0}, 0.0).drop);
}

// ---- Network integration: decisions actually applied on a link. ----

struct NetFixture {
  sim::Simulator sim;
  Topology topo = topo::make_line(2);
  std::unique_ptr<routing::UnicastRouting> routes =
      std::make_unique<routing::UnicastRouting>(topo);
  Network net{sim, topo, *routes};

  Packet data() {
    Packet p;
    p.src = net.address_of(NodeId{0});
    p.dst = net.address_of(NodeId{1});
    p.type = PacketType::kData;
    p.payload = DataPayload{1, 0, 0.0};
    return p;
  }
};

TEST(NetworkImpairmentTest, FullLossDropsAndCounts) {
  NetFixture f;
  f.net.set_impairment(NodeId{0}, NodeId{1}, lossy(1.0));
  f.net.send(NodeId{0}, f.data());
  f.sim.run_for(10);
  EXPECT_EQ(f.net.counters().drops_loss, 1u);
  EXPECT_EQ(f.net.agent(NodeId{1}).stats().rx_total(), 0u);
}

TEST(NetworkImpairmentTest, DuplicationDeliversTwiceAndCounts) {
  NetFixture f;
  Impairment imp;
  imp.duplicate = 1.0;
  f.net.set_impairment(NodeId{0}, NodeId{1}, imp);
  f.net.send(NodeId{0}, f.data());
  f.sim.run_for(10);
  EXPECT_EQ(f.net.counters().duplicates_injected, 1u);
  EXPECT_EQ(f.net.counters().transmissions, 2u);
  EXPECT_EQ(f.net.agent(NodeId{1}).stats().rx(PacketType::kData), 2u);
}

/// Keeps every packet that reaches its node.
struct Recorder : ProtocolAgent {
  std::vector<Packet> got;
  void handle(Packet&& packet, NodeId /*from*/) override {
    got.push_back(std::move(packet));
  }
};

TEST(NetworkImpairmentTest, DuplicatedFusionCopiesBothCarryTheFullList) {
  // The duplicate is copied before the original moves into the in-flight
  // pool: a copy taken after the move would arrive with an empty list.
  NetFixture f;
  auto& sink = static_cast<Recorder&>(
      f.net.attach(NodeId{1}, std::make_unique<Recorder>()));
  Impairment imp;
  imp.duplicate = 1.0;
  f.net.set_impairment(NodeId{0}, NodeId{1}, imp);
  const std::vector<Ipv4Addr> receivers{
      Ipv4Addr{10, 0, 7, 1}, Ipv4Addr{10, 0, 3, 1}, Ipv4Addr{10, 0, 9, 1}};
  Packet fusion;
  fusion.src = f.net.address_of(NodeId{0});
  fusion.dst = f.net.address_of(NodeId{1});
  fusion.type = PacketType::kFusion;
  fusion.payload = FusionPayload{receivers, f.net.address_of(NodeId{0})};
  f.net.send(NodeId{0}, std::move(fusion));
  f.sim.run_for(10);
  EXPECT_EQ(f.net.counters().duplicates_injected, 1u);
  ASSERT_EQ(sink.got.size(), 2u);
  for (const Packet& p : sink.got) {
    ASSERT_EQ(p.type, PacketType::kFusion);
    EXPECT_EQ(p.fusion().receivers, receivers);
    EXPECT_EQ(p.fusion().origin, f.net.address_of(NodeId{0}));
    EXPECT_EQ(p.ttl, kDefaultTtl - 1);
  }
}

TEST(NetworkImpairmentTest, ReorderDelaysTheCopy) {
  NetFixture f;
  Impairment imp;
  imp.reorder = 1.0;
  imp.jitter = 5.0;
  f.net.set_impairment(NodeId{0}, NodeId{1}, imp);
  f.net.send(NodeId{0}, f.data());
  f.sim.run_for(0.999);  // nominal delay is 1.0; jitter adds more
  EXPECT_EQ(f.net.agent(NodeId{1}).stats().rx_total(), 0u);
  f.sim.run_for(10);
  EXPECT_EQ(f.net.agent(NodeId{1}).stats().rx_total(), 1u);
  EXPECT_EQ(f.net.counters().reordered, 1u);
}

TEST(NetworkImpairmentTest, DownEdgeRefusesTransmission) {
  NetFixture f;
  // Materialize the route while the link is up (routing computes SPFs
  // lazily); without an invalidate() it stays stale after the edge drops.
  ASSERT_EQ(f.routes->next_hop(NodeId{0}, NodeId{1}), NodeId{1});
  const auto link = f.topo.find_link(NodeId{0}, NodeId{1});
  ASSERT_TRUE(link.has_value());
  f.topo.set_link_up(*link, false);
  // Note: routing still points through the (only) link; the fabric drops.
  f.net.send(NodeId{0}, f.data());
  f.sim.run_for(10);
  EXPECT_EQ(f.net.counters().drops_link_down, 1u);
  EXPECT_EQ(f.net.agent(NodeId{1}).stats().rx_total(), 0u);
}

TEST(NetworkImpairmentTest, BlackholeWindowOnlyDropsInsideWindow) {
  NetFixture f;
  Impairment imp;
  imp.down_windows = {{5.0, 15.0}};
  f.net.set_impairment(NodeId{0}, NodeId{1}, imp);
  f.net.send(NodeId{0}, f.data());  // t=0: before the window
  f.sim.run_for(10);                // now t=10: inside it
  f.net.send(NodeId{0}, f.data());
  f.sim.run_for(10);  // now t=20: after it
  f.net.send(NodeId{0}, f.data());
  f.sim.run_for(10);
  EXPECT_EQ(f.net.counters().drops_link_down, 1u);
  EXPECT_EQ(f.net.agent(NodeId{1}).stats().rx(PacketType::kData), 2u);
}

}  // namespace
}  // namespace hbh::net
