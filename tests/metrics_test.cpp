// Tests for the measurement probes (tree cost counting, per-link copy
// detection, delay recording, delivery audit) and the ASCII tree renderer.
#include <gtest/gtest.h>

#include "metrics/probe.hpp"

namespace hbh::metrics {
namespace {

net::Topology::Edge edge(std::uint32_t a, std::uint32_t b) {
  return net::Topology::Edge{NodeId{a}, NodeId{b}, net::LinkAttrs{1, 1}};
}

net::Packet data_packet(std::uint64_t probe, Time sent_at = 0) {
  net::Packet p;
  p.type = net::PacketType::kData;
  p.payload = net::DataPayload{probe, 0, sent_at, false};
  return p;
}

TEST(DataProbeTest, CountsOnlyMatchingDataTransmissions) {
  DataProbe probe{1};
  probe.on_transmit(edge(0, 1), data_packet(1), 0);
  probe.on_transmit(edge(1, 2), data_packet(1), 1);
  probe.on_transmit(edge(1, 2), data_packet(2), 1);  // other probe
  net::Packet join;
  join.type = net::PacketType::kJoin;
  join.payload = net::JoinPayload{};
  probe.on_transmit(edge(0, 1), join, 2);  // control traffic
  EXPECT_EQ(probe.link_copies(), 2u);
}

TEST(DataProbeTest, PerLinkCopyCounts) {
  DataProbe probe{1};
  probe.on_transmit(edge(0, 1), data_packet(1), 0);
  probe.on_transmit(edge(0, 1), data_packet(1), 0);
  probe.on_transmit(edge(1, 0), data_packet(1), 0);  // reverse direction
  EXPECT_EQ(probe.max_copies_on_a_link(), 2u);
  EXPECT_EQ(probe.per_link().size(), 2u);  // directions are distinct links
}

TEST(DataProbeTest, DelayRecordingPerHost) {
  DataProbe probe{1};
  net::Packet p = data_packet(1, /*sent_at=*/5.0);
  probe.on_data(NodeId{7}, p, 12.0);
  probe.on_data(NodeId{8}, p, 9.0);
  const auto& d = probe.deliveries();
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d.at(NodeId{7})[0], 7.0);
  EXPECT_DOUBLE_EQ(d.at(NodeId{8})[0], 4.0);
  EXPECT_DOUBLE_EQ(probe.mean_delay({NodeId{7}, NodeId{8}}), 5.5);
}

TEST(DataProbeTest, MeanDelaySkipsMissingReceivers) {
  DataProbe probe{1};
  probe.on_data(NodeId{1}, data_packet(1, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(probe.mean_delay({NodeId{1}, NodeId{2}}), 10.0);
  EXPECT_DOUBLE_EQ(probe.mean_delay({NodeId{2}}), 0.0);
}

TEST(DataProbeTest, MissingAndDuplicatedAudit) {
  DataProbe probe{1};
  const net::Packet p = data_packet(1);
  probe.on_data(NodeId{1}, p, 1.0);
  probe.on_data(NodeId{2}, p, 1.0);
  probe.on_data(NodeId{2}, p, 2.0);  // duplicate
  const std::vector<NodeId> expected{NodeId{1}, NodeId{2}, NodeId{3}};
  EXPECT_EQ(probe.missing(expected), (std::vector<NodeId>{NodeId{3}}));
  EXPECT_EQ(probe.duplicated(), (std::vector<NodeId>{NodeId{2}}));
  EXPECT_FALSE(probe.exactly_once(expected));
}

TEST(DataProbeTest, ExactlyOnceHappyPath) {
  DataProbe probe{1};
  probe.on_data(NodeId{1}, data_packet(1), 1.0);
  probe.on_data(NodeId{2}, data_packet(1), 1.0);
  EXPECT_TRUE(probe.exactly_once({NodeId{1}, NodeId{2}}));
}

TEST(DataProbeTest, IgnoresDeliveriesOfOtherProbes) {
  DataProbe probe{1};
  probe.on_data(NodeId{1}, data_packet(99), 1.0);
  EXPECT_TRUE(probe.deliveries().empty());
}

TEST(DataProbeTest, DropCounting) {
  DataProbe probe{1};
  probe.on_drop(NodeId{0}, data_packet(1), net::DropReason::kTtlExpired, 0);
  probe.on_drop(NodeId{0}, data_packet(2), net::DropReason::kTtlExpired, 0);
  EXPECT_EQ(probe.drops(), 1u);
}

TEST(RenderTreeTest, SimpleChain) {
  std::map<std::pair<NodeId, NodeId>, std::size_t> links;
  links[{NodeId{0}, NodeId{1}}] = 1;
  links[{NodeId{1}, NodeId{2}}] = 1;
  const std::string art = render_tree(links, NodeId{0});
  EXPECT_NE(art.find("n0\n"), std::string::npos);
  EXPECT_NE(art.find("+- n1"), std::string::npos);
  EXPECT_NE(art.find("  +- n2"), std::string::npos);
  EXPECT_EQ(art.find("unrooted"), std::string::npos);
}

TEST(RenderTreeTest, FanOutAndCopyCounts) {
  std::map<std::pair<NodeId, NodeId>, std::size_t> links;
  links[{NodeId{0}, NodeId{1}}] = 2;  // duplicated link
  links[{NodeId{0}, NodeId{2}}] = 1;
  const std::string art = render_tree(links, NodeId{0});
  EXPECT_NE(art.find("+- n1 (x2)"), std::string::npos);
  EXPECT_NE(art.find("+- n2"), std::string::npos);
}

TEST(RenderTreeTest, UnrootedLinksListed) {
  std::map<std::pair<NodeId, NodeId>, std::size_t> links;
  links[{NodeId{0}, NodeId{1}}] = 1;
  links[{NodeId{7}, NodeId{8}}] = 1;  // disconnected from root 0
  const std::string art = render_tree(links, NodeId{0});
  EXPECT_NE(art.find("unrooted links:"), std::string::npos);
  EXPECT_NE(art.find("n7->n8"), std::string::npos);
}

TEST(RenderTreeTest, EmptyTreeIsJustTheRoot) {
  const std::string art = render_tree({}, NodeId{3});
  EXPECT_EQ(art, "n3\n");
}

}  // namespace
}  // namespace hbh::metrics
