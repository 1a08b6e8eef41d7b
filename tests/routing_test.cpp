// Unit tests for Dijkstra SPF, all-pairs unicast routing, and the
// asymmetry analysis used throughout the paper reproduction.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/topology.hpp"
#include "routing/dijkstra.hpp"
#include "routing/unicast.hpp"
#include "topo/builders.hpp"
#include "topo/random.hpp"
#include "util/rng.hpp"

namespace hbh::routing {
namespace {

using net::LinkAttrs;
using net::Topology;

// A 4-node diamond:   0 --1-- 1 --1-- 3
//                      \--5-- 2 --1--/
Topology diamond() {
  Topology t;
  for (int i = 0; i < 4; ++i) t.add_node();
  t.add_duplex(NodeId{0}, NodeId{1}, LinkAttrs{1, 1});
  t.add_duplex(NodeId{1}, NodeId{3}, LinkAttrs{1, 1});
  t.add_duplex(NodeId{0}, NodeId{2}, LinkAttrs{5, 5});
  t.add_duplex(NodeId{2}, NodeId{3}, LinkAttrs{1, 1});
  return t;
}

TEST(DijkstraTest, PicksCheapestPath) {
  const Topology t = diamond();
  const SpfResult spf = dijkstra(t, NodeId{0});
  EXPECT_DOUBLE_EQ(spf.dist[3], 2.0);           // via node 1
  EXPECT_EQ(spf.parent[3], NodeId{1});
  EXPECT_EQ(spf.first_hop[3], NodeId{1});
  EXPECT_DOUBLE_EQ(spf.dist[2], 3.0);           // 0->1->3->2 beats direct 5
  EXPECT_EQ(spf.first_hop[2], NodeId{1});
}

TEST(DijkstraTest, RootHasZeroDistanceAndNoParent) {
  const Topology t = diamond();
  const SpfResult spf = dijkstra(t, NodeId{0});
  EXPECT_DOUBLE_EQ(spf.dist[0], 0.0);
  EXPECT_EQ(spf.parent[0], kNoNode);
  EXPECT_EQ(spf.first_hop[0], kNoNode);
}

TEST(DijkstraTest, UnreachableNodesAreInfinite) {
  Topology t;
  t.add_node();
  t.add_node();
  const SpfResult spf = dijkstra(t, NodeId{0});
  EXPECT_FALSE(spf.reachable(NodeId{1}));
  EXPECT_EQ(spf.dist[1], kUnreachable);
}

TEST(DijkstraTest, RespectsEdgeDirection) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  t.add_link(a, b, LinkAttrs{1, 1});
  EXPECT_TRUE(dijkstra(t, a).reachable(b));
  EXPECT_FALSE(dijkstra(t, b).reachable(a));
}

TEST(DijkstraTest, DelayAccumulatesAlongChosenPath) {
  Topology t;
  for (int i = 0; i < 3; ++i) t.add_node();
  // cost favors 0->1->2; delays differ from costs.
  t.add_link(NodeId{0}, NodeId{1}, LinkAttrs{1, 10});
  t.add_link(NodeId{1}, NodeId{2}, LinkAttrs{1, 20});
  t.add_link(NodeId{0}, NodeId{2}, LinkAttrs{5, 1});
  const SpfResult spf = dijkstra(t, NodeId{0});
  EXPECT_DOUBLE_EQ(spf.dist[2], 2.0);
  EXPECT_DOUBLE_EQ(spf.delay[2], 30.0);  // delay of the *cost-chosen* path
}

TEST(DijkstraTest, CustomMetricChangesRoutes) {
  Topology t;
  for (int i = 0; i < 3; ++i) t.add_node();
  t.add_link(NodeId{0}, NodeId{1}, LinkAttrs{1, 10});
  t.add_link(NodeId{1}, NodeId{2}, LinkAttrs{1, 20});
  t.add_link(NodeId{0}, NodeId{2}, LinkAttrs{5, 1});
  const SpfResult by_delay = dijkstra(t, NodeId{0}, delay_metric());
  EXPECT_EQ(by_delay.first_hop[2], NodeId{2});  // direct link wins on delay
  EXPECT_DOUBLE_EQ(by_delay.delay[2], 1.0);
}

TEST(DijkstraTest, DeterministicOnEqualCostPaths) {
  Topology t;
  for (int i = 0; i < 4; ++i) t.add_node();
  t.add_duplex(NodeId{0}, NodeId{1}, LinkAttrs{1, 1});
  t.add_duplex(NodeId{0}, NodeId{2}, LinkAttrs{1, 1});
  t.add_duplex(NodeId{1}, NodeId{3}, LinkAttrs{1, 1});
  t.add_duplex(NodeId{2}, NodeId{3}, LinkAttrs{1, 1});
  const SpfResult a = dijkstra(t, NodeId{0});
  const SpfResult b = dijkstra(t, NodeId{0});
  EXPECT_EQ(a.first_hop[3], b.first_hop[3]);
  EXPECT_EQ(a.parent[3], b.parent[3]);
}

TEST(UnicastRoutingTest, NextHopChainsReachDestination) {
  const Topology t = diamond();
  const UnicastRouting routes{t};
  NodeId at{0};
  int hops = 0;
  while (at != NodeId{3}) {
    at = routes.next_hop(at, NodeId{3});
    ASSERT_TRUE(at.valid());
    ASSERT_LE(++hops, 4);
  }
  EXPECT_EQ(hops, 2);
}

TEST(UnicastRoutingTest, PathEndpointsInclusive) {
  const Topology t = diamond();
  const UnicastRouting routes{t};
  const auto p = routes.path(NodeId{0}, NodeId{3});
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.front(), NodeId{0});
  EXPECT_EQ(p[1], NodeId{1});
  EXPECT_EQ(p.back(), NodeId{3});
}

TEST(UnicastRoutingTest, PathToSelfIsSingleton) {
  const Topology t = diamond();
  const UnicastRouting routes{t};
  const auto p = routes.path(NodeId{2}, NodeId{2});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], NodeId{2});
  EXPECT_EQ(routes.next_hop(NodeId{2}, NodeId{2}), kNoNode);
}

TEST(UnicastRoutingTest, PathToUnreachableIsEmpty) {
  Topology t;
  t.add_node();
  t.add_node();
  const UnicastRouting routes{t};
  EXPECT_TRUE(routes.path(NodeId{0}, NodeId{1}).empty());
  EXPECT_FALSE(routes.reachable(NodeId{0}, NodeId{1}));
}

TEST(UnicastRoutingTest, AsymmetricCostsYieldAsymmetricRoutes) {
  // 0->1 direct is cheap, 1->0 direct is expensive so 1 routes via 2.
  Topology t;
  for (int i = 0; i < 3; ++i) t.add_node();
  t.add_duplex(NodeId{0}, NodeId{1}, LinkAttrs{1, 1}, LinkAttrs{10, 10});
  t.add_duplex(NodeId{1}, NodeId{2}, LinkAttrs{2, 2}, LinkAttrs{2, 2});
  t.add_duplex(NodeId{2}, NodeId{0}, LinkAttrs{2, 2}, LinkAttrs{2, 2});
  const UnicastRouting routes{t};
  const auto fwd = routes.path(NodeId{0}, NodeId{1});
  const auto back = routes.path(NodeId{1}, NodeId{0});
  ASSERT_EQ(fwd.size(), 2u);   // 0 -> 1 direct
  ASSERT_EQ(back.size(), 3u);  // 1 -> 2 -> 0
  EXPECT_DOUBLE_EQ(routes.distance(NodeId{0}, NodeId{1}), 1.0);
  EXPECT_DOUBLE_EQ(routes.distance(NodeId{1}, NodeId{0}), 4.0);
}

TEST(UnicastRoutingTest, PathDelayMatchesManualSum) {
  const Topology t = diamond();
  const UnicastRouting routes{t};
  EXPECT_DOUBLE_EQ(routes.path_delay(NodeId{0}, NodeId{3}), 2.0);
  EXPECT_DOUBLE_EQ(routes.path_delay(NodeId{0}, NodeId{2}), 3.0);
}

TEST(UnicastRoutingTest, HopByHopConsistency) {
  // Property: for every pair, next_hop at each node along the path agrees
  // with the path itself (destination-based forwarding is loop-free).
  const Topology t = diamond();
  const UnicastRouting routes{t};
  for (std::uint32_t a = 0; a < t.node_count(); ++a) {
    for (std::uint32_t b = 0; b < t.node_count(); ++b) {
      if (a == b) continue;
      const auto p = routes.path(NodeId{a}, NodeId{b});
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        EXPECT_EQ(routes.next_hop(p[i], NodeId{b}), p[i + 1]);
      }
    }
  }
}

TEST(UnicastRoutingTest, NextLinkIsTheEdgeToNextHop) {
  // The cached outgoing edge must be exactly the one find_link names for
  // (from, next_hop), before and after a link failure reroutes.
  Topology t = diamond();
  UnicastRouting routes{t};
  const auto check_all = [&] {
    for (std::uint32_t a = 0; a < t.node_count(); ++a) {
      for (std::uint32_t b = 0; b < t.node_count(); ++b) {
        const NodeId next = routes.next_hop(NodeId{a}, NodeId{b});
        const LinkId link = routes.next_link(NodeId{a}, NodeId{b});
        if (!next.valid()) {
          EXPECT_EQ(link, kNoLink) << a << "->" << b;
          continue;
        }
        EXPECT_EQ(link, t.find_link(NodeId{a}, next)) << a << "->" << b;
      }
    }
  };
  check_all();
  t.set_link_up(*t.find_link(NodeId{0}, NodeId{1}), false);
  routes.invalidate();
  EXPECT_EQ(routes.next_hop(NodeId{0}, NodeId{3}), NodeId{2});
  check_all();
}

// Points this thread's route-table memo at a topology no test below uses,
// so each test starts from a known memo state whatever ran before it.
void reset_memo() {
  Topology other;
  for (int i = 0; i < 2; ++i) other.add_node();
  other.add_link(NodeId{1}, NodeId{0}, LinkAttrs{7, 7});
  const UnicastRouting flush{other};
}

void expect_same_routes(const SpfResult& got, const SpfResult& want) {
  EXPECT_EQ(got.root, want.root);
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(got.parent, want.parent);
  EXPECT_EQ(got.first_hop, want.first_hop);
  EXPECT_EQ(got.first_link, want.first_link);
  EXPECT_EQ(got.delay, want.delay);
}

TEST(UnicastRoutingTest, IdenticalTopologiesShareOneTable) {
  reset_memo();
  const Topology t1 = diamond();
  const Topology t2 = diamond();  // a distinct object, identical content
  const UnicastRouting first{t1};
  EXPECT_EQ(first.spf_computations(), t1.node_count());  // eager: all roots
  const UnicastRouting second{t2};
  EXPECT_EQ(second.spf_computations(), 0u);
  for (std::uint32_t r = 0; r < t1.node_count(); ++r) {
    EXPECT_EQ(&first.spf(NodeId{r}), &second.spf(NodeId{r}));
  }
  EXPECT_EQ(second.next_hop(NodeId{0}, NodeId{3}), NodeId{1});
}

TEST(UnicastRoutingTest, AnyKeyDifferenceBuildsItsOwnTable) {
  // Each variant differs from the diamond in exactly one part of the memo
  // key: one edge's cost, delay or up flag, the edge order, or the node
  // count. None may reuse the diamond's table, and each must route its
  // own topology.
  std::vector<Topology> variants;
  {
    Topology t = diamond();
    const LinkId l = *t.find_link(NodeId{2}, NodeId{3});
    t.set_cost_delay(l, 2, t.edge(l).attrs.delay);
    variants.push_back(t);
  }
  {
    Topology t = diamond();
    const LinkId l = *t.find_link(NodeId{2}, NodeId{3});
    t.set_cost_delay(l, t.edge(l).attrs.cost, 9);
    variants.push_back(t);
  }
  {
    Topology t = diamond();
    t.set_link_up(*t.find_link(NodeId{3}, NodeId{2}), false);
    variants.push_back(t);
  }
  {
    Topology t;  // the diamond's edges, inserted in another order
    for (int i = 0; i < 4; ++i) t.add_node();
    t.add_duplex(NodeId{2}, NodeId{3}, LinkAttrs{1, 1});
    t.add_duplex(NodeId{0}, NodeId{2}, LinkAttrs{5, 5});
    t.add_duplex(NodeId{1}, NodeId{3}, LinkAttrs{1, 1});
    t.add_duplex(NodeId{0}, NodeId{1}, LinkAttrs{1, 1});
    variants.push_back(t);
  }
  {
    Topology t = diamond();
    t.add_node();  // isolated: no edge changes
    variants.push_back(t);
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    reset_memo();
    const Topology base = diamond();
    const UnicastRouting shared{base};
    const UnicastRouting routes{variants[i]};
    EXPECT_EQ(routes.spf_computations(), variants[i].node_count())
        << "variant " << i;
    EXPECT_NE(&routes.spf(NodeId{0}), &shared.spf(NodeId{0}))
        << "variant " << i;
    for (std::uint32_t r = 0; r < variants[i].node_count(); ++r) {
      expect_same_routes(routes.spf(NodeId{r}), dijkstra(variants[i], NodeId{r}));
    }
  }
}

TEST(UnicastRoutingTest, CustomMetricTableIsPrivate) {
  reset_memo();
  const Topology t = diamond();
  const UnicastRouting by_cost{t};
  const UnicastRouting by_metric{t, cost_metric()};
  EXPECT_EQ(by_metric.spf_computations(), t.node_count());
  EXPECT_NE(&by_metric.spf(NodeId{0}), &by_cost.spf(NodeId{0}));
  // The private table did not displace the shared one from the memo.
  const UnicastRouting again{t};
  EXPECT_EQ(again.spf_computations(), 0u);
  EXPECT_EQ(&again.spf(NodeId{0}), &by_cost.spf(NodeId{0}));
}

TEST(UnicastRoutingTest, RoutesStayStaleUntilInvalidate) {
  reset_memo();
  Topology t = diamond();
  UnicastRouting routes{t};
  // Take the cheap 0->1 edge down. Until invalidate(), every root keeps
  // the routes of the topology the table was built from.
  t.set_link_up(*t.find_link(NodeId{0}, NodeId{1}), false);
  EXPECT_DOUBLE_EQ(routes.distance(NodeId{0}, NodeId{3}), 2.0);  // via 1
  EXPECT_EQ(routes.next_hop(NodeId{0}, NodeId{1}), NodeId{1});
  EXPECT_EQ(routes.spf_computations(), t.node_count());

  routes.invalidate();
  EXPECT_DOUBLE_EQ(routes.distance(NodeId{0}, NodeId{3}), 6.0);  // via 2
  EXPECT_EQ(routes.spf_computations(), 2 * t.node_count());
}

TEST(UnicastRoutingTest, InvalidateOnOneSharerLeavesTheOtherUntouched) {
  reset_memo();
  const Topology kept = diamond();
  Topology changed = diamond();
  const UnicastRouting stays{kept};
  UnicastRouting moves{changed};
  const SpfResult* before = &stays.spf(NodeId{0});
  ASSERT_EQ(before, &moves.spf(NodeId{0}));

  changed.set_link_up(*changed.find_link(NodeId{0}, NodeId{1}), false);
  moves.invalidate();
  EXPECT_DOUBLE_EQ(moves.distance(NodeId{0}, NodeId{3}), 6.0);
  EXPECT_EQ(moves.spf_computations(), changed.node_count());

  EXPECT_EQ(&stays.spf(NodeId{0}), before);
  EXPECT_DOUBLE_EQ(stays.distance(NodeId{0}, NodeId{3}), 2.0);
  EXPECT_EQ(stays.next_hop(NodeId{0}, NodeId{3}), NodeId{1});
  EXPECT_EQ(stays.spf_computations(), kept.node_count());
}

TEST(UnicastRoutingTest, TableEqualsFreshDijkstraOnRandom50) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    reset_memo();
    Rng topo_rng{seed};
    topo::Scenario s = topo::make_random50(topo_rng);
    Rng cost_rng{seed * 7919};
    topo::randomize_costs(s.topo, cost_rng);
    const Topology copy = s.topo;
    const UnicastRouting built{s.topo};
    const UnicastRouting shared{copy};
    EXPECT_EQ(shared.spf_computations(), 0u);
    for (std::uint32_t r = 0; r < s.topo.node_count(); ++r) {
      const SpfResult fresh = dijkstra(s.topo, NodeId{r});
      expect_same_routes(built.spf(NodeId{r}), fresh);
      expect_same_routes(shared.spf(NodeId{r}), fresh);
    }
  }
}

TEST(AsymmetryTest, SymmetricTopologyHasNoAsymmetry) {
  const Topology t = diamond();
  const UnicastRouting routes{t};
  const auto report = measure_asymmetry(routes);
  EXPECT_EQ(report.asymmetric_pairs, 0u);
  EXPECT_DOUBLE_EQ(report.asymmetric_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(report.max_cost_skew, 0.0);
}

TEST(AsymmetryTest, DetectsAsymmetricPairs) {
  Topology t;
  for (int i = 0; i < 3; ++i) t.add_node();
  t.add_duplex(NodeId{0}, NodeId{1}, LinkAttrs{1, 1}, LinkAttrs{10, 10});
  t.add_duplex(NodeId{1}, NodeId{2}, LinkAttrs{2, 2});
  t.add_duplex(NodeId{2}, NodeId{0}, LinkAttrs{2, 2});
  const UnicastRouting routes{t};
  const auto report = measure_asymmetry(routes);
  EXPECT_GT(report.asymmetric_pairs, 0u);
  EXPECT_EQ(report.ordered_pairs, 6u);
  EXPECT_GT(report.max_cost_skew, 0.0);
}

TEST(AsymmetryTest, ParentChainCheckMatchesPathOracle) {
  // measure_asymmetry compares parent chains in place; its verdict per
  // ordered pair must equal the definitional path-vector comparison.
  Topology t;
  for (int i = 0; i < 5; ++i) t.add_node();
  t.add_duplex(NodeId{0}, NodeId{1}, LinkAttrs{1, 1}, LinkAttrs{10, 10});
  t.add_duplex(NodeId{1}, NodeId{2}, LinkAttrs{2, 2});
  t.add_duplex(NodeId{2}, NodeId{0}, LinkAttrs{2, 2});
  t.add_duplex(NodeId{2}, NodeId{3}, LinkAttrs{1, 1}, LinkAttrs{7, 7});
  t.add_duplex(NodeId{3}, NodeId{4}, LinkAttrs{1, 1});
  t.add_duplex(NodeId{4}, NodeId{0}, LinkAttrs{3, 3}, LinkAttrs{1, 1});
  const UnicastRouting routes{t};

  std::size_t oracle_asymmetric = 0;
  std::size_t oracle_pairs = 0;
  for (std::uint32_t a = 0; a < t.node_count(); ++a) {
    for (std::uint32_t b = a + 1; b < t.node_count(); ++b) {
      auto fwd = routes.path(NodeId{a}, NodeId{b});
      auto back = routes.path(NodeId{b}, NodeId{a});
      if (fwd.empty() || back.empty()) continue;
      oracle_pairs += 2;
      std::reverse(back.begin(), back.end());
      if (fwd != back) oracle_asymmetric += 2;
    }
  }

  const auto report = measure_asymmetry(routes);
  EXPECT_EQ(report.ordered_pairs, oracle_pairs);
  EXPECT_EQ(report.asymmetric_pairs, oracle_asymmetric);
  EXPECT_GT(report.asymmetric_pairs, 0u);
}

}  // namespace
}  // namespace hbh::routing
