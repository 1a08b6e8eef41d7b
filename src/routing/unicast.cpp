#include "routing/unicast.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "util/profiler.hpp"

namespace hbh::routing {

UnicastRouting::UnicastRouting(const net::Topology& topo, MetricFn metric)
    : topo_(topo),
      metric_(std::move(metric)),
      per_root_(topo.node_count()),
      computed_epoch_(topo.node_count(), 0) {}

const SpfResult& UnicastRouting::ensure(NodeId root) const {
  assert(topo_.contains(root));
  std::uint64_t& stamp = computed_epoch_[root.index()];
  if (stamp != epoch_) {
    HBH_PHASE("spf");
    dijkstra_into(topo_, root, metric_, per_root_[root.index()], scratch_);
    stamp = epoch_;
    ++spf_runs_;
  }
  return per_root_[root.index()];
}

NodeId UnicastRouting::next_hop(NodeId from, NodeId to) const {
  assert(topo_.contains(from) && topo_.contains(to));
  return ensure(from).first_hop[to.index()];
}

LinkId UnicastRouting::next_link(NodeId from, NodeId to) const {
  assert(topo_.contains(from) && topo_.contains(to));
  return ensure(from).first_link[to.index()];
}

double UnicastRouting::distance(NodeId from, NodeId to) const {
  assert(topo_.contains(from) && topo_.contains(to));
  return ensure(from).dist[to.index()];
}

Time UnicastRouting::path_delay(NodeId from, NodeId to) const {
  assert(topo_.contains(from) && topo_.contains(to));
  return ensure(from).delay[to.index()];
}

std::vector<NodeId> UnicastRouting::path(NodeId from, NodeId to) const {
  assert(topo_.contains(from) && topo_.contains(to));
  std::vector<NodeId> nodes;
  if (from == to) {
    nodes.push_back(from);
    return nodes;
  }
  if (!reachable(from, to)) return nodes;  // empty: no route
  // Walk the parent chain of the SPF rooted at `from` back from `to`.
  const SpfResult& tree = ensure(from);
  for (NodeId at = to; at.valid(); at = tree.parent[at.index()]) {
    nodes.push_back(at);
  }
  std::reverse(nodes.begin(), nodes.end());
  assert(nodes.front() == from && nodes.back() == to);
  return nodes;
}

const SpfResult& UnicastRouting::spf(NodeId root) const {
  assert(topo_.contains(root));
  return ensure(root);
}

AsymmetryReport measure_asymmetry(const UnicastRouting& routes) {
  AsymmetryReport report;
  const std::size_t n = routes.topology().node_count();
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const NodeId na{a};
      const NodeId nb{b};
      if (!routes.reachable(na, nb) || !routes.reachable(nb, na)) continue;
      ++report.ordered_pairs;
      // path(a,b) equals reverse(path(b,a)) iff the two parent chains
      // mirror each other: walking b -> a through a's tree, every hop
      // u -> p (p = parent_a(u)) must satisfy parent_b(p) == u. The chain
      // of matches forces b's tree to thread the exact reversed sequence,
      // so no path vectors need materializing (the old implementation
      // allocated two per ordered pair — O(n²·pathlen) allocations).
      const SpfResult& tree_a = routes.spf(na);
      const SpfResult& tree_b = routes.spf(nb);
      bool symmetric = true;
      for (NodeId u = nb; u != na;) {
        const NodeId p = tree_a.parent[u.index()];
        if (tree_b.parent[p.index()] != u) {
          symmetric = false;
          break;
        }
        u = p;
      }
      if (!symmetric) ++report.asymmetric_pairs;
      report.max_cost_skew =
          std::max(report.max_cost_skew,
                   std::abs(routes.distance(na, nb) - routes.distance(nb, na)));
    }
  }
  return report;
}

}  // namespace hbh::routing
