#include "routing/unicast.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

#include "util/profiler.hpp"

namespace hbh::routing {

namespace {

/// What a table depends on: every field Dijkstra reads from one edge.
/// Costs and delays compare by bit pattern, so "identical" is exact.
struct EdgeKey {
  NodeId from;
  NodeId to;
  std::uint64_t cost_bits;
  std::uint64_t delay_bits;
  bool up;

  explicit EdgeKey(const net::Topology::Edge& e)
      : from(e.from),
        to(e.to),
        cost_bits(std::bit_cast<std::uint64_t>(e.attrs.cost)),
        delay_bits(std::bit_cast<std::uint64_t>(e.attrs.delay)),
        up(e.up) {}

  bool operator==(const EdgeKey&) const = default;
};

/// This thread's last link-cost table and the topology it was built from.
/// One entry is enough: a cell's paired trials build their sessions back
/// to back on one thread.
struct Memo {
  std::size_t nodes = 0;
  std::vector<EdgeKey> edges;
  std::shared_ptr<const UnicastRouting::Table> table;

  [[nodiscard]] bool matches(const net::Topology& topo) const {
    if (!table || nodes != topo.node_count() ||
        edges.size() != topo.link_count()) {
      return false;
    }
    for (std::uint32_t i = 0; i < edges.size(); ++i) {
      if (!(edges[i] == EdgeKey{topo.edge(LinkId{i})})) return false;
    }
    return true;
  }

  void store(const net::Topology& topo,
             std::shared_ptr<const UnicastRouting::Table> built) {
    nodes = topo.node_count();
    edges.clear();
    for (std::uint32_t i = 0; i < topo.link_count(); ++i) {
      edges.emplace_back(topo.edge(LinkId{i}));
    }
    table = std::move(built);
  }
};

thread_local Memo t_memo;

std::shared_ptr<const UnicastRouting::Table> build_table(
    const net::Topology& topo, const MetricFn& metric) {
  HBH_PHASE("spf");
  auto table = std::make_shared<UnicastRouting::Table>(topo.node_count());
  DijkstraScratch scratch;
  for (std::uint32_t r = 0; r < table->size(); ++r) {
    dijkstra_into(topo, NodeId{r}, metric, (*table)[r], scratch);
  }
  return table;
}

}  // namespace

UnicastRouting::UnicastRouting(const net::Topology& topo) : topo_(topo) {
  rebuild();
}

UnicastRouting::UnicastRouting(const net::Topology& topo, MetricFn metric)
    : topo_(topo), metric_(std::move(metric)) {
  assert(metric_);
  rebuild();
}

void UnicastRouting::rebuild() const {
  if (!metric_ && t_memo.matches(topo_)) {
    table_ = t_memo.table;
    return;
  }
  table_ = build_table(topo_, metric_ ? metric_ : cost_metric());
  spf_runs_ += topo_.node_count();
  if (!metric_) t_memo.store(topo_, table_);
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
  const SpfResult& tree = spf(from);
  for (NodeId at = to; at.valid(); at = tree.parent[at.index()]) {
    nodes.push_back(at);
  }
  std::reverse(nodes.begin(), nodes.end());
  assert(nodes.front() == from && nodes.back() == to);
  return nodes;
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
