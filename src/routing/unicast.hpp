// All-pairs unicast routing: the forwarding substrate every protocol uses.
//
// In the real Internet each router's FIB comes from its IGP; here we compute
// the equivalent — for every node, the next hop toward every destination —
// by running Dijkstra from each node over its outgoing edges. Routes are
// destination-based and hop-by-hop consistent (the next hop's route to the
// destination is the suffix of ours), so recursive-unicast forwarding
// behaves exactly as it would on real routers.
//
// The routes are one immutable table holding the SPF of every root,
// filled eagerly at construction from the topology as it is then. Routings
// built over an identical topology share the table: a thread-local
// one-entry memo, keyed by the node count and the exact edge list in LinkId
// order (from, to, cost, delay, up), hands the second routing the first
// one's table without running Dijkstra. The paired trials of one cell (the
// four protocols over the same randomized costs) thus compute their routes
// once. Only the default cost metric is shared; a routing built with its
// own MetricFn fills a private table.
//
// A topology change (link cost, link up/down) is signalled with
// invalidate(). The shared table itself is never touched: the routing drops
// its reference, and its next query builds (or finds in the memo) the table
// of the topology as it is then. Until invalidate(), routes stay those of
// the topology the table was built from, as an IGP that has not yet
// reconverged would keep them.
//
// An instance is confined to one thread, like the rest of the simulation
// substrate (the parallel experiment engine gives each cell's trials one
// worker). Tables are immutable once built, so a table reaching another
// thread through a copied reference is safe to read there.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/topology.hpp"
#include "routing/dijkstra.hpp"
#include "util/ids.hpp"

namespace hbh::routing {

class UnicastRouting {
 public:
  /// Routes the whole topology under the link-cost metric, sharing the
  /// table with this thread's last routing over an identical topology.
  explicit UnicastRouting(const net::Topology& topo);

  /// Routes under a custom metric, into a private (never shared) table.
  UnicastRouting(const net::Topology& topo, MetricFn metric);

  /// Next hop on the shortest path from->to; kNoNode if to is unreachable
  /// or from == to.
  [[nodiscard]] NodeId next_hop(NodeId from, NodeId to) const {
    return spf(from).first_hop[to.index()];
  }

  /// The directed edge from -> next_hop(from, to); kNoLink when next_hop
  /// is kNoNode. Lets the fabric transmit without a topology lookup.
  [[nodiscard]] LinkId next_link(NodeId from, NodeId to) const {
    return spf(from).first_link[to.index()];
  }

  /// Metric distance of the route from->to (kUnreachable if none).
  [[nodiscard]] double distance(NodeId from, NodeId to) const {
    return spf(from).dist[to.index()];
  }

  /// Propagation delay accumulated along the route from->to.
  [[nodiscard]] Time path_delay(NodeId from, NodeId to) const {
    return spf(from).delay[to.index()];
  }

  [[nodiscard]] bool reachable(NodeId from, NodeId to) const {
    return distance(from, to) < kUnreachable;
  }

  /// Full node sequence of the route, inclusive of both endpoints.
  [[nodiscard]] std::vector<NodeId> path(NodeId from, NodeId to) const;

  [[nodiscard]] const net::Topology& topology() const noexcept {
    return topo_;
  }

  /// The shortest-path tree rooted at `root` (routes root -> *). The
  /// reference is invalidated by invalidate().
  [[nodiscard]] const SpfResult& spf(NodeId root) const {
    assert(topo_.contains(root));
    if (!table_) rebuild();
    return (*table_)[root.index()];
  }

  /// Drops the table after a topology change (cost edit, link up/down);
  /// the next query rebuilds it from the current topology — the
  /// instantaneous-IGP-reconvergence model of Session::recompute_routes.
  /// Other routings sharing the old table keep their routes.
  void invalidate() noexcept { table_.reset(); }

  /// Dijkstra runs this routing performed: n per table it built, 0 when
  /// the table came from the memo.
  [[nodiscard]] std::uint64_t spf_computations() const noexcept {
    return spf_runs_;
  }

  /// One SpfResult per root, indexed by NodeId.
  using Table = std::vector<SpfResult>;

 private:
  /// Builds, or takes from the memo, the table of the current topology.
  void rebuild() const;

  const net::Topology& topo_;
  MetricFn metric_;  ///< empty: the shared link-cost metric
  // Rebuilt lazily after invalidate(); mutable because queries are
  // logically const.
  mutable std::shared_ptr<const Table> table_;
  mutable std::uint64_t spf_runs_ = 0;
};

/// Summary of how asymmetric a topology's routing is.
struct AsymmetryReport {
  std::size_t ordered_pairs = 0;      ///< pairs (a,b), a != b, both reachable
  std::size_t asymmetric_pairs = 0;   ///< path(a,b) != reverse(path(b,a))
  double max_cost_skew = 0.0;         ///< max |dist(a,b) - dist(b,a)|

  [[nodiscard]] double asymmetric_fraction() const {
    return ordered_pairs == 0
               ? 0.0
               : static_cast<double>(asymmetric_pairs) /
                     static_cast<double>(ordered_pairs);
  }
};

/// Measures routing asymmetry over all ordered node pairs (the statistic
/// the paper cites from Paxson's measurements, §2.3).
[[nodiscard]] AsymmetryReport measure_asymmetry(const UnicastRouting& routes);

}  // namespace hbh::routing
