// All-pairs unicast routing: the forwarding substrate every protocol uses.
//
// In the real Internet each router's FIB comes from its IGP; here we compute
// the equivalent — for every node, the next hop toward every destination —
// by running Dijkstra from each node over its outgoing edges. Routes are
// destination-based and hop-by-hop consistent (the next hop's route to the
// destination is the suffix of ours), so recursive-unicast forwarding
// behaves exactly as it would on real routers.
//
// SPFs are computed lazily per root: construction is O(1), and a root's
// tree is built on its first query (then cached). A topology change —
// link cost, link up/down — is signalled with invalidate(), which bumps
// the topology epoch; each root recomputes, into reused buffers, on its
// first query after the bump. Fault-heavy runs thus pay one Dijkstra per
// *queried* root per epoch instead of N up-front, and trials that touch
// only part of the topology never compute the rest.
//
// Like the rest of the simulation substrate, an instance is confined to
// one thread (the parallel experiment engine gives each trial its own
// Session and therefore its own UnicastRouting); the lazy cache mutates
// under const accessors and is not synchronized.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "routing/dijkstra.hpp"
#include "util/ids.hpp"

namespace hbh::routing {

class UnicastRouting {
 public:
  /// Prepares routing for the whole topology under `metric`. SPFs are
  /// computed on first use per root.
  explicit UnicastRouting(const net::Topology& topo,
                          MetricFn metric = cost_metric());

  /// Next hop on the shortest path from->to; kNoNode if to is unreachable
  /// or from == to.
  [[nodiscard]] NodeId next_hop(NodeId from, NodeId to) const;

  /// The directed edge from -> next_hop(from, to); kNoLink when next_hop
  /// is kNoNode. Lets the fabric transmit without a topology lookup.
  [[nodiscard]] LinkId next_link(NodeId from, NodeId to) const;

  /// Metric distance of the route from->to (kUnreachable if none).
  [[nodiscard]] double distance(NodeId from, NodeId to) const;

  /// Propagation delay accumulated along the route from->to.
  [[nodiscard]] Time path_delay(NodeId from, NodeId to) const;

  [[nodiscard]] bool reachable(NodeId from, NodeId to) const {
    return distance(from, to) < kUnreachable;
  }

  /// Full node sequence of the route, inclusive of both endpoints.
  [[nodiscard]] std::vector<NodeId> path(NodeId from, NodeId to) const;

  [[nodiscard]] const net::Topology& topology() const noexcept {
    return topo_;
  }

  /// The shortest-path tree rooted at `root` (routes root -> *). The
  /// reference is invalidated by invalidate() followed by a query.
  [[nodiscard]] const SpfResult& spf(NodeId root) const;

  /// Marks every cached SPF stale after a topology change (cost edit,
  /// link up/down). Roots recompute lazily on their next query — the
  /// instantaneous-IGP-reconvergence model of Session::recompute_routes
  /// without the O(N·Dijkstra) up-front cost per fault event.
  void invalidate() noexcept { ++epoch_; }

  /// Bumped by every invalidate(); diagnostic for tests and telemetry.
  [[nodiscard]] std::uint64_t topology_epoch() const noexcept {
    return epoch_;
  }

  /// Total Dijkstra runs so far — observability into the lazy cache.
  [[nodiscard]] std::uint64_t spf_computations() const noexcept {
    return spf_runs_;
  }

 private:
  /// Returns the up-to-date SPF for `root`, recomputing if stale.
  const SpfResult& ensure(NodeId root) const;

  const net::Topology& topo_;
  MetricFn metric_;
  std::uint64_t epoch_ = 1;
  // Lazy per-root cache; mutable because queries are logically const.
  mutable std::vector<SpfResult> per_root_;
  mutable std::vector<std::uint64_t> computed_epoch_;  ///< 0 = never built
  mutable DijkstraScratch scratch_;
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
