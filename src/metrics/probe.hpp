// Measurement probes for the paper's two metrics (§4):
//
//  * tree cost  — "the number of copies of the same packet that are
//    transmitted in the network links": a PacketTap counting every link
//    transmission of data packets carrying the probe id;
//  * receiver delay — a DeliverySink recording, per receiver host, the
//    arrival time minus the source timestamp.
//
// The probe also audits delivery: every subscribed receiver must get the
// packet exactly once in a converged tree. render_tree() turns a measured
// per-link copy map into the indented ASCII tree the examples print.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mcast/common/membership.hpp"
#include "net/network.hpp"

namespace hbh::metrics {

class DataProbe : public net::PacketTap, public mcast::DeliverySink {
 public:
  explicit DataProbe(std::uint64_t probe_id) : probe_id_(probe_id) {}

  [[nodiscard]] std::uint64_t probe_id() const noexcept { return probe_id_; }

  // --- PacketTap ---
  void on_transmit(const net::Topology::Edge& edge, const net::Packet& packet,
                   Time now) override;
  void on_drop(NodeId at, const net::Packet& packet, net::DropReason reason,
               Time now) override;

  // --- DeliverySink ---
  void on_data(NodeId host, const net::Packet& packet, Time now) override;

  /// Tree cost: total data-packet link transmissions for this probe.
  [[nodiscard]] std::size_t link_copies() const noexcept {
    return link_copies_;
  }

  /// Per-directed-link copy counts — used to detect REUNITE's duplicate
  /// copies on a single link (Figure 3).
  [[nodiscard]] const std::map<std::pair<NodeId, NodeId>, std::size_t>&
  per_link() const noexcept {
    return per_link_;
  }

  /// Max copies observed on any single directed link (1 = RPF-clean).
  [[nodiscard]] std::size_t max_copies_on_a_link() const;

  /// Delivery delays per receiver host (one entry per delivered copy).
  [[nodiscard]] const std::map<NodeId, std::vector<Time>>& deliveries()
      const noexcept {
    return deliveries_;
  }

  /// Mean delay over first deliveries of the given hosts; receivers that
  /// never got the packet are skipped (see missing()).
  [[nodiscard]] double mean_delay(const std::vector<NodeId>& hosts) const;

  /// Hosts from `expected` that received nothing.
  [[nodiscard]] std::vector<NodeId> missing(
      const std::vector<NodeId>& expected) const;

  /// Hosts that received more than one copy.
  [[nodiscard]] std::vector<NodeId> duplicated() const;

  /// True iff every expected host got exactly one copy.
  [[nodiscard]] bool exactly_once(const std::vector<NodeId>& expected) const;

  [[nodiscard]] std::size_t drops() const noexcept { return drops_; }

 private:
  [[nodiscard]] bool matches(const net::Packet& packet) const;

  std::uint64_t probe_id_;
  std::size_t link_copies_ = 0;
  std::size_t drops_ = 0;
  std::map<std::pair<NodeId, NodeId>, std::size_t> per_link_;
  std::map<NodeId, std::vector<Time>> deliveries_;
};

/// Renders a measured distribution tree (Measurement::per_link) as an
/// indented ASCII tree rooted at `root`. Links not reachable from the root
/// (shouldn't happen in a converged tree) are listed separately.
[[nodiscard]] std::string render_tree(
    const std::map<std::pair<NodeId, NodeId>, std::size_t>& per_link,
    NodeId root);

}  // namespace hbh::metrics
