// Fabric-level telemetry tap.
//
// NetworkStatsTap plugs into the Network's PacketTap seam and feeds a
// Registry with per-packet-type transmission counts, honest wire-encoded
// byte counts, per-reason drop counts, and a packet-size histogram. All
// counters are resolved once at construction, so the per-packet cost is a
// handful of pointer-indirect increments (and exactly one branch each when
// the registry is disabled).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "metrics/registry.hpp"
#include "net/network.hpp"

namespace hbh::metrics {

/// Bucket bounds (time units) for the `net.queue_delay` histogram. Shared
/// with benches that read the histogram back, so a find-or-create from
/// either side resolves to identical buckets.
[[nodiscard]] std::vector<double> queue_delay_bounds();

class NetworkStatsTap : public net::PacketTap {
 public:
  explicit NetworkStatsTap(Registry& registry);

  void on_transmit(const net::Topology::Edge& edge, const net::Packet& packet,
                   Time now) override;
  void on_drop(NodeId at, const net::Packet& packet, net::DropReason reason,
               Time now) override;
  void on_queue(const net::Topology::Edge& edge, const net::Packet& packet,
                Time wait, Time serialization, std::size_t depth,
                Time now) override;

 private:
  /// Per-directed-link occupancy instruments, resolved on first admission.
  struct QueueGauges {
    Gauge* high_water = nullptr;
    Counter* admitted = nullptr;
    std::size_t high_water_seen = 0;
  };

  Registry& registry_;
  std::array<Counter*, net::kPacketTypeCount> tx_{};
  std::array<Counter*, net::kPacketTypeCount> tx_bytes_{};
  Counter* drops_;
  // Per-reason drop counters, registered on a reason's first drop so a
  // drop-free run reports only the `net.drops` total.
  std::array<Counter*, net::kDropReasonCount> drops_by_reason_{};
  Histogram* packet_bytes_;
  // Created lazily on the first queue admission: an uncapacitated run
  // never registers queue metrics, keeping its report byte-identical.
  Histogram* queue_delay_ = nullptr;
  Histogram* queue_wait_ = nullptr;
  std::unordered_map<std::uint64_t, QueueGauges> queue_gauges_;
};

}  // namespace hbh::metrics
