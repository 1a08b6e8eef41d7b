#include "metrics/net_stats.hpp"

#include "net/wire.hpp"

namespace hbh::metrics {

NetworkStatsTap::NetworkStatsTap(Registry& registry) : registry_(registry) {
  for (std::size_t i = 0; i < net::kPacketTypeCount; ++i) {
    const std::string suffix =
        net::to_string(static_cast<net::PacketType>(i));
    tx_[i] = &registry.counter("net.tx." + suffix);
    tx_bytes_[i] = &registry.counter("net.tx_bytes." + suffix);
  }
  drops_ = &registry.counter("net.drops");
  packet_bytes_ = &registry.histogram(
      "net.packet_bytes", {24, 32, 48, 64, 96, 128, 192, 256});
}

void NetworkStatsTap::on_transmit(const net::Topology::Edge& edge,
                                  const net::Packet& packet, Time now) {
  (void)edge, (void)now;
  const auto i = static_cast<std::size_t>(packet.type);
  const std::size_t bytes = net::encoded_size(packet);
  tx_[i]->inc();
  tx_bytes_[i]->inc(bytes);
  packet_bytes_->observe(static_cast<double>(bytes));
}

void NetworkStatsTap::on_drop(NodeId at, const net::Packet& packet,
                              net::DropReason reason, Time now) {
  (void)at, (void)packet, (void)now;
  drops_->inc();
  Counter*& by_reason = drops_by_reason_[static_cast<std::size_t>(reason)];
  if (by_reason == nullptr) {
    by_reason = &registry_.counter("net.drops." +
                                   std::string{net::to_string(reason)});
  }
  by_reason->inc();
}

std::vector<double> queue_delay_bounds() {
  // Serialization of a ~40-byte packet at the capacities the congestion
  // ablation sweeps is O(0.1..1) time units; a full default queue (64)
  // backs up to O(100). Log-ish spacing covers both ends.
  return {0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
}

void NetworkStatsTap::on_queue(const net::Topology::Edge& edge,
                               const net::Packet& packet, Time wait,
                               Time serialization, std::size_t depth,
                               Time now) {
  (void)packet, (void)now;
  if (queue_delay_ == nullptr) {
    queue_delay_ = &registry_.histogram("net.queue_delay", queue_delay_bounds());
    queue_wait_ = &registry_.histogram("net.queue_wait", queue_delay_bounds());
  }
  queue_delay_->observe(wait + serialization);
  queue_wait_->observe(wait);
  // Per-directed-link occupancy gauges (lazily registered, pointer-cached
  // after the first admission so the steady-state cost is one hash probe).
  const std::uint64_t key =
      (static_cast<std::uint64_t>(edge.from.index()) << 32) |
      edge.to.index();
  QueueGauges& g = queue_gauges_[key];
  if (g.high_water == nullptr) {
    const std::string link =
        to_string(edge.from) + "-" + to_string(edge.to);
    g.high_water = &registry_.gauge("net.queue.hwm." + link);
    g.admitted = &registry_.counter("net.queue.admitted." + link);
  }
  g.admitted->inc();
  if (depth > g.high_water_seen) {
    g.high_water_seen = depth;
    g.high_water->set(static_cast<double>(depth));
  }
}

}  // namespace hbh::metrics
