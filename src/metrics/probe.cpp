#include "metrics/probe.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

namespace hbh::metrics {

bool DataProbe::matches(const net::Packet& packet) const {
  return packet.type == net::PacketType::kData &&
         packet.data().probe == probe_id_;
}

void DataProbe::on_transmit(const net::Topology::Edge& edge,
                            const net::Packet& packet, Time now) {
  (void)now;
  if (!matches(packet)) return;
  ++link_copies_;
  ++per_link_[{edge.from, edge.to}];
}

void DataProbe::on_drop(NodeId at, const net::Packet& packet,
                        net::DropReason reason, Time now) {
  (void)at, (void)reason, (void)now;
  if (matches(packet)) ++drops_;
}

void DataProbe::on_data(NodeId host, const net::Packet& packet, Time now) {
  if (!matches(packet)) return;
  deliveries_[host].push_back(now - packet.data().sent_at);
}

std::size_t DataProbe::max_copies_on_a_link() const {
  std::size_t best = 0;
  for (const auto& [link, count] : per_link_) best = std::max(best, count);
  return best;
}

double DataProbe::mean_delay(const std::vector<NodeId>& hosts) const {
  double total = 0;
  std::size_t n = 0;
  for (const NodeId host : hosts) {
    const auto it = deliveries_.find(host);
    if (it == deliveries_.end() || it->second.empty()) continue;
    total += it->second.front();
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

std::vector<NodeId> DataProbe::missing(
    const std::vector<NodeId>& expected) const {
  std::vector<NodeId> out;
  for (const NodeId host : expected) {
    const auto it = deliveries_.find(host);
    if (it == deliveries_.end() || it->second.empty()) out.push_back(host);
  }
  return out;
}

std::vector<NodeId> DataProbe::duplicated() const {
  std::vector<NodeId> out;
  for (const auto& [host, arrivals] : deliveries_) {
    if (arrivals.size() > 1) out.push_back(host);
  }
  return out;
}

bool DataProbe::exactly_once(const std::vector<NodeId>& expected) const {
  return missing(expected).empty() && duplicated().empty();
}

std::string render_tree(
    const std::map<std::pair<NodeId, NodeId>, std::size_t>& per_link,
    NodeId root) {
  std::map<NodeId, std::vector<std::pair<NodeId, std::size_t>>> children;
  std::set<std::pair<std::uint32_t, std::uint32_t>> rendered;
  for (const auto& [link, copies] : per_link) {
    children[link.first].emplace_back(link.second, copies);
  }

  std::ostringstream out;
  // Depth-first from the root. A node may appear multiple times if
  // several copies traverse it — render each child edge once.
  const std::function<void(NodeId, int)> walk = [&](NodeId at, int depth) {
    const auto it = children.find(at);
    if (it == children.end()) return;
    for (const auto& [child, copies] : it->second) {
      if (!rendered.insert({at.index(), child.index()}).second) continue;
      for (int i = 0; i < depth; ++i) out << "  ";
      out << "+- " << hbh::to_string(child);
      if (copies > 1) out << " (x" << copies << ")";
      out << '\n';
      walk(child, depth + 1);
    }
  };
  out << hbh::to_string(root) << '\n';
  walk(root, 1);

  // Any unrendered links are disconnected from the root (diagnostic aid).
  bool header = false;
  for (const auto& [link, copies] : per_link) {
    if (rendered.contains({link.first.index(), link.second.index()})) continue;
    if (!header) {
      out << "unrooted links:\n";
      header = true;
    }
    out << "  " << hbh::to_string(link.first) << "->"
        << hbh::to_string(link.second) << " (x" << copies << ")\n";
  }
  return out.str();
}

}  // namespace hbh::metrics
