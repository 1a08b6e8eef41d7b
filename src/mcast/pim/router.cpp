#include "mcast/pim/router.hpp"

#include <cassert>

#include "util/log.hpp"

namespace hbh::mcast::pim {

using net::Packet;
using net::PacketType;

std::vector<NodeId> PimRouter::oifs(const net::Channel& ch) const {
  std::vector<NodeId> out;
  const auto it = groups_.find(ch);
  if (it == groups_.end()) return out;
  for (const auto& [neighbor, entry] : it->second.oifs) {
    if (!entry.dead(simulator().now())) out.push_back(neighbor);
  }
  return out;
}

PimRouter::GroupMap::iterator PimRouter::purge(
    const net::Channel& ch, const net::TraceContext& ctx) {
  const auto it = groups_.find(ch);
  if (it == groups_.end()) return it;
  const bool tracing = ctx.active() && net().trace_hook() != nullptr;
  auto& oifs = it->second.oifs;
  bool changed = false;
  for (auto e = oifs.begin(); e != oifs.end();) {
    if (e->second.dead(now())) {
      if (tracing) trace_instant(ctx, "evict", ch);
      e = oifs.erase(e);
      changed = true;
    } else {
      e = std::next(e);
    }
  }
  if (changed) note_table_mutation();
  if (!oifs.empty()) return it;
  groups_.erase(it);
  return groups_.end();
}

void PimRouter::handle(Packet&& packet, NodeId from) {
  switch (packet.type) {
    case PacketType::kPimJoin:
      on_join(std::move(packet), from);
      return;
    case PacketType::kPimPrune:
      on_prune(std::move(packet), from);
      return;
    case PacketType::kData:
      on_data(std::move(packet), from);
      return;
    case PacketType::kJoin:
    case PacketType::kTree:
    case PacketType::kFusion:
      net::ProtocolAgent::handle(std::move(packet), from);
      return;
  }
}

void PimRouter::on_prune(Packet&& packet, NodeId from) {
  const net::Channel ch = packet.channel;
  const auto it = purge(ch, packet.trace);
  if (it == groups_.end()) {
    // No local state (already expired): let the prune keep travelling so
    // upstream state still tears down.
    if (packet.dst != self_addr()) forward(std::move(packet));
    return;
  }
  if (!from.valid()) return;
  // Explicit fast leave: tear down the oif the prune arrived on. If other
  // receivers share that oif, their next periodic join (<= one period)
  // re-installs it — the standard PIM prune-override compromise.
  if (it->second.oifs.erase(from) != 0) {
    trace_instant(packet.trace, "oif-prune", ch, packet.pim_join().receiver);
    note_table_mutation();
  }
  if (it->second.oifs.empty()) {
    groups_.erase(it);
    // The branch below us is gone entirely: keep pruning upstream unless
    // we are the tree root (the prune's addressee).
    if (packet.dst != self_addr()) forward(std::move(packet));
  }
  HBH_LOG(LogLevel::kTrace, to_string(self()), " PIM pruned oif ",
          to_string(from), " for ", ch.to_string());
}

void PimRouter::on_join(Packet&& packet, NodeId from) {
  const net::Channel ch = packet.channel;
  auto group = purge(ch, packet.trace);
  if (!from.valid()) {
    // Self-originated (shouldn't happen for routers); just forward.
    forward(std::move(packet));
    return;
  }
  if (group == groups_.end()) group = groups_.try_emplace(ch).first;
  GroupState& st = group->second;
  st.root = packet.pim_join().root;
  auto [it, inserted] = st.oifs.try_emplace(from, config_, now());
  if (!inserted) it->second.refresh(config_, now());
  if (inserted) {
    trace_instant(packet.trace, "oif-install", ch, packet.pim_join().receiver);
    note_table_mutation();
    HBH_LOG(LogLevel::kTrace, to_string(self()), " PIM oif += ",
            to_string(from), " for ", ch.to_string());
  }
  if (packet.dst == self_addr()) return;  // we are the root (RP) — stop
  forward(std::move(packet));             // keep travelling toward the root
}

void PimRouter::replicate(GroupMap::iterator group, const Packet& packet,
                          NodeId skip) {
  if (group == groups_.end()) return;
  for (const auto& [neighbor, entry] : group->second.oifs) {
    if (neighbor == skip || entry.dead(now())) continue;
    net().send_direct(self(), neighbor, Packet{packet});  // one copy per oif
  }
}

void PimRouter::on_data(Packet&& packet, NodeId from) {
  const net::Channel ch = packet.channel;
  const auto group = purge(ch, packet.trace);
  if (packet.data().encapsulated && packet.dst == self_addr()) {
    // We are the RP: decapsulate the register-tunnelled packet and inject
    // it into the shared tree (group-addressed from here on).
    Packet decap = packet;
    decap.data().encapsulated = false;
    decap.dst = ch.group.addr();
    replicate(group, decap, kNoNode);
    return;
  }
  if (packet.dst == ch.group.addr()) {
    // Group-addressed data travelling down the tree: RPF replication to
    // all oifs except the one it arrived on.
    replicate(group, packet, from);
    return;
  }
  // Unicast transit (e.g. register tunnel S->RP passing through).
  net::ProtocolAgent::handle(std::move(packet), from);
}

double rp_delay_score(const routing::UnicastRouting& routes,
                      const std::vector<NodeId>& routers, NodeId source,
                      NodeId candidate) {
  const auto& topo = routes.topology();
  // The route other -> candidate, as candidate, ..., other: the parent
  // chain of other's SPF walked back from the candidate. Reused across
  // pairs and calls, so a warm search allocates nothing.
  thread_local std::vector<NodeId> chain;
  double score = routes.path_delay(source, candidate);  // register leg
  double down = 0;
  std::size_t n = 0;
  for (const NodeId other : routers) {
    if (other == candidate) continue;
    // Shared-tree data path to `other`: the reverse of other->rp,
    // traversed in the data direction. Delays are summed from other's
    // end, hop by hop, as along path(other, candidate).
    Time delay = 0;
    if (routes.reachable(other, candidate)) {
      const routing::SpfResult& tree = routes.spf(other);
      chain.clear();
      for (NodeId at = candidate; at.valid(); at = tree.parent[at.index()]) {
        chain.push_back(at);
      }
      for (std::size_t i = chain.size() - 1; i > 0; --i) {
        const auto link = topo.find_link(chain[i - 1], chain[i]);
        assert(link.has_value());
        delay += topo.edge(*link).attrs.delay;
      }
    }
    down += delay;
    ++n;
  }
  if (n != 0) score += down / static_cast<double>(n);
  return score;
}

NodeId choose_rp_delay_aware(const routing::UnicastRouting& routes,
                             const std::vector<NodeId>& routers,
                             NodeId source) {
  assert(!routers.empty());
  NodeId best = kNoNode;
  double best_score = routing::kUnreachable;
  for (const NodeId candidate : routers) {
    const double score = rp_delay_score(routes, routers, source, candidate);
    if (score < best_score) {
      best_score = score;
      best = candidate;
    }
  }
  return best;
}

NodeId choose_rp(const routing::UnicastRouting& routes,
                 const std::vector<NodeId>& routers) {
  assert(!routers.empty());
  NodeId best = kNoNode;
  double best_total = routing::kUnreachable;
  for (const NodeId candidate : routers) {
    double total = 0;
    for (const NodeId other : routers) {
      if (other == candidate) continue;
      total += routes.distance(candidate, other);
    }
    if (total < best_total) {
      best_total = total;
      best = candidate;
    }
  }
  return best;
}

}  // namespace hbh::mcast::pim
