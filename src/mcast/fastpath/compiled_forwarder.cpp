#include "mcast/fastpath/compiled_forwarder.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <typeinfo>
#include <utility>

#include "mcast/common/membership.hpp"
#include "mcast/hbh/router.hpp"
#include "mcast/pim/router.hpp"
#include "mcast/reunite/router.hpp"
#include "util/log.hpp"

namespace hbh::fastpath {

namespace {

constexpr Time kNeverInvalid = std::numeric_limits<Time>::infinity();

[[nodiscard]] std::uint64_t mono_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

CompiledForwarder::CompiledForwarder(net::Network& net) : net_(&net) {
  blocks_.resize(net.topology().node_count());
  net_->set_fastpath(this);
  net_->set_mutation_listener(this);
}

CompiledForwarder::~CompiledForwarder() {
  if (net_->fastpath() == this) net_->set_fastpath(nullptr);
  if (net_->mutation_listener() == this) net_->set_mutation_listener(nullptr);
}

void CompiledForwarder::on_table_mutation(NodeId node) {
  blocks_[node.index()].dirty = true;
  ++stats_.invalidations;
}

void CompiledForwarder::invalidate_all() noexcept {
  ++epoch_;
  ++stats_.invalidations;
}

std::uint16_t CompiledForwarder::channel_slot(const net::Channel& ch) {
  return slots_.try_emplace(ch, static_cast<std::uint16_t>(slots_.size()))
      .first->second;
}

bool CompiledForwarder::on_deliver(NodeId to, NodeId from,
                                   net::Packet& packet) {
  const bool timing = prof::current_profiler() != nullptr;
  const std::uint64_t t0 = timing ? mono_ns() : 0;
  pending_compile_ns_ = 0;
  Block& b = block(to);
  if (b.dirty || b.epoch != epoch_) compile_block(b, to);
  const bool handled = dispatch(b, to, from, packet);
  if (handled) {
    ++stats_.hits;
    ++forward_stats_.count;
    if (timing) {
      // Compile work that happened inside this hop is attributed to
      // "fastpath/compile", not double-counted under "fastpath/forward".
      forward_stats_.wall_ns += mono_ns() - t0 - pending_compile_ns_;
    }
  }
  return handled;
}

bool CompiledForwarder::dispatch(Block& b, NodeId to, NodeId from,
                                 net::Packet& packet) {
  switch (b.kind) {
    case Kind::kUnicast: {
      if (packet.dst == b.addr) {
        // ProtocolAgent::deliver_local, replayed.
        ++net_->counters().local_sink;
        HBH_LOG(LogLevel::kTrace, to_string(to), " sink ", packet.describe());
        return true;
      }
      net_->send(to, std::move(packet));
      return true;
    }
    case Kind::kHbh:
      return dispatch_hbh(b, to, packet);
    case Kind::kReunite:
      return dispatch_reunite(b, to, packet);
    case Kind::kPim:
      return dispatch_pim(b, to, from, packet);
    case Kind::kReceiver: {
      auto* host = static_cast<mcast::ReceiverHost*>(b.agent);
      // Membership is consulted live — subscriptions never get compiled,
      // so churn needs no invalidation to stay exact.
      if (host->accept_data(packet)) return true;
      net_->send(to, std::move(packet));
      return true;
    }
    case Kind::kInterpreted:
      return false;
  }
  return false;
}

bool CompiledForwarder::dispatch_hbh(Block& b, NodeId to, net::Packet& packet) {
  if (packet.dst != b.addr) {
    // Transit data: plain unicast, no table (and no purge) on this path.
    net_->send(to, std::move(packet));
    return true;
  }
  ChannelEntry& e = entry(b, channel_slot(packet.channel));
  if (!e.compiled) compile_entry(b, e, packet.channel);
  if (net_->simulator().now() >= e.horizon) {
    // The interpreted purge is due (t2 death or mark decay): fall back for
    // its side effects — evict traces, structural-change counting, table
    // erasure. The mutations it performs re-dirty this block anyway.
    b.dirty = true;
    return false;
  }
  if (!e.has_table) {
    HBH_LOG(LogLevel::kDebug, to_string(to),
            " data addressed to non-branching node, dropped");
    return true;
  }
  const net::DataPayload& d = packet.data();
  if (!e.guard->first_time(d.probe, d.seq)) {
    return true;  // looped-back copy: consumed without re-replication
  }
  ++stats_.fanout_batches;
  stats_.fanout_copies += e.targets.size();
  for (const Ipv4Addr target : e.targets) {
    net::Packet copy = packet;
    copy.dst = target;
    net_->send(to, std::move(copy));
  }
  return true;
}

bool CompiledForwarder::dispatch_reunite(Block& b, NodeId to,
                                         net::Packet& packet) {
  if (packet.dst == b.addr) {
    // REUNITE never addresses interior routers; defensively sunk.
    ++net_->counters().local_sink;
    return true;
  }
  ChannelEntry& e = entry(b, channel_slot(packet.channel));
  if (!e.compiled) compile_entry(b, e, packet.channel);
  if (e.has_table && packet.dst == e.dst) {
    if (net_->simulator().now() >= e.horizon) {
      // A replicated-to entry's t2 passed; on_data never purges, so no
      // side effects are owed — recompile with a fresh horizon next hop.
      b.dirty = true;
      return false;
    }
    const net::DataPayload& d = packet.data();
    if (e.guard->first_time(d.probe, d.seq)) {
      ++stats_.fanout_batches;
      stats_.fanout_copies += e.targets.size();
      for (const Ipv4Addr target : e.targets) {
        net::Packet copy = packet;
        copy.dst = target;
        net_->send(to, std::move(copy));
      }
    }
  }
  net_->send(to, std::move(packet));  // original continues toward dst
  return true;
}

bool CompiledForwarder::dispatch_pim(Block& b, NodeId to, NodeId from,
                                     net::Packet& packet) {
  ChannelEntry& e = entry(b, channel_slot(packet.channel));
  if (!e.compiled) compile_entry(b, e, packet.channel);
  if (e.has_table && net_->simulator().now() >= e.horizon) {
    // PimRouter purges on every data packet for the channel; once any oif
    // can be dead the purge stops being a no-op — fall back for it.
    b.dirty = true;
    return false;
  }
  if (packet.data().encapsulated && packet.dst == b.addr) {
    // RP decapsulation: inject the register-tunnelled packet into the
    // shared tree (every oif; the register leg has no RPF "arrived-on").
    if (e.has_table) {
      ++stats_.fanout_batches;
      stats_.fanout_copies += e.oifs.size();
      for (const NodeId neighbor : e.oifs) {
        net::Packet copy = packet;
        copy.data().encapsulated = false;
        copy.dst = e.group;
        net_->send_direct(to, neighbor, std::move(copy));
      }
    }
    return true;
  }
  if (packet.dst == e.group) {
    // Group-addressed data down the tree: RPF replication, skip the
    // arrival interface.
    if (e.has_table) {
      ++stats_.fanout_batches;
      for (const NodeId neighbor : e.oifs) {
        if (neighbor == from) continue;
        ++stats_.fanout_copies;
        net::Packet copy = packet;
        net_->send_direct(to, neighbor, std::move(copy));
      }
    }
    return true;
  }
  // Unicast transit (e.g. a register tunnel passing through) — the base
  // ProtocolAgent behavior.
  if (packet.dst == b.addr) {
    ++net_->counters().local_sink;
    HBH_LOG(LogLevel::kTrace, to_string(to), " sink ", packet.describe());
    return true;
  }
  net_->send(to, std::move(packet));
  return true;
}

void CompiledForwarder::compile_block(Block& b, NodeId n) {
  const bool timing = prof::current_profiler() != nullptr;
  const std::uint64_t t0 = timing ? mono_ns() : 0;
  net::ProtocolAgent& agent = net_->agent(n);
  b.addr = net::node_address(n);
  b.agent = nullptr;
  if (auto* hbh = dynamic_cast<mcast::hbh::HbhRouter*>(&agent);
      hbh != nullptr) {
    b.kind = Kind::kHbh;
    b.agent = hbh;
  } else if (auto* reunite = dynamic_cast<mcast::reunite::ReuniteRouter*>(&agent);
             reunite != nullptr) {
    b.kind = Kind::kReunite;
    b.agent = reunite;
  } else if (auto* pim = dynamic_cast<mcast::pim::PimRouter*>(&agent);
             pim != nullptr) {
    b.kind = Kind::kPim;
    b.agent = pim;
  } else if (auto* host = dynamic_cast<mcast::ReceiverHost*>(&agent);
             host != nullptr) {
    b.kind = Kind::kReceiver;
    b.agent = host;
  } else if (typeid(agent) == typeid(net::ProtocolAgent)) {
    b.kind = Kind::kUnicast;
  } else {
    // Composite source hosts and anything unknown stay interpreted.
    b.kind = Kind::kInterpreted;
  }
  for (ChannelEntry& e : b.channels) e.compiled = false;
  b.dirty = false;
  b.epoch = epoch_;
  ++compile_stats_.count;
  ++stats_.recompiles;
  if (timing) {
    const std::uint64_t dt = mono_ns() - t0;
    compile_stats_.wall_ns += dt;
    pending_compile_ns_ += dt;
  }
}

void CompiledForwarder::compile_entry(Block& b, ChannelEntry& e,
                                      const net::Channel& ch) {
  const bool timing = prof::current_profiler() != nullptr;
  const std::uint64_t t0 = timing ? mono_ns() : 0;
  const Time now = net_->simulator().now();
  e.has_table = false;
  e.horizon = kNeverInvalid;
  e.guard = nullptr;
  e.targets.clear();
  e.oifs.clear();
  switch (b.kind) {
    case Kind::kHbh: {
      // Horizon: the earliest instant the interpreted purge stops being a
      // no-op (any t2 death, MCT included) or a mark decays back into the
      // data-eligible set. State already dead at compile time leaves the
      // horizon in the past — every hop falls back until the purge runs.
      auto* router = static_cast<mcast::hbh::HbhRouter*>(b.agent);
      const auto* st = router->state(ch);
      if (st == nullptr) break;
      if (st->mct) {
        e.horizon = std::min(e.horizon, st->mct->state.t2_expiry());
      }
      if (st->mft) {
        e.has_table = true;
        e.guard = &router->replication_guard(ch);
        for (const auto& [target, entry] : st->mft->raw()) {
          e.horizon = std::min(e.horizon, entry.t2_expiry());
          if (entry.marked(now)) {
            // No data copies while marked; eligibility flips at decay.
            e.horizon = std::min(e.horizon, entry.mark_expiry());
          } else {
            e.targets.push_back(target);
          }
        }
      }
      break;
    }
    case Kind::kReunite: {
      // on_data never purges, so dead entries are inert (and can only be
      // resurrected through a purge+insert, both of which notify): the
      // horizon needs to cover live replicated-to entries only.
      auto* router = static_cast<mcast::reunite::ReuniteRouter*>(b.agent);
      const auto* st = router->state(ch);
      if (st == nullptr || !st->mft) break;
      e.has_table = true;
      e.guard = &router->replication_guard(ch);
      e.dst = st->mft->dst;
      for (const auto& [target, entry] : st->mft->entries) {
        if (entry.dead(now)) continue;
        e.horizon = std::min(e.horizon, entry.t2_expiry());
        e.targets.push_back(target);
      }
      break;
    }
    case Kind::kPim: {
      e.group = ch.group.addr();
      const auto* oifs =
          static_cast<mcast::pim::PimRouter*>(b.agent)->oif_entries(ch);
      if (oifs == nullptr) break;
      e.has_table = true;
      for (const auto& [neighbor, entry] : *oifs) {
        e.horizon = std::min(e.horizon, entry.t2_expiry());
        e.oifs.push_back(neighbor);
      }
      break;
    }
    case Kind::kUnicast:
    case Kind::kReceiver:
    case Kind::kInterpreted:
      break;
  }
  e.compiled = true;
  ++compile_stats_.count;
  ++stats_.recompiles;
  if (timing) {
    const std::uint64_t dt = mono_ns() - t0;
    compile_stats_.wall_ns += dt;
    pending_compile_ns_ += dt;
  }
}

void CompiledForwarder::flush_profile() {
  if (prof::PhaseProfiler* p = prof::current_profiler(); p != nullptr) {
    p->record("fastpath/compile", compile_stats_);
    p->record("fastpath/forward", forward_stats_);
  }
  compile_stats_ = {};
  forward_stats_ = {};
}

}  // namespace hbh::fastpath
