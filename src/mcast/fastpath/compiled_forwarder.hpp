// The compiled data-plane fast path (docs/PERFORMANCE.md).
//
// Interpreted data forwarding pays, per hop: a virtual ProtocolAgent::handle
// dispatch, one or two unordered_map channel-state lookups, a lazy purge
// walk over the soft-state table, and an eligibility re-scan building a
// fresh std::vector of targets. None of that work changes between
// control-plane events: a router's forwarding decision is a pure function
// of its tables, which mutate orders of magnitude less often than data
// flows through them. (Scheduling the hop itself costs the same on both
// paths: the fabric parks every in-flight copy in its own recycled pool,
// so no hop allocates — that is Network's doing, not the fast path's.)
//
// CompiledForwarder exploits that. Each router's converged forwarding
// decision is compiled once into a flat per-node block — the agent's
// concrete kind plus, per channel, the precomputed fan-out target list and
// a validity *horizon* — and replayed for every subsequent data hop:
//
//  * Replay sends through the fabric's public send/send_direct, so
//    link-delay accounting, TTL, impairments (and their RNG draw order),
//    drop reasons, taps, TraceHook transmit spans, every NetworkCounters
//    increment, and the one arrival event per hop are shared code with the
//    interpreted path — not a reimplementation that could drift — and the
//    global (time, seq) event order is identical.
//  * Soft-state expiry needs no per-hop table scan: at compile time the
//    block records the earliest instant any consulted entry changes state
//    (t2 deaths, mark decay) as its horizon. While now < horizon the
//    interpreted purge would be a no-op and the eligible target set cannot
//    change, so the compiled list is exact by construction; at or past the
//    horizon the hop falls back to the interpreted agent (which purges,
//    mutates, and thereby triggers recompilation).
//
// Invalidation is event-driven: every structural table mutation site calls
// ProtocolAgent::note_table_mutation(), which reaches on_table_mutation()
// here and dirties that node's block; topology/route changes bump a global
// epoch via invalidate_all(). Dirty blocks recompile lazily on the next
// data hop. Mutable per-packet state (HBH/REUNITE replication guards,
// receiver membership) is consulted *live* on the shared agent objects, so
// it evolves exactly as under interpreted dispatch.
//
// The result is byte-identical simulation output with HBH_FASTPATH=0/1 at
// any HBH_JOBS — identical event counts, queue pushes, counters, traces,
// logs, and reports (timing fields aside) — enforced by tests/fastpath_test
// and the CI equivalence tripwire.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "util/profiler.hpp"

namespace hbh::mcast {
class ReceiverHost;
class ReplicationGuard;
namespace hbh {
class HbhRouter;
}
namespace reunite {
class ReuniteRouter;
}
namespace pim {
class PimRouter;
}
}  // namespace hbh::mcast

namespace hbh::fastpath {

/// Always-on fast-path telemetry (docs/OBSERVABILITY.md "fastpath.*").
struct FastpathStats {
  std::uint64_t hits = 0;           ///< data hops replayed from compiled blocks
  std::uint64_t recompiles = 0;     ///< block/channel compile operations
  std::uint64_t invalidations = 0;  ///< mutation notifications + epoch bumps
  std::uint64_t fanout_batches = 0; ///< compiled replication fan-outs
  std::uint64_t fanout_copies = 0;  ///< copies emitted by those fan-outs
};

/// One network's compiled data plane. Installs itself as the network's
/// DataFastpath and TableMutationListener on construction and detaches on
/// destruction; the Session owns one when HBH_FASTPATH is on.
class CompiledForwarder final : public net::DataFastpath,
                                public net::TableMutationListener {
 public:
  explicit CompiledForwarder(net::Network& net);
  ~CompiledForwarder() override;
  CompiledForwarder(const CompiledForwarder&) = delete;
  CompiledForwarder& operator=(const CompiledForwarder&) = delete;

  // DataFastpath: offered every arriving data packet; true = hop replayed.
  bool on_deliver(NodeId to, NodeId from, net::Packet& packet) override;

  // TableMutationListener: a node's forwarding state changed shape.
  void on_table_mutation(NodeId node) override;

  /// Invalidates every compiled block (topology epoch bump — link state or
  /// cost changes). Blocks recompile lazily.
  void invalidate_all() noexcept;

  [[nodiscard]] const FastpathStats& stats() const noexcept { return stats_; }

  /// Records the internally batched "fastpath/compile" / "fastpath/forward"
  /// phase stats into the calling thread's installed PhaseProfiler (no-op
  /// without one) and zeroes the accumulators. Counts are simulation-
  /// deterministic; wall time is only sampled while a profiler is
  /// installed, so unprofiled runs never read a clock per hop.
  void flush_profile();

 private:
  /// Concrete agent kind a block was compiled against. kInterpreted covers
  /// composite source hosts and unknown agent types — those hops always
  /// take the interpreted path.
  enum class Kind : std::uint8_t {
    kUnicast,      ///< exactly net::ProtocolAgent (plain unicast router)
    kHbh,          ///< mcast::hbh::HbhRouter
    kReunite,      ///< mcast::reunite::ReuniteRouter
    kPim,          ///< mcast::pim::PimRouter
    kReceiver,     ///< mcast::ReceiverHost
    kInterpreted,  ///< anything else (e.g. MultiSourceHost)
  };

  /// Per-(node, channel) compiled forwarding decision. `horizon` is the
  /// first instant the decision may stop matching the interpreted path
  /// (earliest consulted t2 death or mark decay); a hop at now >= horizon
  /// falls back and dirties the block.
  struct ChannelEntry {
    bool compiled = false;
    bool has_table = false;  ///< live MFT (HBH/REUNITE) / group state (PIM)
    Time horizon = 0;
    Ipv4Addr dst;                    ///< REUNITE: MFT.dst the fan-out keys on
    Ipv4Addr group;                  ///< PIM: group address (decap target)
    /// HBH/REUNITE replication guard, resolved once at compile time (the
    /// router's guards_ map never erases, so the address is stable). The
    /// guard *state* stays live — first_time() mutates the shared ring.
    mcast::ReplicationGuard* guard = nullptr;
    std::vector<Ipv4Addr> targets;   ///< HBH/REUNITE data-copy destinations
    std::vector<NodeId> oifs;        ///< PIM outgoing interfaces (map order)
  };

  /// Per-node compiled block. Dirty blocks (or stale-epoch ones) re-detect
  /// the agent kind and drop every channel entry on the next data hop.
  struct Block {
    Kind kind = Kind::kInterpreted;
    bool dirty = true;
    std::uint64_t epoch = 0;
    Ipv4Addr addr;          ///< the node's unicast address
    void* agent = nullptr;  ///< typed by `kind`; live object owned by the net
    std::vector<ChannelEntry> channels;  ///< indexed by channel slot
  };

  [[nodiscard]] Block& block(NodeId n) { return blocks_[n.index()]; }
  [[nodiscard]] ChannelEntry& entry(Block& b, std::uint16_t slot) {
    if (b.channels.size() <= slot) b.channels.resize(slot + std::size_t{1});
    return b.channels[slot];
  }
  [[nodiscard]] std::uint16_t channel_slot(const net::Channel& ch);

  /// Replays the hop against the (valid) compiled block; false = fall back.
  bool dispatch(Block& b, NodeId to, NodeId from, net::Packet& packet);
  bool dispatch_hbh(Block& b, NodeId to, net::Packet& packet);
  bool dispatch_reunite(Block& b, NodeId to, net::Packet& packet);
  bool dispatch_pim(Block& b, NodeId to, NodeId from, net::Packet& packet);

  /// Re-detects the node's agent kind and clears its channel entries.
  void compile_block(Block& b, NodeId n);
  void compile_entry(Block& b, ChannelEntry& e, const net::Channel& ch);

  net::Network* net_;
  std::vector<Block> blocks_;
  std::uint64_t epoch_ = 0;

  // Channel slot registry: Block::channels is indexed by a dense slot id.
  std::unordered_map<net::Channel, std::uint16_t> slots_;

  FastpathStats stats_;
  prof::PhaseStats compile_stats_;
  prof::PhaseStats forward_stats_;
  std::uint64_t pending_compile_ns_ = 0;
};

}  // namespace hbh::fastpath
