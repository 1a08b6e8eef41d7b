// HBH's two routing tables (§3): the Multicast Control Table kept by
// non-branching on-tree routers and the Multicast Forwarding Table kept by
// branching routers (and by the source, which is the tree root).
//
// Key difference from REUNITE (§3): an HBH MFT entry stores the address of
// the *next branching node* (or of a receiver, for the branching router
// nearest that receiver) — never a remote receiver used as a forwarding
// destination — and there is no dst field. Data arriving at a branching
// router is addressed to the router itself.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mcast/common/soft_state.hpp"
#include "util/ipv4.hpp"

namespace hbh::mcast::hbh {

/// The single-entry control table of a non-branching on-tree router.
struct Mct {
  Ipv4Addr target;   ///< the receiver whose tree messages flow through here
  SoftEntry state;
};

/// Forwarding table of a branching router: target -> soft state.
///
/// Entry semantics (Appendix A):
///  * fresh           — receives data copies and downstream tree messages
///  * stale           — receives data copies only (no tree messages)
///  * marked (+fresh) — receives tree messages only (no data copies)
/// Dead entries (t2 expired) are purged lazily by purge().
///
/// The entries live in one vector sorted by target: iteration is in
/// ascending address order (deterministic, as the std::map it replaced),
/// lookups binary-search, and purge() and the target lists are single
/// contiguous scans. Inserts shift the tail, which for the handful of
/// entries a branching router keeps is cheaper than a tree node.
class Mft {
 public:
  using Entries = std::vector<std::pair<Ipv4Addr, SoftEntry>>;

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  [[nodiscard]] bool contains(Ipv4Addr target) const {
    return find(target) != nullptr;
  }
  [[nodiscard]] SoftEntry* find(Ipv4Addr target);
  [[nodiscard]] const SoftEntry* find(Ipv4Addr target) const;

  /// Inserts a fresh entry (or fully refreshes an existing one). The
  /// reference is valid until the next insert, erase or purge.
  SoftEntry& upsert(Ipv4Addr target, const McastConfig& cfg, Time now);

  /// Removes entries whose t2 expired. Returns number removed; when
  /// `evicted` is non-null (tracing) the removed targets are appended in
  /// ascending order.
  std::size_t purge(Time now, std::vector<Ipv4Addr>* evicted = nullptr);

  void erase(Ipv4Addr target);

  /// Targets eligible for data copies: not marked, not dead (stale is OK).
  [[nodiscard]] std::vector<Ipv4Addr> data_targets(Time now) const;

  /// Targets eligible for downstream tree messages: not stale, not dead
  /// (marked entries *do* receive tree messages).
  [[nodiscard]] std::vector<Ipv4Addr> tree_targets(Time now) const;

  /// All live (non-dead) targets — the node list a fusion message carries.
  [[nodiscard]] std::vector<Ipv4Addr> live_targets(Time now) const;

  /// The sorted entries. Mutators must keep the targets as they are.
  [[nodiscard]] const Entries& raw() const noexcept { return entries_; }
  Entries& raw() noexcept { return entries_; }

  [[nodiscard]] std::string to_string(Time now) const;

 private:
  Entries entries_;  ///< sorted by target, unique
};

/// Per-channel HBH router state: exactly one of MCT / MFT is active for an
/// on-tree router (Appendix A: "Each HBH router in S's distribution tree
/// has either a MCT<S> or a MFT<S>").
struct ChannelState {
  std::optional<Mct> mct;
  std::optional<Mft> mft;

  [[nodiscard]] bool branching() const noexcept { return mft.has_value(); }
};

}  // namespace hbh::mcast::hbh
