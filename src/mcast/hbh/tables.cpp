#include "mcast/hbh/tables.hpp"

#include <algorithm>

namespace hbh::mcast::hbh {

namespace {

/// First entry whose target is not below `target` (the std::map's
/// lower_bound).
template <typename Entries>
auto lower(Entries& entries, Ipv4Addr target) {
  return std::lower_bound(
      entries.begin(), entries.end(), target,
      [](const auto& entry, Ipv4Addr t) { return entry.first < t; });
}

}  // namespace

SoftEntry* Mft::find(Ipv4Addr target) {
  const auto it = lower(entries_, target);
  return it == entries_.end() || it->first != target ? nullptr : &it->second;
}

const SoftEntry* Mft::find(Ipv4Addr target) const {
  const auto it = lower(entries_, target);
  return it == entries_.end() || it->first != target ? nullptr : &it->second;
}

SoftEntry& Mft::upsert(Ipv4Addr target, const McastConfig& cfg, Time now) {
  const auto it = lower(entries_, target);
  if (it != entries_.end() && it->first == target) {
    it->second.refresh(cfg, now);
    return it->second;
  }
  return entries_.emplace(it, target, SoftEntry{cfg, now})->second;
}

void Mft::erase(Ipv4Addr target) {
  const auto it = lower(entries_, target);
  if (it != entries_.end() && it->first == target) entries_.erase(it);
}

std::size_t Mft::purge(Time now, std::vector<Ipv4Addr>* evicted) {
  // One compaction pass: survivors slide down over the dead, in order.
  auto kept = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.dead(now)) {
      if (evicted != nullptr) evicted->push_back(it->first);
    } else {
      if (kept != it) *kept = *it;
      ++kept;
    }
  }
  const auto removed = static_cast<std::size_t>(entries_.end() - kept);
  entries_.erase(kept, entries_.end());
  return removed;
}

std::vector<Ipv4Addr> Mft::data_targets(Time now) const {
  std::vector<Ipv4Addr> out;
  out.reserve(entries_.size());
  for (const auto& [target, entry] : entries_) {
    if (!entry.dead(now) && !entry.marked(now)) out.push_back(target);
  }
  return out;
}

std::vector<Ipv4Addr> Mft::tree_targets(Time now) const {
  std::vector<Ipv4Addr> out;
  out.reserve(entries_.size());
  for (const auto& [target, entry] : entries_) {
    if (!entry.dead(now) && !entry.stale(now)) out.push_back(target);
  }
  return out;
}

std::vector<Ipv4Addr> Mft::live_targets(Time now) const {
  std::vector<Ipv4Addr> out;
  out.reserve(entries_.size());
  for (const auto& [target, entry] : entries_) {
    if (!entry.dead(now)) out.push_back(target);
  }
  return out;
}

std::string Mft::to_string(Time now) const {
  std::string out = "{";
  bool comma = false;
  for (const auto& [target, entry] : entries_) {
    if (comma) out += ", ";
    out += target.to_string() + ":" + entry.state_string(now);
    comma = true;
  }
  return out + "}";
}

}  // namespace hbh::mcast::hbh
