#include "ip/route_table.hpp"

#include <algorithm>

namespace mvpn::ip {

std::string to_string(RouteSource s) {
  switch (s) {
    case RouteSource::kConnected: return "connected";
    case RouteSource::kStatic: return "static";
    case RouteSource::kIgp: return "igp";
    case RouteSource::kBgp: return "bgp";
    case RouteSource::kVpn: return "vpn";
  }
  return "?";
}

void RouteTable::allocate_cache() const {
  cache_ = std::make_unique<CacheSlot[]>(kCacheSlots);
}

void RouteTable::invalidate_cache() noexcept {
  if (static_cast<std::uint32_t>(++generation_) != 0) return;
  ++generation_;
  if (cache_ != nullptr) std::fill_n(cache_.get(), kCacheSlots, CacheSlot{});
}

bool RouteTable::install(const RouteEntry& entry) {
  if (RouteEntry* existing = trie_.exact_match(entry.prefix)) {
    const auto existing_rank =
        std::make_pair(existing->admin_distance, existing->metric);
    const auto new_rank = std::make_pair(entry.admin_distance, entry.metric);
    if (new_rank > existing_rank) return false;
    *existing = entry;
    invalidate_cache();
    return true;
  }
  trie_.insert(entry.prefix, entry);
  invalidate_cache();
  return true;
}

void RouteTable::replace(const RouteEntry& entry) {
  if (RouteEntry* existing = trie_.exact_match(entry.prefix)) {
    *existing = entry;
  } else {
    trie_.insert(entry.prefix, entry);
  }
  invalidate_cache();
}

bool RouteTable::remove(const Prefix& prefix) {
  if (!trie_.erase(prefix)) return false;
  invalidate_cache();
  return true;
}

const RouteEntry* RouteTable::find(const Prefix& prefix) const {
  return trie_.exact_match(prefix);
}

std::vector<RouteEntry> RouteTable::entries() const {
  std::vector<RouteEntry> out;
  out.reserve(trie_.size());
  trie_.for_each([&](const Prefix&, const RouteEntry& e) { out.push_back(e); });
  return out;
}

}  // namespace mvpn::ip
