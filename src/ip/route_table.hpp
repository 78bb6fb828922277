#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ip/address.hpp"
#include "ip/prefix_trie.hpp"

namespace mvpn::ip {

/// Opaque simulator node identifier (assigned by the topology).
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Interface index on a node.
using IfIndex = std::uint32_t;
inline constexpr IfIndex kInvalidIf = std::numeric_limits<IfIndex>::max();

/// Where a route came from; drives admin-distance preference when several
/// protocols offer the same prefix.
enum class RouteSource : std::uint8_t {
  kConnected,  ///< directly attached subnet
  kStatic,     ///< operator-configured
  kIgp,        ///< link-state IGP (our OSPF-like protocol)
  kBgp,        ///< BGP / MP-BGP learned
  kVpn,        ///< imported into a VRF from a remote PE
};

[[nodiscard]] constexpr std::uint8_t default_admin_distance(
    RouteSource s) noexcept {
  switch (s) {
    case RouteSource::kConnected: return 0;
    case RouteSource::kStatic: return 1;
    case RouteSource::kIgp: return 110;
    case RouteSource::kBgp: return 200;
    case RouteSource::kVpn: return 200;
  }
  return 255;
}

[[nodiscard]] std::string to_string(RouteSource s);

/// MPLS label value carried in route attributes (20-bit); kNoLabel when the
/// route has no label (plain IP route).
inline constexpr std::uint32_t kNoLabel = std::numeric_limits<std::uint32_t>::max();

/// Resolved forwarding action for a route.
struct NextHop {
  NodeId node = kInvalidNode;   ///< adjacent node the packet goes to
  IfIndex iface = kInvalidIf;   ///< egress interface on this node
  bool local = false;           ///< deliver locally (this node owns the dest)

  [[nodiscard]] bool valid() const noexcept {
    return local || (node != kInvalidNode && iface != kInvalidIf);
  }
  friend bool operator==(const NextHop&, const NextHop&) = default;
};

/// One routing-table entry. VPN attributes (`vpn_label`, `egress_pe`) are
/// populated for routes imported into VRFs: the ingress PE pushes
/// `vpn_label` and tunnels toward `egress_pe` (recursive resolution through
/// the global table / LSP).
struct RouteEntry {
  Prefix prefix;
  NextHop next_hop;
  /// Equal-cost alternates (ECMP). When non-empty it includes
  /// `next_hop` itself; forwarding picks a member by flow hash so one
  /// flow's packets never reorder across paths.
  std::vector<NextHop> ecmp;
  RouteSource source = RouteSource::kStatic;
  std::uint8_t admin_distance = 1;
  std::uint32_t metric = 0;
  std::uint32_t vpn_label = kNoLabel;
  NodeId egress_pe = kInvalidNode;

  /// The forwarding next hop for a flow with the given hash.
  [[nodiscard]] const NextHop& next_hop_for(std::size_t flow_hash) const {
    if (ecmp.size() < 2) return next_hop;
    return ecmp[flow_hash % ecmp.size()];
  }

  friend bool operator==(const RouteEntry&, const RouteEntry&) = default;
};

/// Longest-prefix-match routing table with admin-distance/metric
/// preference on insert.
///
/// Lookups are served through a direct-mapped result cache in front of the
/// trie: data-plane traffic concentrates on a handful of destination
/// addresses per table, so the 32-level pointer chase is paid once per
/// (address, table-version) instead of once per packet. Any mutation bumps
/// the table generation, which invalidates every cached slot at once.
///
/// The cache lives out of line and is allocated by the first lookup(), so
/// a table no lookup reaches (a route reflector's, or a VRF no traffic
/// enters) is 32 bytes plus its trie, not 6 KiB. Each 16-byte slot stamps
/// the low word of the generation; when that word wraps, the cache is
/// cleared, so a slot filled 2^32 mutations ago can never match again.
/// The slot count is fixed and keyed by address, not sized by route count:
/// CEs and VRFs see many more destinations than they hold routes.
class RouteTable {
 public:
  /// Install `entry`; if a route for the same prefix exists, keep the one
  /// with lower (admin_distance, metric). Returns true if `entry` is now
  /// the active route for its prefix.
  bool install(const RouteEntry& entry);

  /// Replace whatever is at `entry.prefix` unconditionally.
  void replace(const RouteEntry& entry);

  /// Remove the route for `prefix` (exact). Returns true if removed.
  bool remove(const Prefix& prefix);

  /// Longest-prefix match; nullptr if no route covers `addr`.
  [[nodiscard]] const RouteEntry* lookup(Ipv4Address addr) const {
    if (cache_ == nullptr) [[unlikely]] allocate_cache();
    CacheSlot& slot = cache_[cache_index(addr)];
    const auto stamp = static_cast<std::uint32_t>(generation_);
    if (slot.stamp == stamp && slot.addr == addr.value()) return slot.entry;
    const RouteEntry* entry = trie_.longest_match(addr);
    slot = CacheSlot{addr.value(), stamp, entry};
    return entry;
  }

  /// Exact-prefix fetch; nullptr if absent.
  [[nodiscard]] const RouteEntry* find(const Prefix& prefix) const;

  [[nodiscard]] std::size_t size() const noexcept { return trie_.size(); }
  void clear() {
    trie_.clear();
    invalidate_cache();
  }

  /// Snapshot of all entries (for tests, dumps, and FIB compilation).
  [[nodiscard]] std::vector<RouteEntry> entries() const;

  /// Table version; bumped on every mutation. Exposed for tests asserting
  /// cache-invalidation behavior.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

 private:
  friend struct RouteTableTestAccess;

  static constexpr std::size_t kCacheSlots = 256;  // power of two

  struct CacheSlot {
    std::uint32_t addr = 0;
    std::uint32_t stamp = 0;  // 0 never matches: the live stamp skips 0
    const RouteEntry* entry = nullptr;
  };
  static_assert(sizeof(CacheSlot) == 16);

  static std::size_t cache_index(Ipv4Address addr) noexcept {
    // Fibonacci hash: site addresses differ mostly in the middle octets.
    return (addr.value() * 0x9E3779B1u) >> 24 & (kCacheSlots - 1);
  }

  void allocate_cache() const;
  /// Bump the generation; on a low-word wrap, clear every slot and skip
  /// the stamp 0 that empty slots carry.
  void invalidate_cache() noexcept;

  PrefixTrie<RouteEntry> trie_;
  mutable std::unique_ptr<CacheSlot[]> cache_;  ///< kCacheSlots, or null
  std::uint64_t generation_ = 1;
};

}  // namespace mvpn::ip
