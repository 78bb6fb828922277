#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ip/route_table.hpp"
#include "net/link.hpp"

namespace mvpn::routing {

/// One link as described in a router's LSA, including the TE attributes
/// (reservable bandwidth) that CSPF constrains on.
struct LsaLink {
  ip::NodeId neighbor = ip::kInvalidNode;
  net::LinkId link = net::kInvalidLink;
  std::uint32_t cost = 1;
  double capacity_bps = 0.0;
  double reservable_bps = 0.0;  ///< capacity minus current TE reservations
};

/// Router LSA: the originator's current adjacency set. Sequence numbers
/// provide freshness; flooding installs strictly newer LSAs only.
struct Lsa {
  ip::NodeId origin = ip::kInvalidNode;
  std::uint32_t sequence = 0;
  std::vector<LsaLink> links;

  /// Approximate on-the-wire size for control-plane byte accounting.
  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    return 24 + links.size() * 16;
  }
};

/// Per-router link-state database: one slot per origin node id (node ids
/// are dense), each holding an immutable LSA. A flooded origination is one
/// shared object, referenced by every LSDB it reaches and by every flood
/// message still in flight.
class LinkStateDb {
 public:
  /// Install `lsa` if it is newer than what we have. Returns true when the
  /// database changed (callers then schedule SPF and re-flood); the copy
  /// it displaced, if any, is moved into `*replaced`.
  bool install(std::shared_ptr<const Lsa> lsa,
               std::shared_ptr<const Lsa>* replaced = nullptr);
  bool install(const Lsa& lsa) {
    return install(std::make_shared<const Lsa>(lsa));
  }

  [[nodiscard]] const Lsa* find(ip::NodeId origin) const noexcept {
    return origin < db_.size() ? db_[origin].get() : nullptr;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::vector<std::shared_ptr<const Lsa>> db_;
  std::size_t size_ = 0;
};

/// Result of an SPF/CSPF computation: the node sequence from source to
/// destination (inclusive) and its total cost. Empty nodes = unreachable.
struct ComputedPath {
  std::vector<ip::NodeId> nodes;
  std::uint32_t cost = 0;
  [[nodiscard]] bool found() const noexcept { return !nodes.empty(); }
  [[nodiscard]] std::size_t hop_count() const noexcept {
    return nodes.empty() ? 0 : nodes.size() - 1;
  }
};

/// Dijkstra over a link-state database with optional TE constraints:
/// only links with `reservable_bps >= min_reservable` are eligible and
/// links in `excluded` are skipped. Deterministic tie-breaking by
/// (cost, hop count, node id).
[[nodiscard]] ComputedPath shortest_path(
    const LinkStateDb& db, ip::NodeId from, ip::NodeId to,
    double min_reservable = 0.0,
    const std::vector<net::LinkId>& excluded = {});

}  // namespace mvpn::routing
