#pragma once

#include <memory>
#include <vector>

#include "ip/route_table.hpp"
#include "mpls/lfib.hpp"

namespace mvpn::mpls {

/// MPLS state of one label-switching router: its label space and LFIB.
struct LsrState {
  LabelAllocator allocator;
  Lfib lfib;
};

/// Registry of per-router MPLS state for one provider domain. Label
/// distribution protocols (LDP, RSVP-TE) install entries here; the data
/// plane (vpn::Router) reads its own LsrState for label lookups.
class MplsDomain {
 public:
  /// State for `node`, created on first use. The reference stays valid for
  /// the domain's lifetime (routers keep a pointer to their own state).
  [[nodiscard]] LsrState& state_of(ip::NodeId node) {
    if (node >= states_.size()) states_.resize(node + 1);
    if (!states_[node]) states_[node] = std::make_unique<LsrState>();
    return *states_[node];
  }

  /// State for `node`; nullptr when state_of never created it.
  [[nodiscard]] const LsrState* find(ip::NodeId node) const {
    return node < states_.size() ? states_[node].get() : nullptr;
  }

  /// Total labels allocated across the domain (state-size metric for E1).
  [[nodiscard]] std::size_t total_labels() const;
  /// Total LFIB entries across the domain.
  [[nodiscard]] std::size_t total_lfib_entries() const;

 private:
  std::vector<std::unique_ptr<LsrState>> states_;  ///< by node id
};

}  // namespace mvpn::mpls
