#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mpls/domain.hpp"
#include "mpls/ldp.hpp"
#include "routing/bgp.hpp"
#include "routing/control_plane.hpp"
#include "routing/igp.hpp"
#include "vpn/router.hpp"

namespace mvpn::vpn {

/// The paper's core contribution as an executable service: RFC-2547-style
/// BGP/MPLS VPNs over a provider backbone.
///
/// Implements the three §4 functions:
///  * 4.1 membership discovery — VPN ids map to RD/RT values; PE VRFs are
///    configured per attachment and discovered through MP-BGP route
///    targets (no per-site manual mesh);
///  * 4.2 reachability exchange — each PE originates VPN-IPv4 routes
///    (RD + prefix + label + RT) for its attached sites; importing PEs
///    install them into matching VRFs only;
///  * 4.3 data traffic — ingress PEs push [tunnel label, VPN label]; LDP
///    LSPs carry traffic between PE loopbacks; egress PEs pop and deliver
///    into the owning VRF.
///
/// Sites may join and leave after start (experiment E6 exercises this).
class MplsVpnService {
 public:
  MplsVpnService(net::Topology& topo, routing::ControlPlane& cp,
                 routing::Igp& igp, mpls::MplsDomain& domain, mpls::Ldp& ldp,
                 routing::Bgp& bgp, std::uint32_t asn = 65000);

  /// Register a provider router (PE or P): joins the IGP and LDP; PEs also
  /// become BGP speakers.
  void add_provider_router(Router& r);

  /// Create a VPN; RD/RT are derived from the service ASN and the id.
  VpnId create_vpn(const std::string& name);
  [[nodiscard]] routing::RouteDistinguisher rd_of(VpnId id) const;
  [[nodiscard]] routing::RouteTarget rt_of(VpnId id) const;
  [[nodiscard]] const std::string& name_of(VpnId id) const;
  [[nodiscard]] std::size_t vpn_count() const noexcept { return vpns_.size(); }

  /// Grant `importer` import of `exported`'s routes (extranet policy, one
  /// direction; call twice for mutual extranet). Must precede the sites'
  /// attachment to take effect for their VRFs. A PE's RT membership is the
  /// union of its VRFs' import targets, these included, so the grant also
  /// scopes which routes its BGP peers send it.
  void add_extranet_import(VpnId importer, VpnId exported);

  /// Attach a CE (and its site prefix) to a PE for the given VPN. The
  /// CE–PE link must already exist in the topology. `local_pref` orders
  /// multiple attachments of the same prefix (multihoming): the highest
  /// preference wins backbone-wide and the others serve as hot standbys.
  void add_site(VpnId vpn, Router& pe, Router& ce,
                const ip::Prefix& site_prefix,
                std::uint32_t local_pref = 100);

  /// Simulate a PE failure: its BGP sessions drop, peers flush and
  /// re-decide (multihomed prefixes fail over to their backup PE) and its
  /// CE attachment links go down.
  void fail_pe(Router& pe);

  /// Bind the PE interface facing `neighbor` into the VPN's VRF without
  /// declaring a site — an attachment circuit for inter-AS option-A
  /// peering (the far side is another provider's ASBR, not a CE).
  Vrf& bind_vrf_interface(VpnId vpn, Router& pe, ip::NodeId neighbor);

  /// Originate an externally-learned route (e.g. from an inter-AS
  /// peering) into this provider's MP-BGP at `pe`, labeled with the
  /// VPN's local VRF label.
  void originate_external(VpnId vpn, Router& pe, const ip::Prefix& prefix);
  void withdraw_external(VpnId vpn, Router& pe, const ip::Prefix& prefix);
  /// Detach a site: withdraws its reachability everywhere.
  void remove_site(VpnId vpn, Router& pe, const ip::Prefix& site_prefix);

  /// Bring up the control plane (IGP flooding, LDP label distribution, BGP
  /// sessions) and originate all queued site routes. Run the scheduler
  /// afterwards (e.g. converge()) to let it settle.
  void start();
  /// Drain all pending control-plane events (no traffic running).
  void converge();

  /// --- state metrics for the scalability experiments ---------------------
  [[nodiscard]] std::size_t total_vrf_count() const;
  [[nodiscard]] std::size_t total_vrf_routes() const;
  [[nodiscard]] std::size_t total_bgp_loc_rib() const;
  [[nodiscard]] std::size_t site_count(VpnId vpn) const;
  /// Heap bytes of `pe`'s importer index (which VRFs imported each key),
  /// sized by `pe`'s BGP rows, by capacity.
  [[nodiscard]] std::size_t importer_bytes(ip::NodeId pe) const;

  [[nodiscard]] routing::Bgp& bgp() noexcept { return bgp_; }
  [[nodiscard]] routing::Igp& igp() noexcept { return igp_; }
  [[nodiscard]] mpls::Ldp& ldp() noexcept { return ldp_; }

  /// Simulated instant the most recent VRF import/withdraw was applied —
  /// the "reachability converged" timestamp of the last change.
  [[nodiscard]] sim::SimTime last_route_change_at() const noexcept {
    return last_route_change_at_;
  }

 private:
  struct VpnInfo {
    std::string name;
    std::vector<routing::RouteTarget> extra_imports;
    std::vector<ip::Prefix> sites;
  };
  struct PendingRoute {
    ip::NodeId pe;
    routing::VpnRoute route;
  };

  Vrf& ensure_vrf(Router& pe, VpnId vpn);
  [[nodiscard]] Router* provider(ip::NodeId id) const {
    return id < providers_.size() ? providers_[id] : nullptr;
  }
  void import_route(ip::NodeId at, const routing::VpnRoute& route,
                    bool withdrawn);
  /// The VPNs whose VRFs at `at` imported `route`'s key.
  std::vector<VpnId>& importers_of(ip::NodeId at,
                                   const routing::VpnRoute& route);

  net::Topology& topo_;
  routing::ControlPlane& cp_;
  routing::Igp& igp_;
  mpls::MplsDomain& domain_;
  mpls::Ldp& ldp_;
  routing::Bgp& bgp_;
  std::uint32_t asn_;

  std::map<VpnId, VpnInfo> vpns_;
  VpnId next_vpn_ = 1;
  std::vector<Router*> providers_;  ///< by node id; null for non-providers
  std::vector<ip::NodeId> pes_;
  std::vector<PendingRoute> pending_;
  /// Which VPN ids imported each key at each PE, by node id then the
  /// PE's BGP row of the key (Bgp::row_of) — needed to undo on withdraw or
  /// on a route-target change.
  std::vector<std::vector<std::vector<VpnId>>> imported_;
  sim::SimTime last_route_change_at_ = 0;
  bool started_ = false;
};

}  // namespace mvpn::vpn
