#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ip/address.hpp"
#include "ip/route_table.hpp"
#include "routing/bgp_types.hpp"
#include "routing/control_plane.hpp"
#include "routing/rib.hpp"
#include "routing/rib_out.hpp"

namespace mvpn::routing {

/// MP-BGP mesh distributing VPN-IPv4 routes among PE routers, in either
/// full-mesh iBGP or route-reflector topology — the control-plane half of
/// the scalability story (experiments E1/E7 count its sessions, messages
/// and per-node state).
///
/// Advertisements and withdraws stage through a per-speaker RibOut (update
/// groups keyed by export-policy peer set), flushed by one scheduled event
/// per speaker per flush instant into MTU-bounded multi-NLRI messages
/// (INTERNALS.md §15). Final Loc-RIBs are pinned by the fingerprints in
/// tests/golden/loc_rib.txt.
class Bgp {
 public:
  enum class Mode { kFullMesh, kRouteReflector };

  explicit Bgp(ControlPlane& cp, Mode mode = Mode::kFullMesh);

  /// Enroll a PE speaker (a route-reflector client in RR mode).
  void add_speaker(ip::NodeId pe);
  /// Enroll a route reflector (RR mode only; RRs full-mesh among
  /// themselves and serve every speaker as a client).
  void add_route_reflector(ip::NodeId rr);

  /// Establish all sessions per the mode (counts OPEN exchanges).
  void start();

  /// Inject a locally-originated route at `pe` (e.g. learned from an
  /// attached CE) and propagate.
  void originate(ip::NodeId pe, VpnRoute route);
  /// Withdraw a locally-originated route.
  void withdraw(ip::NodeId pe, const RouteDistinguisher& rd,
                const ip::Prefix& prefix);

  /// Simulate a speaker crash: every peer tears down its session with
  /// `pe`, flushes the routes learned from it and re-runs best-path
  /// selection — the mechanism behind PE-failure failover for multihomed
  /// sites. Updates `pe` had queued but not yet flushed die with its
  /// sessions. (`pe` itself goes silent; its RIB state is untouched so a
  /// later restart could be modeled on top.)
  void fail_speaker(ip::NodeId pe);

  /// Fired whenever a speaker's Loc-RIB best path for some key changes.
  /// `withdrawn` means the key now has no route at that speaker.
  using RouteObserver =
      std::function<void(ip::NodeId at, const VpnRoute& route, bool withdrawn)>;
  void on_route(RouteObserver cb) { observers_.push_back(std::move(cb)); }

  /// --- introspection -----------------------------------------------------
  [[nodiscard]] std::size_t session_count() const noexcept {
    return sessions_.size();
  }
  [[nodiscard]] std::size_t loc_rib_size(ip::NodeId node) const;
  [[nodiscard]] std::size_t adj_rib_in_size(ip::NodeId node) const;
  [[nodiscard]] const VpnRoute* best(ip::NodeId node, const VpnRouteKey& key)
      const;
  [[nodiscard]] std::vector<VpnRoute> loc_rib(ip::NodeId node) const;
  [[nodiscard]] bool is_reflector(ip::NodeId node) const;
  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] const std::vector<ip::NodeId>& speakers() const noexcept {
    return speakers_;
  }
  /// Update-group staging counters.
  [[nodiscard]] const RibOut& rib_out() const noexcept { return ribout_; }
  /// Interned route-target set pool shared by every speaker's RIB.
  [[nodiscard]] const RtSetPool& rt_pool() const noexcept { return pool_; }
  /// Total Adj-RIB-In footprint across speakers (table + arena capacity,
  /// plus the shared RT pool) — the B/route the churn bench budgets.
  [[nodiscard]] std::size_t adj_rib_bytes() const;
  [[nodiscard]] std::size_t adj_rib_routes() const;

 private:
  struct SpeakerState {
    bool reflector = false;
    std::vector<ip::NodeId> peers;
    /// Adj-RIB-In: per key, the route each sender currently offers, in a
    /// compact open-addressed table. Sender kInvalidNode marks
    /// locally-originated routes.
    AdjRibIn adj_rib_in;
    std::map<VpnRouteKey, VpnRoute> loc_rib;
    /// Which peer (or local) supplied the current best, for reflection.
    std::map<VpnRouteKey, ip::NodeId> best_sender;
  };

  void add_session(ip::NodeId a, ip::NodeId b);
  void receive_update(ip::NodeId at, ip::NodeId from, VpnRoute route);
  void receive_withdraw(ip::NodeId at, ip::NodeId from, VpnRouteKey key);
  /// Re-run best-path selection for `key` at `node`; propagate on change.
  void decide(ip::NodeId node, const VpnRouteKey& key);
  /// Peers `node` must advertise to when its best for a key came from
  /// `sender` (kInvalidNode = locally originated).
  [[nodiscard]] std::vector<ip::NodeId> advertise_targets(
      ip::NodeId node, ip::NodeId sender) const;
  /// Stage the (re-)advertisement or withdraw (`route` null) of `key` in
  /// the RibOut.
  void propagate(ip::NodeId node, ip::NodeId sender, const VpnRouteKey& key,
                 const VpnRoute* route);
  /// Drain `node`'s update groups into packed session messages.
  void flush(ip::NodeId node);
  void apply_packed(ip::NodeId at, ip::NodeId from,
                    const std::vector<RibOut::Entry>& entries);

  static bool better(const VpnRoute& a, const VpnRoute& b) noexcept;
  static bool better_compact(const CompactRoute& a,
                             const CompactRoute& b) noexcept;

  ControlPlane& cp_;
  Mode mode_;
  std::vector<ip::NodeId> speakers_;
  std::vector<ip::NodeId> reflectors_;
  std::map<ip::NodeId, SpeakerState> state_;
  std::vector<std::pair<ip::NodeId, ip::NodeId>> sessions_;
  std::vector<RouteObserver> observers_;
  RtSetPool pool_;
  RibOut ribout_;
  bool started_ = false;
};

}  // namespace mvpn::routing
