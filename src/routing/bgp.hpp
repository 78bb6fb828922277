#pragma once

#include <cstdint>
#include <functional>
#include <optional>
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
/// (INTERNALS.md §15). Each (RD, prefix) is interned to a dense `NlriId`
/// on first origination; speakers are indexed by node id and their
/// Adj-RIB-In and Loc-RIB by NLRI id (§15.2). Final Loc-RIBs are pinned
/// by the fingerprints in tests/golden/loc_rib.txt and vpn_routes.txt.
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
  /// `withdrawn` means the key now has no route at that speaker. The route
  /// is rebuilt from the compact best path into storage the next change
  /// reuses, so the reference is valid for the call only. An observer must
  /// not originate, withdraw or fail a speaker synchronously: a best-path
  /// decision started from inside an observer throws std::logic_error.
  using RouteObserver =
      std::function<void(ip::NodeId at, const VpnRoute& route, bool withdrawn)>;
  void on_route(RouteObserver cb) { observers_.push_back(std::move(cb)); }

  /// --- introspection -----------------------------------------------------
  /// Per-speaker queries throw std::out_of_range for a node that is not a
  /// speaker or reflector.
  [[nodiscard]] std::size_t session_count() const noexcept {
    return sessions_.size();
  }
  [[nodiscard]] std::size_t loc_rib_size(ip::NodeId node) const;
  [[nodiscard]] std::size_t adj_rib_in_size(ip::NodeId node) const;
  /// Best route for `key` at `node`, built from its compact form; empty
  /// when it has none.
  [[nodiscard]] std::optional<VpnRoute> best(ip::NodeId node,
                                             const VpnRouteKey& key) const;
  /// `node`'s Loc-RIB sorted by (RD, prefix), each route built on the call.
  [[nodiscard]] std::vector<VpnRoute> loc_rib(ip::NodeId node) const;
  [[nodiscard]] bool is_reflector(ip::NodeId node) const noexcept {
    return node < state_.size() && state_[node].reflector;
  }
  /// Interned id of `key`, or kNoNlri when no speaker ever originated it.
  [[nodiscard]] NlriId nlri_id(const VpnRouteKey& key) const noexcept {
    return nlri_.find(key);
  }
  /// Keys interned so far; every NlriId is below this.
  [[nodiscard]] std::size_t nlri_count() const noexcept {
    return nlri_.size();
  }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] const std::vector<ip::NodeId>& speakers() const noexcept {
    return speakers_;
  }
  /// Update-group staging counters.
  [[nodiscard]] const RibOut& rib_out() const noexcept { return ribout_; }
  /// Interned route-target set pool shared by every speaker's RIB.
  [[nodiscard]] const RtSetPool& rt_pool() const noexcept { return pool_; }
  /// Total Adj-RIB-In footprint across speakers (chain heads + arena
  /// capacity, plus the shared RT pool and NLRI key table) — the B/route
  /// the churn bench budgets.
  [[nodiscard]] std::size_t adj_rib_bytes() const;
  [[nodiscard]] std::size_t adj_rib_routes() const;

 private:
  /// One key's Loc-RIB slot at one speaker. Only the compact best path
  /// is stored; every VpnRoute handed out is materialized from it on the
  /// call, so a Loc-RIB costs 32 B per (speaker, NLRI id) slot.
  struct LocEntry {
    bool present = false;
    /// Which peer (or kInvalidNode: local) supplied the best, for
    /// reflection.
    ip::NodeId sender = ip::kInvalidNode;
    CompactRoute compact;
  };
  static_assert(sizeof(LocEntry) <= 32);
  struct SpeakerState {
    bool enrolled = false;
    bool reflector = false;
    bool failed = false;  ///< fail_speaker ran: every session is gone
    std::vector<ip::NodeId> peers;
    /// Adj-RIB-In: per NLRI id, the route each sender currently offers.
    /// Sender kInvalidNode marks locally-originated routes.
    AdjRibIn adj_rib_in;
    std::vector<LocEntry> loc_rib;  ///< by NlriId
    std::size_t loc_rib_size = 0;
  };

  /// `node`'s state; std::out_of_range when it is not enrolled.
  SpeakerState& speaker(ip::NodeId node);
  [[nodiscard]] const SpeakerState& speaker(ip::NodeId node) const;
  SpeakerState& enroll(ip::NodeId node);
  void add_session(ip::NodeId a, ip::NodeId b);
  /// Re-run best-path selection for `id` at `node`; propagate on change.
  void decide(ip::NodeId node, NlriId id);
  /// Peers `node` must advertise to when its best for a key came from
  /// `sender` (kInvalidNode = locally originated).
  [[nodiscard]] std::vector<ip::NodeId> advertise_targets(
      ip::NodeId node, ip::NodeId sender) const;
  /// Stage the (re-)advertisement or withdraw (`route` null) of `id` in
  /// the RibOut.
  void propagate(ip::NodeId node, ip::NodeId sender, NlriId id,
                 const CompactRoute* route);
  /// Drain `node`'s update groups into packed session messages.
  void flush(ip::NodeId node);
  void apply_packed(ip::NodeId at, ip::NodeId from,
                    const std::vector<RibOut::Entry>& entries);

  static bool better_compact(const CompactRoute& a,
                             const CompactRoute& b) noexcept;

  /// Hand `route` to every observer; decide() refuses to run meanwhile.
  void notify(ip::NodeId node, const VpnRoute& route, bool withdrawn);

  ControlPlane& cp_;
  Mode mode_;
  std::vector<ip::NodeId> speakers_;
  std::vector<ip::NodeId> reflectors_;
  std::vector<SpeakerState> state_;  ///< by node id
  NlriTable nlri_;
  std::vector<std::pair<ip::NodeId, ip::NodeId>> sessions_;
  std::vector<RouteObserver> observers_;
  /// The route observers see on a best-path change, rebuilt in place so
  /// its route-target vector keeps its capacity across changes.
  VpnRoute notified_;
  bool notifying_ = false;  ///< an observer call is on the stack
  RtSetPool pool_;
  RibOut ribout_;
  bool started_ = false;
};

}  // namespace mvpn::routing
