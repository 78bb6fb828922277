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
/// Distribution is scoped by route-target membership (RFC 4684): each PE
/// declares the RTs its VRFs import, and a route goes to a PE only when
/// its RTs meet that set, so a PE holds BGP state only for the VPNs it
/// serves. One target rule (`advertise_targets`) decides every send, and
/// every best-path change withdraws the route from the peers it no longer
/// reaches (RFC 4271 §9.2).
///
/// Advertisements and withdraws stage through a per-speaker RibOut (update
/// groups keyed by export-policy peer set), flushed by one scheduled event
/// per speaker per flush instant into MTU-bounded multi-NLRI messages
/// (INTERNALS.md §15). Each (RD, prefix) is interned to a dense `NlriId`
/// on first origination; speakers are indexed by node id, and each holds
/// a dense row per NLRI id it was offered, shared by its Adj-RIB-In and
/// Loc-RIB (§15.2). Final Loc-RIBs are pinned by the fingerprints in
/// tests/golden/loc_rib.txt and vpn_routes.txt.
class Bgp {
 public:
  enum class Mode { kFullMesh, kRouteReflector };

  explicit Bgp(ControlPlane& cp, Mode mode = Mode::kFullMesh);

  /// Enroll a PE speaker (a route-reflector client in RR mode).
  void add_speaker(ip::NodeId pe);
  /// Enroll a route reflector (RR mode only; RRs full-mesh among
  /// themselves and serve every speaker as a client).
  void add_route_reflector(ip::NodeId rr);

  /// Establish all sessions per the mode (counts OPEN exchanges). Each
  /// speaker's membership rides with its session establishment: peers know
  /// it from the start, and one `bgp.rtc` message is counted per session
  /// and direction whose speaker declared a non-empty set.
  void start();

  /// Declare the route targets `pe`'s VRFs import (its RT membership,
  /// RFC 4684). A speaker is sent only the VPN routes whose RTs meet its
  /// membership — nothing before its first declaration; reflectors take
  /// every route. After start a changed set travels to every session peer
  /// as a `bgp.rtc` message, and each peer then sends the routes the new
  /// set reaches and withdraws the ones it no longer does.
  void set_membership(ip::NodeId pe, std::vector<RouteTarget> rts);

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
  /// `node`'s Adj-RIB-In offers as (sender, route), sorted by (RD, prefix)
  /// then sender, each route built on the call. Sender kInvalidNode marks
  /// a local origination.
  [[nodiscard]] std::vector<std::pair<ip::NodeId, VpnRoute>> adj_rib_in(
      ip::NodeId node) const;
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
  /// `node`'s own RIB footprint: its Adj-RIB-In (row index, rows, offer
  /// arena) plus its Loc-RIB rows, by capacity.
  [[nodiscard]] std::size_t rib_bytes(ip::NodeId node) const;
  /// `node`'s dense row of NLRI `id` (AdjRibIn::kNil when `node` was never
  /// offered it). Rows are numbered per speaker in first-offer order and
  /// never recycled, so per-(speaker, key) state elsewhere can be a
  /// vector sized by `row_count`.
  [[nodiscard]] std::uint32_t row_of(ip::NodeId node, NlriId id) const {
    return speaker(node).adj_rib_in.row_of(id);
  }
  [[nodiscard]] std::size_t row_count(ip::NodeId node) const {
    return speaker(node).adj_rib_in.row_count();
  }

 private:
  /// One key's Loc-RIB slot at one speaker. Only the compact best path
  /// is stored; every VpnRoute handed out is materialized from it on the
  /// call, so a Loc-RIB costs 32 B per row of the speaker.
  struct LocEntry {
    bool present = false;
    /// Which peer (or kInvalidNode: local) supplied the best, for
    /// reflection.
    ip::NodeId sender = ip::kInvalidNode;
    CompactRoute compact;
  };
  static_assert(sizeof(LocEntry) <= 32);
  /// Memberships are RT-set pool ids; 0 is the empty set, which every
  /// speaker has until it declares one.
  struct Peer {
    ip::NodeId node = ip::kInvalidNode;
    std::uint16_t membership = 0;  ///< what this peer last declared to us
  };
  struct SpeakerState {
    bool enrolled = false;
    bool reflector = false;
    bool failed = false;  ///< fail_speaker ran: every session is gone
    std::vector<Peer> peers;
    std::uint16_t membership = 0;  ///< own declared RT set
    /// Adj-RIB-In: per row, the route each sender currently offers.
    /// Sender kInvalidNode marks locally-originated routes.
    AdjRibIn adj_rib_in;
    std::vector<LocEntry> loc_rib;  ///< by adj_rib_in row
    std::size_t loc_rib_size = 0;
  };

  /// `node`'s state; std::out_of_range when it is not enrolled.
  SpeakerState& speaker(ip::NodeId node);
  [[nodiscard]] const SpeakerState& speaker(ip::NodeId node) const;
  SpeakerState& enroll(ip::NodeId node);
  void add_session(ip::NodeId a, ip::NodeId b);
  /// Re-run best-path selection for `id` at `node`; propagate on change.
  void decide(ip::NodeId node, NlriId id);
  /// The target rule: the peers `node` advertises its best `route` for a
  /// key to when that best came from `sender` (kInvalidNode = locally
  /// originated), in `peers` order. Every send and every withdraw is
  /// decided by it.
  [[nodiscard]] std::vector<ip::NodeId> advertise_targets(
      ip::NodeId node, ip::NodeId sender, const CompactRoute& route) const;
  /// Stage the advertisement or withdraw (`route` null) of `id` toward
  /// `targets` in the RibOut.
  void propagate(ip::NodeId node, std::vector<ip::NodeId> targets, NlriId id,
                 const CompactRoute* route);
  /// `from` declared membership `set` to `at`: send or withdraw the
  /// Loc-RIB routes whose targets at `at` gain or lose `from`.
  void apply_membership(ip::NodeId at, ip::NodeId from, std::uint16_t set);
  /// `st`'s present Loc-RIB rows in (RD, prefix) order.
  [[nodiscard]] std::vector<std::uint32_t> rows_in_key_order(
      const SpeakerState& st) const;
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
