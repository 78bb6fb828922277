#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mpls/domain.hpp"
#include "routing/control_plane.hpp"
#include "routing/igp.hpp"

namespace mvpn::mpls {

/// Label Distribution Protocol (downstream-unsolicited, independent
/// control, liberal label retention) — distributes labels for the PE
/// loopback FECs so that every provider router can label-switch toward any
/// egress PE ("piggybacking labels ... or by using a label distribution
/// protocol", paper §4).
///
/// Mechanics:
///  * the FEC owner (egress PE) advertises implicit-null to its neighbors
///    (requesting penultimate-hop popping);
///  * every other LSR allocates a local label for the FEC on first sight
///    and advertises it to all LDP neighbors;
///  * received mappings are retained per neighbor (liberal retention), and
///    the LFIB entry follows the IGP next hop — when SPF changes the next
///    hop, the LFIB is re-pointed without new signaling.
class Ldp {
 public:
  Ldp(routing::ControlPlane& cp, routing::Igp& igp, MplsDomain& domain);

  /// Participate `router` in LDP (must be an IGP member).
  void enable_router(ip::NodeId router);

  /// Declare `egress` as the FEC owner for `fec` (its loopback host route)
  /// and kick off distribution.
  void announce_egress(ip::NodeId egress, const ip::Prefix& fec);

  /// FEC-to-NHLFE entry at an ingress LSR: what to push to reach `fec`.
  struct Ftn {
    std::uint32_t out_label = 0;
    ip::NodeId next_hop = ip::kInvalidNode;
    ip::IfIndex out_iface = ip::kInvalidIf;
    bool implicit_null = false;  ///< PHP: send without a tunnel label
  };
  [[nodiscard]] std::optional<Ftn> ftn(ip::NodeId router,
                                       const ip::Prefix& fec) const;

  /// Withdraw every binding for `fec` domain-wide: the owner retracts the
  /// mapping, each LSR tears the matching LFIB entry and forgets the FEC.
  /// Modeled as an instantaneous control action (the per-hop withdraw
  /// messages are not simulated); ingress FTN lookups miss immediately.
  void withdraw_fec(const ip::Prefix& fec);

  /// Label bindings (LIB size) held at `router` — a state metric for E1.
  [[nodiscard]] std::size_t bindings_at(ip::NodeId router) const;
  /// FECs announced and not withdrawn.
  [[nodiscard]] std::size_t fec_count() const;

  /// Bumped on every mapping / withdraw / SPF re-point; flow caches
  /// validate cached FTN resolutions against it.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

 private:
  /// Dense id of an interned FEC prefix (INTERNALS.md §15).
  using FecId = std::uint32_t;

  /// One FEC at one router. `owner` is kInvalidNode until the router
  /// learns the FEC (and again after a withdraw).
  struct FecState {
    ip::NodeId owner = ip::kInvalidNode;
    std::uint32_t local_label = ip::kNoLabel;  ///< kNoLabel at the egress (PHP)
  };
  static_assert(sizeof(FecState) == 8);

  /// One router's LIB, flat: a row per FEC, and the label each LDP
  /// neighbour advertised for it (liberal retention) in one array indexed
  /// [FEC id][neighbour slot], kNoLabel where none has. A neighbour's slot
  /// is its place among the router's enabled neighbours in adjacency
  /// order, fixed when the router's first row is made.
  struct RouterLib {
    std::vector<FecState> fecs;         ///< by FEC id
    std::vector<ip::NodeId> peers;      ///< by neighbour slot
    std::vector<std::uint32_t> remote;  ///< [FEC id * peers.size() + slot]
  };

  /// First entry of `by_prefix_` whose prefix is not below `fec`.
  [[nodiscard]] std::vector<FecId>::const_iterator lower_bound(
      const ip::Prefix& fec) const;
  /// Id of `fec`, interning it on first sight.
  FecId intern(const ip::Prefix& fec);
  /// Id of `fec`, or nullopt when it was never announced.
  [[nodiscard]] std::optional<FecId> fec_id(const ip::Prefix& fec) const;
  /// `router`'s row entry for `id`, growing the row to every interned FEC.
  FecState& fec_state(ip::NodeId router, FecId id);
  /// `router`'s entry for `id` when it knows the FEC, else nullptr.
  [[nodiscard]] const FecState* known(ip::NodeId router, FecId id) const;
  [[nodiscard]] bool enabled(ip::NodeId router) const {
    return router < enabled_.size() && enabled_[router];
  }

  /// The label `nb` advertised to `router` for `id`, or nullptr.
  [[nodiscard]] const std::uint32_t* remote_label(ip::NodeId router, FecId id,
                                                  ip::NodeId nb) const;
  /// `lib`'s slot for neighbour `from`, widening every row by one for a
  /// neighbour enabled after the slots were laid out.
  static std::size_t peer_slot(RouterLib& lib, ip::NodeId from);
  void learn_fec(ip::NodeId router, FecId id, ip::NodeId owner);
  void advertise(ip::NodeId router, FecId id, ip::NodeId owner,
                 std::uint32_t label);
  void receive_mapping(ip::NodeId at, ip::NodeId from, FecId id,
                       ip::NodeId owner, std::uint32_t label);
  void refresh_lfib(ip::NodeId router, FecId id);
  void on_spf(ip::NodeId router);

  routing::ControlPlane& cp_;
  routing::Igp& igp_;
  MplsDomain& domain_;
  std::vector<bool> enabled_;                 ///< by node id
  std::vector<ip::Prefix> fecs_;              ///< by FEC id
  std::vector<FecId> by_prefix_;              ///< FEC ids in prefix order
  std::vector<bool> announced_;               ///< by FEC id
  std::vector<RouterLib> lib_;                ///< by node id
  std::uint64_t generation_ = 1;
};

}  // namespace mvpn::mpls
