#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ip/route_table.hpp"
#include "routing/bgp_types.hpp"
#include "routing/rib.hpp"

namespace mvpn::routing {

/// Per-speaker MP-BGP update staging: the RibOut.
///
/// Instead of one scheduler event + one heap closure per (route, peer),
/// every advertisement or withdraw is enqueued ONCE into the update group
/// for its export-policy peer set (contrail's RibOut update aggregation
/// shape). A single flush event per speaker then drains all groups, packs
/// queued NLRI into MTU-bounded update messages — shared path attributes
/// written once per distinct attribute set — and emits one session message
/// per (peer, packed message).
///
/// Supersede rule: re-advertising (or withdrawing) a key that is already
/// queued kills the queued entry in place — the flap never reaches the wire
/// (flap damping for free). When the superseded entry targeted peers the
/// new one does not (an RR whose best path moved to a different sender),
/// its payload is re-queued for exactly that residual peer set, so no peer
/// is starved of the update it was owed. Invariant: per key, the peer sets
/// of live queued entries are pairwise disjoint — each peer sees at most
/// one queued action per key, making the flush order across groups
/// irrelevant to the receiver's final state.
class RibOut {
 public:
  /// Packed-message byte budget (a conventional MTU-ish bound; real BGP
  /// caps messages at 4096 B).
  static constexpr std::size_t kMaxMessageBytes = 4096;

  struct Entry {
    NlriId nlri = kNoNlri;
    CompactRoute route;    ///< meaningful when !withdraw
    bool withdraw = false;
    bool dead = false;     ///< superseded while queued; never hits the wire
  };

  /// One packed update message bound for every peer of its group. The
  /// entry vector is shared across those peers — the attribute/NLRI block
  /// is materialized once, not per receiver.
  struct Message {
    std::shared_ptr<const std::vector<ip::NodeId>> peers;
    std::shared_ptr<std::vector<Entry>> entries;
    std::size_t wire_bytes = 0;
    std::size_t reach = 0;    ///< advertised NLRI in this message
    std::size_t unreach = 0;  ///< withdrawn NLRI in this message
  };

  /// Queue an advertisement (`route` non-null) or withdraw (`route` null)
  /// of `nlri` from `node` toward `peers`. Returns true when the caller
  /// must arm a flush event for `node` (i.e. none was pending).
  bool enqueue(ip::NodeId node, std::vector<ip::NodeId> peers, NlriId nlri,
               const CompactRoute* route);

  /// Pack and return every queued live entry for `node`, clearing its
  /// queues and disarming the flush. `pool` resolves RT-set sizes for
  /// attribute byte accounting, `keys` each NLRI's prefix length.
  std::vector<Message> drain(ip::NodeId node, const RtSetPool& pool,
                             const NlriTable& keys);

  /// Forget everything queued at `node` (speaker death: queued updates die
  /// with the TCP sessions).
  void drop_node(ip::NodeId node);

  [[nodiscard]] bool armed(ip::NodeId node) const {
    return node < nodes_.size() && nodes_[node].armed;
  }

  /// --- counters ---------------------------------------------------------
  [[nodiscard]] std::uint64_t nlri_enqueued() const noexcept {
    return nlri_enqueued_;
  }
  [[nodiscard]] std::uint64_t superseded() const noexcept {
    return superseded_;
  }
  [[nodiscard]] std::uint64_t messages_packed() const noexcept {
    return messages_packed_;
  }
  [[nodiscard]] std::uint64_t nlri_packed() const noexcept {
    return nlri_packed_;
  }
  [[nodiscard]] std::uint64_t wire_bytes_packed() const noexcept {
    return wire_bytes_packed_;
  }
  [[nodiscard]] std::uint64_t flushes() const noexcept { return flushes_; }
  [[nodiscard]] std::uint64_t group_count() const noexcept {
    std::uint64_t n = 0;
    for (const NodeState& ns : nodes_) n += ns.groups.size();
    return n;
  }

 private:
  struct Group {
    std::vector<ip::NodeId> peers;  ///< sorted; the group identity
    std::vector<Entry> queue;
  };
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// One live queued entry of a key: its (group id, queue slot), chained
  /// to the key's previously queued entry.
  struct Ref {
    std::uint32_t gid = 0;
    std::uint32_t slot = 0;
    std::uint32_t older = kNil;
  };
  struct NodeState {
    bool live = false;  ///< enqueued since creation or the last drop_node
    std::vector<Group> groups;
    std::map<std::vector<ip::NodeId>, std::uint32_t> group_of;
    /// Per NLRI id, the newest live queued entry in `refs` (kNil when the
    /// key has none). A key's live entries have pairwise disjoint peer
    /// sets; both vectors are reset at each drain.
    std::vector<std::uint32_t> queued;
    std::vector<Ref> refs;
    bool armed = false;
  };

  void append(NodeState& ns, std::vector<ip::NodeId> peers, Entry entry);
  /// Chain the entry at (`gid`, `slot`) as `nlri`'s newest live one.
  static void link(NodeState& ns, NlriId nlri, std::uint32_t gid,
                   std::uint32_t slot);

  std::vector<NodeState> nodes_;  ///< by node id
  std::uint64_t nlri_enqueued_ = 0;
  std::uint64_t superseded_ = 0;
  std::uint64_t messages_packed_ = 0;
  std::uint64_t nlri_packed_ = 0;
  std::uint64_t wire_bytes_packed_ = 0;
  std::uint64_t flushes_ = 0;
};

}  // namespace mvpn::routing
