#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "ip/address.hpp"
#include "ip/route_table.hpp"
#include "routing/bgp_types.hpp"

namespace mvpn::routing {

/// Interned route-target sets. VPN routes carry the same handful of export
/// RT sets over and over (one per VPN, typically), so the Adj-RIB-In stores
/// a u16 pool index instead of a heap vector per route — the same trick the
/// FlowSet engine plays with its Template table. Pool ids are assigned in
/// first-intern order, which is deterministic for a deterministic event
/// sequence.
class RtSetPool {
 public:
  [[nodiscard]] std::uint16_t intern(const std::vector<RouteTarget>& rts) {
    auto it = index_.find(rts);
    if (it != index_.end()) return it->second;
    if (sets_.size() > 0xFFFF) {
      throw std::length_error("RtSetPool: more than 65536 distinct RT sets");
    }
    const auto id = static_cast<std::uint16_t>(sets_.size());
    auto [ins, ok] = index_.emplace(rts, id);
    (void)ok;
    sets_.push_back(&ins->first);
    return id;
  }

  [[nodiscard]] const std::vector<RouteTarget>& get(std::uint16_t id) const {
    return *sets_.at(id);
  }

  [[nodiscard]] std::size_t size() const noexcept { return sets_.size(); }

  /// Approximate heap footprint (pool contents, not the index overhead).
  [[nodiscard]] std::size_t bytes() const noexcept {
    std::size_t n = sets_.capacity() * sizeof(void*);
    for (const auto* s : sets_) n += sizeof(*s) + s->capacity() * sizeof(RouteTarget);
    return n;
  }

 private:
  std::map<std::vector<RouteTarget>, std::uint16_t> index_;
  std::vector<const std::vector<RouteTarget>*> sets_;
};

/// Fixed-size (24 B) attribute block for one VPN-IPv4 route: everything a
/// `VpnRoute` carries, with the RT vector replaced by a pool index. The
/// (RD, prefix) key is the NLRI id's (`NlriTable`), not stored here.
struct CompactRoute {
  std::uint32_t next_hop = 0;  ///< Ipv4Address::value() of the egress PE
  ip::NodeId next_hop_node = ip::kInvalidNode;
  std::uint32_t vpn_label = ip::kNoLabel;
  std::uint32_t local_pref = 100;
  ip::NodeId originator = ip::kInvalidNode;
  std::uint16_t rt_set = 0;

  friend bool operator==(const CompactRoute&, const CompactRoute&) = default;
};

[[nodiscard]] inline CompactRoute compress(const VpnRoute& r, RtSetPool& pool) {
  CompactRoute c;
  c.next_hop = r.next_hop.value();
  c.next_hop_node = r.next_hop_node;
  c.vpn_label = r.vpn_label;
  c.local_pref = r.local_pref;
  c.originator = r.originator;
  c.rt_set = pool.intern(r.route_targets);
  return c;
}

/// Rebuild `out` from `key` and `c` in place. `out.route_targets` keeps
/// its capacity, so a reused route allocates only when an RT set outgrows
/// every set it held before.
inline void materialize_into(const VpnRouteKey& key, const CompactRoute& c,
                             const RtSetPool& pool, VpnRoute& out) {
  out.rd = key.first;
  out.prefix = key.second;
  out.next_hop = ip::Ipv4Address(c.next_hop);
  out.next_hop_node = c.next_hop_node;
  out.vpn_label = c.vpn_label;
  const std::vector<RouteTarget>& rts = pool.get(c.rt_set);
  out.route_targets.assign(rts.begin(), rts.end());
  out.local_pref = c.local_pref;
  out.originator = c.originator;
}

[[nodiscard]] inline VpnRoute materialize(const VpnRouteKey& key,
                                          const CompactRoute& c,
                                          const RtSetPool& pool) {
  VpnRoute r;
  materialize_into(key, c, pool, r);
  return r;
}

/// Dense id of an interned (RD, prefix) VPN-IPv4 key (INTERNALS.md §15.2).
using NlriId = std::uint32_t;
inline constexpr NlriId kNoNlri = 0xFFFFFFFFu;

/// The (RD, prefix) keys a BGP instance has seen, each interned to a dense
/// `NlriId` on first origination so per-speaker RIB state can be plain
/// vectors indexed by it. Ids are handed out in first-intern order and
/// never recycled; a linear-probe table of ids answers key lookups. Id
/// order is not key order: callers that expose an order sort by `key`.
class NlriTable {
 public:
  NlriTable() { slots_.assign(kInitialSlots, kNoNlri); }

  /// Id of `key`, interning it on first sight.
  NlriId intern(const VpnRouteKey& key) {
    const std::size_t i = probe(key);
    if (slots_[i] != kNoNlri) return slots_[i];
    const auto id = static_cast<NlriId>(keys_.size());
    keys_.push_back(key);
    slots_[i] = id;
    if (keys_.size() * 10 >= slots_.size() * 7) grow();
    return id;
  }

  /// Id of `key`, or kNoNlri when it was never interned.
  [[nodiscard]] NlriId find(const VpnRouteKey& key) const noexcept {
    return slots_[probe(key)];
  }

  [[nodiscard]] const VpnRouteKey& key(NlriId id) const { return keys_[id]; }
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

  /// Key vector + slot table capacity.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return keys_.capacity() * sizeof(VpnRouteKey) +
           slots_.capacity() * sizeof(NlriId);
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;

  static std::uint64_t hash_key(const VpnRouteKey& key) noexcept {
    const std::uint64_t a =
        (std::uint64_t{key.first.asn} << 32) | key.first.assigned;
    const std::uint64_t b =
        (std::uint64_t{key.second.address().value()} << 8) |
        key.second.length();
    std::uint64_t x = a * 0x9E3779B97F4A7C15ull ^ (b + 0xD1B54A32D192ED03ull);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
  }

  /// The slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(const VpnRouteKey& key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_key(key) & mask;
    while (slots_[i] != kNoNlri && keys_[slots_[i]] != key) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    slots_.assign(slots_.size() * 2, kNoNlri);
    const std::size_t mask = slots_.size() - 1;
    for (NlriId id = 0; id < keys_.size(); ++id) {
      std::size_t i = hash_key(keys_[id]) & mask;
      while (slots_[i] != kNoNlri) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::vector<VpnRouteKey> keys_;  ///< by NlriId
  std::vector<NlriId> slots_;      ///< power-of-two probe table of ids
};

/// One speaker's Adj-RIB-In. Each NLRI id the speaker has been offered gets
/// a dense row on first offer (INTERNALS.md §15.2): a linear-probe table
/// maps the id to its row, and each row heads a chain over a free-listed
/// arena of 32 B offer nodes, each holding one sender's `CompactRoute`. So
/// the RIB is sized by the keys this speaker holds, not by how many keys
/// the whole BGP instance has interned; the speaker's Loc-RIB and the VPN
/// importer index reuse the same row numbers. Rows are never recycled.
/// Iteration order within a chain is most-recent-first; callers needing a
/// sender tie-break make it explicit.
class AdjRibIn {
 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// Row of `id`, or kNil when this RIB was never offered it.
  [[nodiscard]] std::uint32_t row_of(NlriId id) const noexcept {
    return slots_.empty() ? kNil : slots_[probe(id)];
  }
  [[nodiscard]] NlriId nlri_of(std::uint32_t row) const {
    return rows_[row].id;
  }
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// Insert or replace the offer from `sender` for `id`.
  void upsert(NlriId id, ip::NodeId sender, const CompactRoute& route) {
    std::uint32_t& head = rows_[ensure_row(id)].head;
    for (std::uint32_t o = head; o != kNil; o = arena_[o].next) {
      if (arena_[o].sender == sender) {
        arena_[o].route = route;
        return;
      }
    }
    if (head == kNil) ++key_count_;
    const std::uint32_t node = alloc_offer();
    // alloc_offer may grow the arena, never the rows: `head` stays valid.
    arena_[node].sender = sender;
    arena_[node].route = route;
    arena_[node].next = head;
    head = node;
    ++route_count_;
  }

  /// Remove the offer from `sender`; returns false when absent.
  bool erase(NlriId id, ip::NodeId sender) {
    const std::uint32_t row = row_of(id);
    if (row == kNil) return false;
    std::uint32_t* link = &rows_[row].head;
    for (std::uint32_t o = *link; o != kNil; o = arena_[o].next) {
      if (arena_[o].sender == sender) {
        *link = arena_[o].next;
        free_offer(o);
        --route_count_;
        if (rows_[row].head == kNil) --key_count_;
        return true;
      }
      link = &arena_[o].next;
    }
    return false;
  }

  /// Visit every (sender, route) offer for `id`.
  template <typename F>
  void for_each(NlriId id, F&& fn) const {
    const std::uint32_t row = row_of(id);
    if (row == kNil) return;
    for (std::uint32_t o = rows_[row].head; o != kNil; o = arena_[o].next) {
      fn(arena_[o].sender, arena_[o].route);
    }
  }

  /// Drop every offer learned from `sender`; returns the affected ids in
  /// ascending id order (callers wanting key order sort them by key).
  std::vector<NlriId> erase_sender(ip::NodeId sender) {
    std::vector<NlriId> affected;
    for (Row& row : rows_) {
      std::uint32_t* link = &row.head;
      bool hit = false;
      for (std::uint32_t o = *link; o != kNil;) {
        const std::uint32_t nxt = arena_[o].next;
        if (arena_[o].sender == sender) {
          *link = nxt;
          free_offer(o);
          --route_count_;
          hit = true;
        } else {
          link = &arena_[o].next;
        }
        o = nxt;
      }
      if (!hit) continue;
      affected.push_back(row.id);
      if (row.head == kNil) --key_count_;
    }
    std::sort(affected.begin(), affected.end());
    return affected;
  }

  [[nodiscard]] std::size_t route_count() const noexcept {
    return route_count_;
  }
  [[nodiscard]] std::size_t key_count() const noexcept { return key_count_; }

  /// Row index + arena footprint (capacity, not occupancy — what the
  /// process actually pays).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return slots_.capacity() * sizeof(std::uint32_t) +
           rows_.capacity() * sizeof(Row) + arena_.capacity() * sizeof(Offer);
  }

 private:
  struct Row {
    NlriId id = kNoNlri;
    std::uint32_t head = kNil;  ///< newest offer; kNil when none
  };
  struct Offer {
    ip::NodeId sender = ip::kInvalidNode;
    std::uint32_t next = kNil;
    CompactRoute route;
  };
  static constexpr std::size_t kInitialSlots = 16;

  /// The slot holding `id`'s row, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(NlriId id) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (std::uint64_t{id} * 0x9E3779B97F4A7C15ull >> 32) & mask;
    while (slots_[i] != kNil && rows_[slots_[i]].id != id) i = (i + 1) & mask;
    return i;
  }

  std::uint32_t ensure_row(NlriId id) {
    if (slots_.empty()) slots_.assign(kInitialSlots, kNil);
    const std::size_t i = probe(id);
    if (slots_[i] != kNil) return slots_[i];
    const auto row = static_cast<std::uint32_t>(rows_.size());
    rows_.push_back(Row{id, kNil});
    slots_[i] = row;
    if (rows_.size() * 10 >= slots_.size() * 7) {
      slots_.assign(slots_.size() * 2, kNil);
      for (std::uint32_t r = 0; r < rows_.size(); ++r) {
        slots_[probe(rows_[r].id)] = r;
      }
    }
    return row;
  }

  std::uint32_t alloc_offer() {
    if (free_head_ != kNil) {
      const std::uint32_t o = free_head_;
      free_head_ = arena_[o].next;
      return o;
    }
    arena_.emplace_back();
    return static_cast<std::uint32_t>(arena_.size() - 1);
  }

  void free_offer(std::uint32_t o) {
    arena_[o].next = free_head_;
    free_head_ = o;
  }

  std::vector<std::uint32_t> slots_;  ///< power-of-two probe table of rows
  std::vector<Row> rows_;             ///< by row, in first-offer order
  std::vector<Offer> arena_;
  std::uint32_t free_head_ = kNil;
  std::size_t key_count_ = 0;    ///< rows with at least one offer
  std::size_t route_count_ = 0;  ///< live (id, sender) offers
};

}  // namespace mvpn::routing
