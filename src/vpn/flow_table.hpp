#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mvpn::vpn {

/// Demand-sized open-addressed table behind the router's flow fastpath
/// caches (INTERNALS §10).
///
/// A table allocates kStartSlots entries on its first lookup. A key's home
/// slot is the Fibonacci hash of its 32-bit home key (the flow id, or the
/// in-label for transit) scaled to the current capacity, and a lookup scans
/// the kWindow slots from there. When that window holds neither the wanted
/// entry nor an empty slot, the table doubles and re-places its live
/// entries by their stored home keys; at `kCap` it stops growing and the
/// home slot is evicted instead. Only a miss can grow a table, so traffic
/// whose flows are all resident never allocates.
///
/// `Entry` is a plain slot with a `gen_sum` member (0 = empty) and a
/// `home_key()` accessor.
template <class Entry, std::size_t kCap>
class FlowTable {
 public:
  static constexpr std::size_t kStartSlots = 16;
  /// A table doubles as soon as any one window is full; with 4 slots the
  /// tables doubled while only a quarter of their slots were in use
  /// (INTERNALS §10).
  static constexpr std::size_t kWindow = 8;
  static_assert(std::has_single_bit(kCap) && kCap >= kStartSlots);

  /// `slot` holds the entry `match` accepted when `found`; otherwise it is
  /// where the caller records the new entry (an empty slot, or the evicted
  /// home slot once the table is at its cap). Valid until the next find().
  struct Probe {
    Entry* slot = nullptr;
    bool found = false;
  };

  template <class Match>
  [[nodiscard]] Probe find(std::uint32_t home_key, Match&& match) {
    if (slots_.empty()) grow();
    for (;;) {
      const std::size_t home = home_of(home_key);
      Entry* empty = nullptr;
      for (std::size_t i = 0; i < kWindow; ++i) {
        Entry& e = slots_[(home + i) & mask_];
        if (e.gen_sum == 0) {
          if (empty == nullptr) empty = &e;
        } else if (match(e)) {
          return {&e, true};
        }
      }
      if (empty != nullptr) return {empty, false};
      if (mask_ + 1 == kCap) return {&slots_[home], false};
      grow();
    }
  }

  /// Allocated entries (0 until the first lookup).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  [[nodiscard]] std::size_t home_of(std::uint32_t key) const noexcept {
    return (key * 0x9E3779B1u) >> shift_;
  }

  /// Allocate kStartSlots on first use, else double and re-place.
  void grow() {
    std::vector<Entry> old(slots_.empty() ? kStartSlots : 2 * slots_.size());
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    shift_ = 32 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (const Entry& e : old) {
      if (e.gen_sum == 0) continue;
      const std::size_t home = home_of(e.home_key());
      // A live entry whose new window is already full is dropped: it is a
      // cache entry, so the flow's next packet just resolves again.
      for (std::size_t i = 0; i < kWindow; ++i) {
        Entry& dst = slots_[(home + i) & mask_];
        if (dst.gen_sum == 0) {
          dst = e;
          break;
        }
      }
    }
  }

  std::vector<Entry> slots_;
  std::size_t mask_ = 0;  ///< capacity - 1
  unsigned shift_ = 0;    ///< 32 - log2(capacity): the hash's top bits
};

}  // namespace mvpn::vpn
