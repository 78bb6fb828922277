#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace mvpn::vpn {

/// Demand-sized open-addressed table behind the router's flow fastpath
/// caches (INTERNALS §10).
///
/// A table allocates kStartSlots entries on its first lookup. Every entry
/// is homed by its matched key: the key `match` compares, folded to 64
/// bits (`Entry::tag_key()`), is hashed once, its top bits scaled to the
/// current capacity give the home slot, and a lookup scans the kWindow
/// slots from there. Entries that match each other therefore share one
/// home, and a key is held once however many flows use it. When the
/// window holds neither the wanted entry nor an empty slot, the table
/// doubles and re-places its live entries by their keys; at `kCap` it
/// stops growing and the home slot is evicted instead. Only a miss can
/// grow a table, so traffic whose keys are all resident never allocates.
///
/// Beside the entries sits one tag byte per slot: 0 for an empty slot,
/// else eight bits of the same hash that the home slot does not use
/// (never 0). A probe reads the window's tags and touches an entry only
/// when its tag equals the wanted key's, so a miss scans 16 bytes instead
/// of 16 entries. Were the tag taken from the home bits, every entry in
/// a window would share it and the filter would pass them all.
///
/// `Entry` is a plain slot with a `gen_sum` member and a `tag_key()`
/// accessor. A slot is free exactly when its `gen_sum` is 0 and its tag
/// is 0; callers keep the two in step by changing `gen_sum` only through
/// commit() and release().
template <class Entry, std::size_t kCap>
class FlowTable {
 public:
  static constexpr std::size_t kStartSlots = 16;
  /// A table doubles as soon as any one window is full, so the window
  /// sets how full tables get before they grow: 26% of slots in use with
  /// 4, 41% with 8 (INTERNALS §10). Tags keep a 16-slot miss at one
  /// 16-byte read.
  static constexpr std::size_t kWindow = 16;
  /// The home slot takes the hash's top log2(capacity) bits and the tag
  /// bits 32..39, so the two stay disjoint up to 2^24 slots.
  static_assert(std::has_single_bit(kCap) && kCap >= kStartSlots &&
                kCap <= (std::size_t{1} << 24));

  /// `slot` holds the entry `match` accepted when `found`; otherwise it is
  /// where the caller records the new entry (an empty slot, or the evicted
  /// home slot once the table is at its cap). Valid until the next find().
  struct Probe {
    Entry* slot = nullptr;
    bool found = false;
  };

  /// `key` must equal the `tag_key()` of every entry `match` accepts.
  template <class Match>
  [[nodiscard]] Probe find(std::uint64_t key, Match&& match) {
    if (slots_ == nullptr) grow();
    const std::uint64_t h = hash(key);
    const std::uint8_t tag = tag_of(h);
    for (;;) {
      const std::size_t home = h >> shift_;
      std::size_t empty = kNoSlot;
      for (std::size_t i = 0; i < kWindow; ++i) {
        const std::size_t at = (home + i) & mask_;
        const std::uint8_t t = tags_[at];
        if (t == tag) {
          if (match(slots_[at])) return {&slots_[at], true};
        } else if (t == 0 && empty == kNoSlot) {
          empty = at;
        }
      }
      if (empty != kNoSlot) return {&slots_[empty], false};
      if (mask_ + 1 == kCap) return {&slots_[home], false};
      grow();
    }
  }

  /// Make `e` (a slot find() returned, its keys already written) live
  /// under `gen_sum`, which must not be 0.
  void commit(Entry* e, std::uint64_t gen_sum) noexcept {
    e->gen_sum = gen_sum;
    tags_[static_cast<std::size_t>(e - slots_.get())] =
        tag_of(hash(e->tag_key()));
  }

  /// Free `e` (a slot find() returned): a stale entry, or an evicted one
  /// about to be re-resolved.
  void release(Entry* e) noexcept {
    e->gen_sum = 0;
    tags_[static_cast<std::size_t>(e - slots_.get())] = 0;
  }

  /// The home slot of `key` in a table of `capacity` slots (a power of two
  /// from kStartSlots to kCap): the hash's top log2(capacity) bits. Keys
  /// that share a home at kCap share it at every smaller capacity too.
  [[nodiscard]] static std::size_t home_slot(std::uint64_t key,
                                             std::size_t capacity) noexcept {
    return hash(key) >> (64 - std::countr_zero(capacity));
  }

  /// Allocated entries (0 until the first lookup).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_ != nullptr ? mask_ + 1 : 0;
  }

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// A 64-bit Fibonacci hash of the key with its high half folded into
  /// the low one first, so every key bit reaches both the home bits and
  /// the tag bits.
  [[nodiscard]] static std::uint64_t hash(std::uint64_t key) noexcept {
    return (key ^ (key >> 32)) * 0x9E3779B97F4A7C15ull;
  }
  /// Bits 32..39 of the hash; never 0, the empty tag.
  [[nodiscard]] static std::uint8_t tag_of(std::uint64_t h) noexcept {
    const auto t = static_cast<std::uint8_t>(h >> 32);
    return t != 0 ? t : 1;
  }

  /// Allocate kStartSlots on first use, else double and re-place.
  void grow() {
    const std::size_t old_n = capacity();
    const std::size_t n = old_n == 0 ? kStartSlots : 2 * old_n;
    std::unique_ptr<Entry[]> old = std::move(slots_);
    std::unique_ptr<std::uint8_t[]> old_tags = std::move(tags_);
    slots_ = std::make_unique<Entry[]>(n);
    tags_ = std::make_unique<std::uint8_t[]>(n);
    mask_ = n - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    for (std::size_t j = 0; j < old_n; ++j) {
      if (old_tags[j] == 0) continue;
      const std::size_t home = home_slot(old[j].tag_key(), n);
      // A live entry whose new window is already full is dropped: it is a
      // cache entry, so the next packet with its key just resolves again.
      for (std::size_t i = 0; i < kWindow; ++i) {
        const std::size_t at = (home + i) & mask_;
        if (tags_[at] == 0) {
          slots_[at] = old[j];
          tags_[at] = old_tags[j];
          break;
        }
      }
    }
  }

  std::unique_ptr<Entry[]> slots_;
  std::unique_ptr<std::uint8_t[]> tags_;  ///< 0 = empty, else tag_of()
  std::size_t mask_ = 0;  ///< capacity - 1
  unsigned shift_ = 0;    ///< 64 - log2(capacity): the hash's top bits
};

}  // namespace mvpn::vpn
