#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

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
/// Beside the entries sits one tag byte per slot: 0 for an empty slot,
/// else the top byte of the live entry's hashed tag key (never 0). The tag
/// key is what `match` compares, folded to 64 bits, so entries that match
/// always share a tag whatever their home keys. A probe reads the window's
/// tags and touches an entry only when its tag equals the wanted key's, so
/// a miss scans 16 bytes instead of 16 entries.
///
/// `Entry` is a plain slot with a `gen_sum` member and `home_key()` and
/// `tag_key()` accessors. A slot is free exactly when its `gen_sum` is 0
/// and its tag is 0; callers keep the two in step by changing `gen_sum`
/// only through commit() and release().
template <class Entry, std::size_t kCap>
class FlowTable {
 public:
  static constexpr std::size_t kStartSlots = 16;
  /// A table doubles as soon as any one window is full, so the window
  /// sets how full tables get before they grow: 26% of slots in use with
  /// 4, 41% with 8 (INTERNALS §10). Tags keep a 16-slot miss at one
  /// 16-byte read.
  static constexpr std::size_t kWindow = 16;
  static_assert(std::has_single_bit(kCap) && kCap >= kStartSlots);

  /// `slot` holds the entry `match` accepted when `found`; otherwise it is
  /// where the caller records the new entry (an empty slot, or the evicted
  /// home slot once the table is at its cap). Valid until the next find().
  struct Probe {
    Entry* slot = nullptr;
    bool found = false;
  };

  /// `tag_key` must equal the `tag_key()` of every entry `match` accepts.
  template <class Match>
  [[nodiscard]] Probe find(std::uint32_t home_key, std::uint64_t tag_key,
                           Match&& match) {
    if (slots_ == nullptr) grow();
    const std::uint8_t tag = tag_of(tag_key);
    for (;;) {
      const std::size_t home = hash(home_key) >> shift_;
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
    tags_[static_cast<std::size_t>(e - slots_.get())] = tag_of(e->tag_key());
  }

  /// Free `e` (a slot find() returned): a stale entry, or an evicted one
  /// about to be re-resolved.
  void release(Entry* e) noexcept {
    e->gen_sum = 0;
    tags_[static_cast<std::size_t>(e - slots_.get())] = 0;
  }

  /// Allocated entries (0 until the first lookup).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_ != nullptr ? mask_ + 1 : 0;
  }

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  [[nodiscard]] static std::uint32_t hash(std::uint32_t key) noexcept {
    return key * 0x9E3779B1u;
  }
  /// The top byte of a 64-bit Fibonacci hash, which every key bit
  /// reaches; never 0, the empty tag.
  [[nodiscard]] static std::uint8_t tag_of(std::uint64_t key) noexcept {
    const auto t =
        static_cast<std::uint8_t>((key * 0x9E3779B97F4A7C15ull) >> 56);
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
    shift_ = 32 - static_cast<unsigned>(std::countr_zero(n));
    for (std::size_t j = 0; j < old_n; ++j) {
      if (old_tags[j] == 0) continue;
      const std::size_t home = hash(old[j].home_key()) >> shift_;
      // A live entry whose new window is already full is dropped: it is a
      // cache entry, so the flow's next packet just resolves again.
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
  unsigned shift_ = 0;    ///< 32 - log2(capacity): the hash's top bits
};

}  // namespace mvpn::vpn
