#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace mvpn::stats {
class Table;
}  // namespace mvpn::stats

namespace mvpn::obs {

class MetricsRegistry;

/// Compile-time gate for the per-flow accounting hooks, in the spirit of
/// MVPN_TRACE_COMPILED_MASK: building with -DMVPN_FLOWSTATS_COMPILED=0
/// folds every hook to nothing and lets the optimizer delete the call
/// sites. Default keeps the hooks compiled in (the runtime gate is the
/// null table pointer, one predictable branch per hook).
#ifndef MVPN_FLOWSTATS_COMPILED
#define MVPN_FLOWSTATS_COMPILED 1
#endif

/// Per-shard, fixed-capacity flow accounting table — the measurement half
/// of the IPFIX-style telemetry plane (INTERNALS.md §13).
///
/// Memory model, mirroring the sync profiler lanes:
///  * One table per shard (one total in a serial run). Every record_*()
///    call happens on the owning shard's worker thread inside a window —
///    data-plane hooks in Router, Link and QueueDisc — so slot writes need
///    no atomics and never false-share across shards.
///  * drain() runs only on the coordinator thread between windows (the
///    scenario layer drives it from a periodic global action, so it rides
///    the same epoch-barrier release/acquire edges the sync profiler's
///    coordinator reads do) or after the run. It hands every live slot to
///    the exporter and advances the table generation — an O(1) logical
///    clear; slots invalidate lazily on next touch.
///  * Slots are direct-mapped PODs keyed by the packed 5-tuple the Router
///    flow caches use, indexed by a Fibonacci-style hash of that key.
///    A colliding flow displaces the incumbent into a spill map (exact
///    accounting is kept — eviction folds, never loses), so the hot path
///    stays one hash + one compare while correctness never depends on the
///    table size.
class FlowStatsTable {
 public:
  static constexpr std::size_t kDefaultSlots = 4096;  // power of two
  /// log2(delay ns) buckets: bucket b holds delays in [2^(b-1), 2^b) ns,
  /// bucket 0 holds sub-nanosecond (never in practice). 40 covers ~17 min.
  static constexpr std::size_t kDelayBuckets = 40;
  /// DropReason codes retained per flow (kept ahead of the enum for ABI
  /// stability of the binary record format).
  static constexpr std::size_t kDropReasons = 16;
  static constexpr std::uint32_t kUnknownAttr = 0xFFFFFFFFu;
  static constexpr std::uint8_t kUnknownPhb = 0xFFu;
  /// Linear-probe window: a colliding key tries this many consecutive
  /// slots before displacing the home incumbent into the spill map. At
  /// the <= 25% loads the call sites size for, the window practically
  /// never fills, so distinct keys keep distinct slots and spill_free()
  /// holds for whole runs.
  static constexpr std::uint32_t kProbeLimit = 8;
  /// Released-slot marker (see release()): a real key's meta has the low
  /// bit set and 0 means never claimed, so 2 collides with neither. A
  /// probe search continues past tombstones — a key parked beyond one
  /// must stay findable — but a claim may reuse the first one seen.
  static constexpr std::uint64_t kTombstoneMeta = 2;

  /// Packed 5-tuple key, bit-identical to the Router flow caches' FlowKey:
  /// addrs = src<<32 | dst; meta = sport<<48 | dport<<32 | proto<<8 | 1.
  /// meta's low bit marks the key populated, so 0 is the empty sentinel.
  struct Key {
    std::uint64_t addrs = 0;
    std::uint64_t meta = 0;
    [[nodiscard]] bool operator==(const Key& o) const noexcept {
      return addrs == o.addrs && meta == o.meta;
    }
  };
  [[nodiscard]] static Key make_key(std::uint32_t src, std::uint32_t dst,
                                    std::uint16_t sport, std::uint16_t dport,
                                    std::uint8_t proto) noexcept {
    return Key{(std::uint64_t{src} << 32) | dst,
               (std::uint64_t{sport} << 48) | (std::uint64_t{dport} << 32) |
                   (std::uint64_t{proto} << 8) | 1u};
  }

  /// One flow's accounting since the last drain. POD; merge_into() folds
  /// two of them commutatively, so drain order across shards never shows.
  struct Slot {
    Key key;                     ///< meta == 0 -> empty
    std::uint32_t flow_id = 0;
    std::uint32_t gen = 0;       ///< valid iff == table generation
    std::uint32_t ingress_pe = kUnknownAttr;
    std::uint32_t vpn = kUnknownAttr;
    std::uint8_t phb = kUnknownPhb;
    std::uint8_t pad_[3] = {};
    sim::SimTime first_seen = 0;
    sim::SimTime last_seen = 0;
    std::uint64_t offered_packets = 0;
    std::uint64_t offered_bytes = 0;
    std::uint64_t delivered_packets = 0;
    std::uint64_t delivered_bytes = 0;
    std::uint64_t dropped_bytes = 0;
    std::uint32_t drops[kDropReasons] = {};  ///< packets, by DropReason
    std::uint64_t color[3] = {};             ///< green / yellow / red
    sim::SimTime delay_min = 0;              ///< 0 until a delivery
    sim::SimTime delay_max = 0;
    std::uint64_t delay_sum_ns = 0;
    std::uint32_t delay_log2[kDelayBuckets] = {};

    [[nodiscard]] std::uint64_t dropped_packets() const noexcept {
      std::uint64_t n = 0;
      for (const std::uint32_t d : drops) n += d;
      return n;
    }
  };

  /// `clock` stamps first/last-seen times (the owning shard's scheduler —
  /// the thread every record_*() call arrives on).
  explicit FlowStatsTable(const sim::Scheduler* clock,
                          std::size_t slots = kDefaultSlots);

  // --- hot path (owning shard's worker thread only) -----------------------
  void record_offered(const Key& k, std::uint32_t flow_id,
                      std::uint32_t bytes, std::uint32_t ingress_pe,
                      std::uint32_t vpn, std::uint8_t phb) noexcept;
  void record_delivered(const Key& k, std::uint32_t flow_id,
                        std::uint32_t bytes, sim::SimTime delay) noexcept;
  void record_drop(const Key& k, std::uint32_t flow_id, std::uint32_t bytes,
                   std::uint8_t reason) noexcept;
  void record_color(const Key& k, std::uint32_t flow_id,
                    std::uint8_t color) noexcept;

  // --- drain (coordinator thread, engine quiescent) -----------------------
  /// Hand every live slot (direct-mapped and spilled) to `fn`, then clear
  /// the table by advancing its generation. Counts reset lazily.
  void drain(const std::function<void(const Slot&)>& fn);

  /// Walk every live slot in place — no drain, no generation bump — after
  /// compacting the claim log to unique live indices. Accumulations keep
  /// growing across calls; `fn` may release() a slot it has consumed.
  /// Only exact while spill_free() (spilled halves are invisible here).
  void for_each_live(const std::function<void(Slot&)>& fn);

  /// Free one live slot in place: the flow's next packet re-claims it
  /// with a fresh accumulation, exactly as after a drain. Tombstoned, not
  /// zeroed — keys parked past this slot by probing must stay findable.
  static void release(Slot& s) noexcept { s.key.meta = kTombstoneMeta; }

  /// True while no flow has ever been displaced into the spill map, i.e.
  /// every accumulation ever made lives in its direct-mapped slot. Sticky
  /// by construction (evictions only accumulate), which lets the exporter
  /// commit to cutting records straight out of a single-lane table.
  [[nodiscard]] bool spill_free() const noexcept { return evictions_ == 0; }

  /// Commutative fold of one slot into another (same key). Used by the
  /// spill path and the exporter's cross-shard merge.
  static void merge_into(Slot& dst, const Slot& src) noexcept;

  // --- introspection ------------------------------------------------------
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  /// Flows displaced from their direct-mapped slot into the spill map.
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  /// Flows claimed into a slot since construction (first touches).
  [[nodiscard]] std::uint64_t claims() const noexcept { return claims_; }
  /// Current spill-map population (resets at drain).
  [[nodiscard]] std::size_t spilled() const noexcept { return spill_.size(); }
  [[nodiscard]] std::uint64_t drains() const noexcept { return drains_; }

 private:
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const noexcept {
      return static_cast<std::size_t>(
          (k.addrs ^ (k.meta * 0x9E3779B97F4A7C15ull)) >> 1);
    }
  };

  [[nodiscard]] Slot& touch(const Key& k, std::uint32_t flow_id) noexcept;
  void claim(Slot& s, const Key& k, std::uint32_t flow_id,
             sim::SimTime now) noexcept;

  /// Fibonacci-style mix of the packed key, keeping the top log2(slots)
  /// bits — the start of the key's probe sequence.
  [[nodiscard]] std::uint32_t home(const Key& k) const noexcept {
    return static_cast<std::uint32_t>(
        ((k.addrs ^ (k.meta * 0x9E3779B97F4A7C15ull)) *
         0x9E3779B97F4A7C15ull) >>
        index_shift_);
  }
  /// Live = claimed this generation and neither empty nor tombstoned.
  [[nodiscard]] bool is_live(const Slot& s) const noexcept {
    return s.gen == gen_ && s.key.meta != 0 && s.key.meta != kTombstoneMeta;
  }

  const sim::Scheduler* clock_;
  std::uint32_t gen_ = 1;  ///< slots whose gen differs are logically empty
  unsigned index_shift_;   ///< Fibonacci hash keeps the top log2(slots) bits
  std::vector<Slot> slots_;
  /// Indices claimed since the last drain, in claim order: drain walks
  /// this instead of sweeping the whole slot array, so the between-window
  /// pause costs O(live flows) regardless of capacity. A re-claimed slot
  /// appears twice; drain marks emitted slots empty so duplicates skip.
  std::vector<std::uint32_t> live_;
  std::unordered_map<Key, Slot, KeyHash> spill_;
  std::uint64_t evictions_ = 0;
  std::uint64_t claims_ = 0;
  std::uint64_t drains_ = 0;
};

/// Maps a VPN id to a display name ("corp (RD 64512:1)"); identity when
/// empty. Same contract as NodeNamer in sinks.hpp.
using VpnNamer = std::function<std::string(std::uint32_t)>;
/// Maps a PHB code (qos::Phb cast to its underlying value) to its name.
using PhbNamer = std::function<std::string(std::uint8_t)>;

/// IPFIX-style flow-record exporter: the coordinator-side half.
///
/// merge_table() drains per-shard tables into a master per-flow
/// accumulation; scan() applies the active/idle timeout rules at exact
/// simulation instants and turns expired accumulations into records. Both
/// the expiry decisions and the emission order are pure functions of
/// per-flow event times and the scan instants — never of shard count or
/// drain order — so the record stream is byte-identical across serial and
/// any sharding of the same scenario.
class FlowExporter {
 public:
  struct Options {
    /// A flow accumulating longer than this is cut into a record even
    /// while still active (IPFIX active timeout).
    sim::SimTime active_timeout = 500 * sim::kMillisecond;
    /// A flow silent for this long is expired (IPFIX idle timeout).
    sim::SimTime idle_timeout = 250 * sim::kMillisecond;
  };

  /// Why a record was cut.
  enum class Cause : std::uint8_t { kIdle = 0, kActive = 1, kFinal = 2 };

  struct Record {
    FlowStatsTable::Slot acc;
    Cause cause = Cause::kFinal;
  };

  FlowExporter() = default;
  explicit FlowExporter(Options opt) : opt_(opt) {}

  /// Fold one shard table's live slots into the master accumulation and
  /// clear the table. Call for every table at each scan instant, then
  /// scan(). Engine must be quiescent (between windows / after the run).
  void merge_table(FlowStatsTable& table);

  /// Apply timeout expiry at simulation instant `now`: flows idle past the
  /// idle timeout or accumulating past the active timeout are cut into
  /// records (sorted by flow id then key, so emission order is stable).
  void scan(sim::SimTime now);

  /// End of run: cut every remaining flow (Cause::kFinal).
  void flush();

  /// One scan instant over a run's accounting tables, one per engine
  /// lane. Several tables must fold together first (merge_table() each,
  /// then scan()); a single table takes the table-resident path instead:
  /// the timeout rules walk its live slots, accumulations stay in place
  /// across scans and only due flows are copied out as records, so the
  /// per-scan cost is a walk of the live list instead of a full
  /// drain-and-merge into flows_. That path falls back to merge+scan
  /// permanently the first time a spill appears — both emit byte-identical
  /// record streams, so neither the table count nor the switch shows.
  void scan(const std::vector<FlowStatsTable*>& tables, sim::SimTime now);

  /// End-of-run counterpart of scan(tables, now): cut every remaining
  /// flow, by the same path selection.
  void flush(const std::vector<FlowStatsTable*>& tables);

  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return flows_.size();
  }
  [[nodiscard]] std::uint64_t merged_slots() const noexcept {
    return merged_slots_;
  }

  /// One self-contained JSON object per record, in emission order.
  void write_jsonl(std::ostream& out,
                   const std::function<std::string(std::uint32_t)>& node_namer,
                   const VpnNamer& vpn_namer, const PhbNamer& phb_namer) const;

  /// Compact binary export: "MVFR" magic, version, fixed-size native-endian
  /// records (see flow_stats.cpp for the layout).
  void write_binary(std::ostream& out) const;

  /// Per-VPN × per-class conformance rollup over every record so far.
  struct RollupRow {
    std::uint32_t vpn = FlowStatsTable::kUnknownAttr;
    std::uint8_t phb = FlowStatsTable::kUnknownPhb;
    std::uint64_t flows = 0;  ///< records (one flow may cut several)
    std::uint64_t offered_packets = 0;
    std::uint64_t offered_bytes = 0;
    std::uint64_t delivered_packets = 0;
    std::uint64_t delivered_bytes = 0;
    std::uint64_t dropped_packets = 0;
    std::uint32_t drops[FlowStatsTable::kDropReasons] = {};
    std::uint64_t color[3] = {};
    sim::SimTime delay_min = 0;
    sim::SimTime delay_max = 0;
    std::uint64_t delay_sum_ns = 0;
    std::uint64_t delay_count = 0;
    std::uint64_t delay_log2[FlowStatsTable::kDelayBuckets] = {};

    [[nodiscard]] double loss_fraction() const noexcept {
      if (offered_packets == 0) return 0.0;
      const std::uint64_t lost = offered_packets > delivered_packets
                                     ? offered_packets - delivered_packets
                                     : 0;
      return static_cast<double>(lost) /
             static_cast<double>(offered_packets);
    }
    [[nodiscard]] double delay_mean_ms() const noexcept {
      return delay_count == 0 ? 0.0
                              : static_cast<double>(delay_sum_ns) /
                                    static_cast<double>(delay_count) / 1e6;
    }
    /// Quantile from the log2 sketch (bucket-resolution approximation).
    [[nodiscard]] double delay_quantile_ms(double q) const noexcept;
  };
  [[nodiscard]] std::vector<RollupRow> rollup() const;

  /// The conformance table (flow.txt under run_scenario --obs DIR):
  /// offered vs delivered vs the delay/loss figures an SLA audit compares
  /// against its targets.
  [[nodiscard]] stats::Table rollup_table(const VpnNamer& vpn_namer,
                                          const PhbNamer& phb_namer) const;

 private:
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(
        const FlowStatsTable::Key& k) const noexcept {
      return static_cast<std::size_t>(
          (k.addrs ^ (k.meta * 0x9E3779B97F4A7C15ull)) >> 1);
    }
  };

  using FlowMap =
      std::unordered_map<FlowStatsTable::Key, FlowStatsTable::Slot, KeyHash>;

  /// `due` holds iterators into flows_ (valid until their own erase): the
  /// sort comparator dereferences them directly and the erase is O(1), so
  /// a cut never re-hashes a key it already found during scan().
  void cut(std::vector<FlowMap::iterator>& due, Cause cause);

  /// Whether scan(tables)/flush(tables) may work on the one table in
  /// place (no fold needed, nothing ever spilled or merged).
  [[nodiscard]] bool table_resident(
      const std::vector<FlowStatsTable*>& tables) const;

  /// The table-resident emission half: sort due slots by (flow id, key),
  /// copy them into records, release them in place.
  void cut_slots(std::vector<FlowStatsTable::Slot*>& due, Cause cause);

  Options opt_;
  FlowMap flows_;
  std::vector<Record> records_;
  std::uint64_t merged_slots_ = 0;
};

/// Register the telemetry plane's own health counters as gauges behind the
/// usual engine-metrics opt-in (they depend on shard count and drain
/// cadence, so they stay out of byte-identity-checked outputs):
///   engine/flow/{records,active,merged_slots}
///   engine/flow/shard<N>/{evictions,claims,spilled}
void register_flow_metrics(const FlowExporter& exporter,
                           const std::vector<FlowStatsTable*>& tables,
                           MetricsRegistry& registry);

}  // namespace mvpn::obs
