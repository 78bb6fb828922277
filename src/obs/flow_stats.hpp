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

/// Per-lane, demand-sized flow accounting table — the measurement half of
/// the IPFIX-style telemetry plane (INTERNALS.md §13).
///
/// Memory model, mirroring the sync profiler lanes:
///  * One table per engine lane, owned by the FlowExporter. Every
///    record_*() call happens on the owning lane's thread inside a
///    window — data-plane hooks in Router, Link and QueueDisc — so slot
///    writes (and growth) need no atomics and never false-share.
///  * drain() runs only on the coordinator thread between windows (the
///    exporter's periodic scan action rides the same epoch-barrier
///    release/acquire edges the sync profiler's coordinator reads do) or
///    after the run. It hands every live slot to the exporter and advances
///    the table generation — an O(1) logical clear; slots invalidate
///    lazily on next touch.
///  * Slots are PODs in a linear-probe array keyed by the packed 5-tuple
///    the Router flow caches use. The array starts at kInitialSlots and
///    doubles whenever this generation's claims would pass half of it, so
///    probes stay short and every accumulation stays resident: accounting
///    is exact at any flow count, and no caller sizes the table.
class FlowStatsTable {
 public:
  static constexpr std::size_t kInitialSlots = 16;  // power of two
  /// log2(delay ns) buckets: bucket b holds delays in [2^(b-1), 2^b) ns,
  /// bucket 0 holds sub-nanosecond (never in practice). 40 covers ~17 min.
  static constexpr std::size_t kDelayBuckets = 40;
  /// DropReason codes retained per flow (kept ahead of the enum for ABI
  /// stability of the binary record format).
  static constexpr std::size_t kDropReasons = 16;
  static constexpr std::uint32_t kUnknownAttr = 0xFFFFFFFFu;
  static constexpr std::uint8_t kUnknownPhb = 0xFFu;

  /// Packed 5-tuple key, bit-identical to the Router flow caches' FlowKey:
  /// addrs = src<<32 | dst; meta = sport<<48 | dport<<32 | proto<<8 | 1.
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
    Key key;
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

  /// `clock` stamps first/last-seen times (the owning lane's scheduler —
  /// the thread every record_*() call arrives on).
  explicit FlowStatsTable(const sim::Scheduler* clock);

  // --- hot path (owning lane's thread only) -------------------------------
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
  /// Hand every live slot to `fn`, then clear the table by advancing its
  /// generation. Counts reset lazily; capacity stays.
  void drain(const std::function<void(const Slot&)>& fn);

  /// Commutative fold of one slot into another (same key): the exporter's
  /// cross-lane and cross-scan merge.
  static void merge_into(Slot& dst, const Slot& src) noexcept;

  // --- introspection ------------------------------------------------------
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  /// Flows claimed into a slot since construction (first touches per
  /// generation).
  [[nodiscard]] std::uint64_t claims() const noexcept { return claims_; }
  [[nodiscard]] std::uint64_t drains() const noexcept { return drains_; }

 private:
  [[nodiscard]] Slot& touch(const Key& k, std::uint32_t flow_id) noexcept;
  /// Double the slot array, re-placing this generation's live slots and
  /// rewriting the claim log to their new indices.
  void grow();

  /// Fibonacci-style mix of the packed key, keeping the top log2(slots)
  /// bits — the start of the key's linear probe sequence.
  [[nodiscard]] std::uint32_t home(const Key& k) const noexcept {
    return static_cast<std::uint32_t>(
        ((k.addrs ^ (k.meta * 0x9E3779B97F4A7C15ull)) *
         0x9E3779B97F4A7C15ull) >>
        index_shift_);
  }
  /// Slots not claimed this generation are logically empty.
  [[nodiscard]] bool is_live(const Slot& s) const noexcept {
    return s.gen == gen_;
  }

  const sim::Scheduler* clock_;
  std::uint32_t gen_ = 1;  ///< slots whose gen differs are logically empty
  unsigned index_shift_;   ///< Fibonacci hash keeps the top log2(slots) bits
  std::vector<Slot> slots_;
  /// Indices claimed since the last drain, in claim order (one per live
  /// key): drain walks this instead of sweeping the slot array, so the
  /// between-window pause costs O(live flows) regardless of capacity.
  std::vector<std::uint32_t> live_;
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
/// It owns one FlowStatsTable per engine lane. scan() drains them all into
/// a master per-flow accumulation and applies the active/idle timeout
/// rules at an exact simulation instant, turning expired accumulations
/// into records. Both the expiry decisions and the emission order are pure
/// functions of per-flow event times and the scan instants — never of lane
/// count or drain order — so the record stream is byte-identical across
/// serial and any sharding of the same scenario.
class FlowExporter {
 public:
  /// A flow accumulating this long is cut into a record even while still
  /// active (IPFIX active timeout).
  static constexpr sim::SimTime kActiveTimeout = 500 * sim::kMillisecond;
  /// A flow silent this long is expired (IPFIX idle timeout). Also the scan
  /// period: scanning faster only quantizes cut instants more finely.
  static constexpr sim::SimTime kIdleTimeout = 250 * sim::kMillisecond;

  /// Why a record was cut.
  enum class Cause : std::uint8_t { kIdle = 0, kActive = 1, kFinal = 2 };

  struct Record {
    FlowStatsTable::Slot acc;
    Cause cause = Cause::kFinal;
  };

  /// One accounting table per lane, each stamped by that lane's clock.
  explicit FlowExporter(const std::vector<const sim::Scheduler*>& lane_clocks);
  /// The engine holds the tables' and the exporter's addresses.
  FlowExporter(const FlowExporter&) = delete;
  FlowExporter& operator=(const FlowExporter&) = delete;

  /// The lane tables, in lane order (for ShardRuntime::set_flow_stats).
  [[nodiscard]] std::vector<FlowStatsTable*> tables();

  /// Drain every lane table, then cut the flows idle past kIdleTimeout or
  /// accumulating past kActiveTimeout at simulation instant `at` (sorted
  /// by flow id then key, so emission order is stable). Engine must be
  /// quiescent (between windows or after the run).
  void scan(sim::SimTime at);

  /// End of run: drain every lane table and cut every remaining flow
  /// (Cause::kFinal).
  void flush();

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

  /// Fold every lane table's live slots into flows_ and clear the tables.
  void drain_tables();

  /// `due` holds iterators into flows_ (valid until their own erase): the
  /// sort comparator dereferences them directly and the erase is O(1), so
  /// a cut never re-hashes a key it already found during scan().
  void cut(std::vector<FlowMap::iterator>& due, Cause cause);

  std::vector<FlowStatsTable> tables_;  ///< one per lane, never resized
  FlowMap flows_;
  std::vector<Record> records_;
  std::uint64_t merged_slots_ = 0;
};

/// Register the telemetry plane's own health counters as gauges behind the
/// usual engine-metrics opt-in (they depend on shard count and drain
/// cadence, so they stay out of byte-identity-checked outputs):
///   engine/flow/{records,active,merged_slots}
///   engine/flow/shard<N>/claims
void register_flow_metrics(FlowExporter& exporter, MetricsRegistry& registry);

}  // namespace mvpn::obs
