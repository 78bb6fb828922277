#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "qos/dscp.hpp"
#include "sim/time.hpp"
#include "stats/log_histogram.hpp"
#include "stats/table.hpp"

namespace mvpn::qos {

/// Per-class service-level measurement: sinks feed it deliveries, sources
/// feed it departures, and it produces the delay/jitter/loss/goodput rows
/// the paper's SLA discussion is about (§3.1, §5).
///
/// Two jitter figures are kept per class: the mean absolute difference of
/// consecutive one-way delays within each flow (the historical column), and
/// true RFC 3550 §6.4.1 inter-arrival jitter — the per-flow EWMA
/// J += (|D| - J)/16 — averaged across the class's flows, so the
/// packet-delay-variation comparison is apples-to-apples with the DiffServ
/// PDV literature. Both accumulate *per flow* and aggregate per class only
/// at query time, folding flows in ascending flow-id order: a flow's
/// deliveries all pass through one sink (one shard), so the figures are
/// bit-identical whether the run was serial or sharded — class-level
/// online accumulation would instead depend on how flows interleave,
/// which the partition changes. Latency percentiles come from a
/// bounded-memory LogHistogram sketch (exact mean/min/max, ~0.8% relative
/// error on percentiles), so the probe survives million-packet runs in
/// O(1) memory.
///
/// Layout (INTERNALS §6). Class reports sit in a `kPhbCount` array, each
/// made at its class's first record. Per-flow jitter state is a dense
/// 32 B record appended at the flow's first delivery, found through a
/// flow-id-indexed `uint32` slot index (flow ids are dense: FlowSet and
/// the sinks index by them too). Walking that index in id order is the
/// ascending-id fold, so no query sorts. A probe allocates nothing until
/// its first record.
class SlaProbe {
 public:
  explicit SlaProbe(std::string name = "sla");

  void record_sent(Phb cls, std::size_t bytes);
  void record_delivered(Phb cls, std::uint32_t flow_id, sim::SimTime latency,
                        std::size_t bytes);

  struct ClassReport {
    std::uint64_t sent_packets = 0;
    std::uint64_t sent_bytes = 0;
    std::uint64_t delivered_packets = 0;
    std::uint64_t delivered_bytes = 0;
    stats::LogHistogram latency_s;    ///< one-way delay sketch (seconds)

    [[nodiscard]] double loss_fraction() const noexcept {
      if (sent_packets == 0) return 0.0;
      const auto lost = sent_packets > delivered_packets
                            ? sent_packets - delivered_packets
                            : 0;
      return static_cast<double>(lost) / static_cast<double>(sent_packets);
    }
    /// Goodput in bits/s given the measurement interval.
    [[nodiscard]] double goodput_bps(double interval_s) const noexcept {
      if (interval_s <= 0.0) return 0.0;
      return static_cast<double>(delivered_bytes) * 8.0 / interval_s;
    }
  };

  [[nodiscard]] const ClassReport& report(Phb cls) const;
  [[nodiscard]] bool has_class(Phb cls) const;

  /// Fold another probe's accounting into this one (sharded runs: the
  /// master probe is rebuilt from per-shard probes before each snapshot).
  /// Counters are integers and merge exactly. Each flow delivers through
  /// exactly one sink/shard, so per-flow jitter state never needs to be
  /// combined — flow entries are copied over wholesale; a flow id present
  /// in both probes is a partitioning bug and throws std::logic_error,
  /// leaving this probe partly merged.
  void merge_from(const SlaProbe& other);

  /// RFC 3550 §6.4.1 inter-arrival jitter for `cls` in seconds: each flow
  /// runs J += (|D| - J)/16 over consecutive one-way delay deltas; the
  /// class figure is the mean of its flows' current J. 0 until some flow
  /// of the class has delivered at least two packets.
  [[nodiscard]] double rfc3550_jitter_s(Phb cls) const;

  /// Mean |delta one-way delay| for `cls` in seconds: per-flow means
  /// merged in ascending flow-id order (see the class comment for why that
  /// order makes the figure partition-independent). 0 until some flow of
  /// the class has delivered at least two packets.
  [[nodiscard]] double jitter_mean_s(Phb cls) const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Render the standard SLA table (one row per class) for an interval of
  /// `interval_s` seconds.
  [[nodiscard]] stats::Table to_table(double interval_s) const;

  /// Same rows as machine-readable CSV (for offline plotting).
  [[nodiscard]] std::string to_csv(double interval_s) const;

 private:
  /// One flow's jitter state. `deltas` and `delta_mean_s` are the count
  /// and mean of a Welford accumulator over the flow's |delta delay|
  /// samples; the class mean needs nothing else, because Welford's add
  /// and Chan's merge update a mean from the count and mean alone. A flow
  /// delivers fewer than 2^32 packets.
  struct FlowJitter {
    sim::SimTime last_latency = 0;
    double j_s = 0.0;           ///< RFC 3550 running jitter estimate
    double delta_mean_s = 0.0;  ///< mean |delta delay| (seconds)
    std::uint32_t deltas = 0;   ///< |delta delay| samples; 0 = one delivery
    Phb cls{};
  };
  static_assert(sizeof(FlowJitter) == 32);

  ClassReport& class_report(Phb cls);

  std::string name_;
  std::array<std::optional<ClassReport>, kPhbCount> by_class_;
  std::vector<FlowJitter> flows_;  ///< in first-delivery order
  /// Flow id -> index in flows_ + 1; 0 = no delivery yet.
  std::vector<std::uint32_t> slot_of_;
};

}  // namespace mvpn::qos
