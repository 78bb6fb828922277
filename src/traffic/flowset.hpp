#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "qos/dscp.hpp"
#include "qos/sla.hpp"
#include "sim/rng.hpp"
#include "vpn/router.hpp"

namespace mvpn::traffic {

/// Emission interval for an IP-level rate: one header+payload packet every
/// `pkt_bits / rate_bps` seconds, truncated to ticks by from_seconds.
[[nodiscard]] inline sim::SimTime interval_for_rate(
    double rate_bps, std::size_t payload_bytes) noexcept {
  const double pkt_bits = static_cast<double>(net::kIpv4HeaderBytes +
                                              net::kL4HeaderBytes +
                                              payload_bytes) *
                          8.0;
  return sim::from_seconds(pkt_bits / rate_bps);
}

/// The traffic engine: every CBR, Poisson and on/off flow in the simulator
/// is a row of a FlowSet. One FlowSet serves one scheduler lane (the serial
/// scheduler, or one shard's scheduler): flow state lives in parallel
/// vectors at 62 bytes per flow, and emission is driven by a per-set
/// calendar — a 4-ary (tick, seq) min-heap of 16-byte entries — that keeps
/// exactly ONE scheduler event armed at the earliest due instant and
/// batch-emits every flow due at that tick, instead of one closure per
/// packet.
///
/// Everything observable is a pure function of the flow declarations:
/// packet ids are `(flow_id << 32) | seq`, per-flow RNG streams are
/// `Rng::stream(topology seed, flow_id)` advanced by a fixed draw sequence,
/// and emission instants come from `interval_for_rate` with `from_seconds`
/// truncation. Same-tick emissions run in (tick, monotone insertion seq)
/// order, the scheduler's own FIFO tie-break, and a batch re-inserts each
/// flow only after emitting it. The per-packet logs and SLA reports this
/// produces are pinned by the checked-in outputs under tests/golden/ (see
/// INTERNALS.md §14).
class FlowSet {
 public:
  enum class Kind : std::uint8_t { kCbr, kPoisson, kOnOff };

  /// Build-time description of one flow. Sites are pre-registered router
  /// attachments (add_site); `start` is an absolute instant, clamped to
  /// the scheduler's now at run().
  struct FlowDef {
    std::uint32_t flow_id = 0;
    std::uint32_t from_site = 0;
    std::uint32_t to_site = 0;
    Kind kind = Kind::kCbr;
    double rate_bps = 1e6;  ///< CBR/mean/peak rate depending on kind
    double on_s = 0.2;      ///< mean burst length (kOnOff)
    double off_s = 0.2;     ///< mean silence length (kOnOff)
    vpn::VpnId vpn = vpn::kGlobalVpn;
    qos::Phb phb = qos::Phb::kBe;
    bool premark = false;
    std::uint8_t protocol = 17;
    std::uint16_t src_port = 10000;
    std::uint16_t dst_port = 20000;
    std::uint32_t payload_bytes = 472;
    sim::SimTime start = 0;
  };

  /// `sched` must be the scheduler that owns every attachment router's
  /// events (the shard scheduler under a parallel run); `probe` gets the
  /// sent-side SLA accounting (may be null); `master_seed` is the topology
  /// seed per-flow streams derive from.
  FlowSet(sim::Scheduler& sched, qos::SlaProbe* probe,
          std::uint64_t master_seed);
  ~FlowSet();

  FlowSet(const FlowSet&) = delete;
  FlowSet& operator=(const FlowSet&) = delete;

  /// Register an attachment site: the router packets inject at, and the
  /// host address used as ip.src when a flow originates here and as ip.dst
  /// when a flow terminates here. Returns the site index for FlowDef.
  std::uint32_t add_site(vpn::Router& attach, ip::Ipv4Address host);

  /// Throws std::out_of_range when `def` names a site that add_site never
  /// returned, and std::length_error when it would be the 65536th distinct
  /// template; either way no row is added.
  void add_flow(const FlowDef& def);

  /// Arm the calendar: every flow is inserted at max(start, now) in
  /// declaration order, flows whose clamped start falls at or past `stop`
  /// are dropped, and one scheduler event is armed at the earliest tick.
  /// Also trims build-time slack: after run() the SoA vectors are shrunk
  /// to size.
  void run(sim::SimTime stop);

  [[nodiscard]] std::size_t flow_count() const noexcept {
    return flow_id_.size();
  }
  [[nodiscard]] std::uint64_t packets_sent() const noexcept {
    return total_sent_;
  }
  /// Packets sent by one flow (row index == add_flow order).
  [[nodiscard]] std::uint32_t packets_sent(std::uint32_t row) const noexcept {
    return sent_[row];
  }

  /// Bytes held by the per-flow SoA arrays (capacity, so growth slack
  /// counts until run() shrinks it). The ≤64 B/flow budget is on these.
  [[nodiscard]] std::size_t state_bytes() const noexcept;
  /// Bytes held by the emission calendar (16 B per pending entry).
  [[nodiscard]] std::size_t calendar_bytes() const noexcept;
  [[nodiscard]] double state_bytes_per_flow() const noexcept {
    return flow_count() == 0
               ? 0.0
               : static_cast<double>(state_bytes()) /
                     static_cast<double>(flow_count());
  }

 private:
  /// Per-kind emission parameter, 8 bytes. CBR and on/off store an exact
  /// tick interval; Poisson stores the mean gap in seconds because that is
  /// what exponential() takes.
  union Param {
    sim::SimTime interval;
    double mean_s;
  };

  /// Deduplicated static fields shared by many flows (topogen emits ~4
  /// flavours per pod, scenarios a handful total), so per-flow state
  /// carries a 2-byte index instead of ~30 bytes of spec.
  struct Template {
    Kind kind = Kind::kCbr;
    qos::Phb phb = qos::Phb::kBe;
    std::uint8_t dscp = 0;  ///< pre-resolved premark ? dscp_of(phb) : 0
    std::uint8_t protocol = 17;
    std::uint16_t src_port = 10000;
    std::uint16_t dst_port = 20000;
    std::uint32_t payload_bytes = 472;
    std::uint32_t wire_bytes = 0;  ///< IP + L4 headers + payload
    vpn::VpnId vpn = vpn::kGlobalVpn;
    double mean_on_s = 0.2;
    double mean_off_s = 0.2;
  };
  /// A template's identity: every field but the derived wire_bytes, the
  /// doubles by bit pattern so the ordering is strict even for NaN.
  using TemplateKey =
      std::tuple<Kind, qos::Phb, std::uint8_t, std::uint8_t, std::uint16_t,
                 std::uint16_t, std::uint32_t, vpn::VpnId, std::uint64_t,
                 std::uint64_t>;
  [[nodiscard]] static TemplateKey key_of(const Template& t) noexcept {
    return {t.kind,
            t.phb,
            t.dscp,
            t.protocol,
            t.src_port,
            t.dst_port,
            t.payload_bytes,
            t.vpn,
            std::bit_cast<std::uint64_t>(t.mean_on_s),
            std::bit_cast<std::uint64_t>(t.mean_off_s)};
  }

  struct Site {
    vpn::Router* attach = nullptr;
    ip::Ipv4Address host;
  };

  /// Calendar entry: flow `flow` is due at `tick`; `seq` is the monotone
  /// insertion counter that replays the scheduler's same-tick FIFO order.
  struct CalEntry {
    sim::SimTime tick = 0;
    std::uint32_t seq = 0;
    std::uint32_t flow = 0;
  };

  [[nodiscard]] static bool cal_earlier(const CalEntry& a,
                                        const CalEntry& b) noexcept {
    if (a.tick != b.tick) return a.tick < b.tick;
    return a.seq < b.seq;
  }

  std::uint16_t intern_template(const FlowDef& def);
  std::uint32_t next_seq();

  void cal_push(CalEntry e);
  void cal_pop_min();

  /// Arm the single scheduler event at the calendar head (no-op when armed
  /// or empty).
  void arm();
  /// The batch handler: emit every flow due now, in seq order.
  void on_tick();
  void emit(std::uint32_t row, sim::SimTime now);
  [[nodiscard]] sim::SimTime next_interval(std::uint32_t row);

  sim::Scheduler& sched_;
  qos::SlaProbe* probe_;
  std::uint64_t master_seed_;
  sim::SimTime stop_at_ = 0;
  std::uint64_t total_sent_ = 0;
  bool armed_ = false;
  sim::EventId armed_event_{};

  std::vector<Site> sites_;
  std::vector<Template> templates_;
  std::map<TemplateKey, std::uint16_t> template_ids_;  ///< index of each

  // --- per-flow SoA state: 4+4+4+2+8+4+4+32 = 62 bytes per flow ---
  std::vector<std::uint32_t> flow_id_;
  std::vector<std::uint32_t> from_site_;
  std::vector<std::uint32_t> to_site_;
  std::vector<std::uint16_t> tmpl_;
  std::vector<Param> param_;
  std::vector<std::uint32_t> sent_;
  std::vector<std::uint32_t> burst_pkts_;  ///< on/off residue, in packets
  std::vector<sim::Rng::State> rng_;

  /// Build-only: absolute start instants, released by run().
  std::vector<sim::SimTime> start_;

  std::vector<CalEntry> heap_;  ///< implicit 4-ary min-heap
  std::uint32_t next_seq_ = 0;
};

}  // namespace mvpn::traffic
