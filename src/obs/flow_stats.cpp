#include "obs/flow_stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <sstream>
#include <utility>

#include "ip/address.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/table.hpp"

namespace mvpn::obs {

namespace {

/// Bucket index for a delay: bit_width of the nanosecond count, i.e.
/// bucket b covers [2^(b-1), 2^b) ns. One instruction on the hot path.
[[nodiscard]] std::size_t delay_bucket(sim::SimTime delay) noexcept {
  const auto ns = static_cast<std::uint64_t>(delay < 0 ? 0 : delay);
  const std::size_t b = static_cast<std::size_t>(std::bit_width(ns));
  return b < FlowStatsTable::kDelayBuckets
             ? b
             : FlowStatsTable::kDelayBuckets - 1;
}

/// Representative delay for a bucket: the geometric midpoint 1.5 * 2^(b-1).
[[nodiscard]] double bucket_delay_ns(std::size_t b) noexcept {
  if (b == 0) return 0.5;
  return 1.5 * std::ldexp(1.0, static_cast<int>(b) - 1);
}

void json_escape(std::ostream& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << ' ';
        } else {
          out << c;
        }
    }
  }
}

[[nodiscard]] const char* cause_name(FlowExporter::Cause c) noexcept {
  switch (c) {
    case FlowExporter::Cause::kIdle: return "idle";
    case FlowExporter::Cause::kActive: return "active";
    case FlowExporter::Cause::kFinal: return "final";
  }
  return "?";
}

template <typename T>
void put_raw(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Stable emission order: flow id first (the human-meaningful handle),
/// then the packed key as the total-order tiebreak.
[[nodiscard]] bool key_less(const FlowStatsTable::Slot& a,
                            const FlowStatsTable::Slot& b) noexcept {
  if (a.flow_id != b.flow_id) return a.flow_id < b.flow_id;
  if (a.key.addrs != b.key.addrs) return a.key.addrs < b.key.addrs;
  return a.key.meta < b.key.meta;
}

}  // namespace

// ---------------------------------------------------------------------------
// FlowStatsTable

FlowStatsTable::FlowStatsTable(const sim::Scheduler* clock)
    : clock_(clock),
      index_shift_(64u - static_cast<unsigned>(std::countr_zero(kInitialSlots))),
      slots_(kInitialSlots) {}

void FlowStatsTable::grow() {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
  --index_shift_;
  const std::uint32_t mask = static_cast<std::uint32_t>(slots_.size() - 1);
  for (std::uint32_t& idx : live_) {
    std::uint32_t to = home(old[idx].key);
    while (is_live(slots_[to])) to = (to + 1) & mask;
    slots_[to] = old[idx];
    idx = to;
  }
}

FlowStatsTable::Slot& FlowStatsTable::touch(const Key& k,
                                            std::uint32_t flow_id) noexcept {
  const sim::SimTime now = clock_->now();
  // Index by the 5-tuple, not the flow id: distinct flows sharing a key
  // (port reuse between the same site pair) then share a slot, so their
  // accounting folds at touch time exactly as the exporter folds drained
  // slots by key — the record stream is invariant to which lane ran.
  std::uint32_t mask = static_cast<std::uint32_t>(slots_.size() - 1);
  std::uint32_t idx = home(k);
  for (; is_live(slots_[idx]); idx = (idx + 1) & mask) {
    Slot& s = slots_[idx];
    if (s.key == k) {  // hot path: one hash, one compare, home hit
      s.last_seen = now;
      // Keep the smallest id of the 5-tuple's flows so the accumulation's
      // handle is a pure function of the flow set, not of touch order.
      if (flow_id < s.flow_id) s.flow_id = flow_id;
      return s;
    }
  }
  // A new key this generation. Keeping claims at or under half the slots
  // bounds every probe run; growing re-places the live slots, so the key
  // probes again for its empty slot in the doubled array.
  if (2 * (live_.size() + 1) > slots_.size()) {
    grow();
    mask = static_cast<std::uint32_t>(slots_.size() - 1);
    idx = home(k);
    while (is_live(slots_[idx])) idx = (idx + 1) & mask;
  }
  Slot& s = slots_[idx];
  s = Slot{};
  s.key = k;
  s.flow_id = flow_id;
  s.gen = gen_;
  s.first_seen = now;
  s.last_seen = now;
  ++claims_;
  live_.push_back(idx);
  return s;
}

void FlowStatsTable::record_offered(const Key& k, std::uint32_t flow_id,
                                    std::uint32_t bytes,
                                    std::uint32_t ingress_pe, std::uint32_t vpn,
                                    std::uint8_t phb) noexcept {
  Slot& s = touch(k, flow_id);
  ++s.offered_packets;
  s.offered_bytes += bytes;
  if (s.ingress_pe == kUnknownAttr) s.ingress_pe = ingress_pe;
  if (s.vpn == kUnknownAttr) s.vpn = vpn;
  if (s.phb == kUnknownPhb) s.phb = phb;
}

void FlowStatsTable::record_delivered(const Key& k, std::uint32_t flow_id,
                                      std::uint32_t bytes,
                                      sim::SimTime delay) noexcept {
  Slot& s = touch(k, flow_id);
  ++s.delivered_packets;
  s.delivered_bytes += bytes;
  if (s.delivered_packets == 1 || delay < s.delay_min) s.delay_min = delay;
  if (delay > s.delay_max) s.delay_max = delay;
  s.delay_sum_ns += static_cast<std::uint64_t>(delay < 0 ? 0 : delay);
  ++s.delay_log2[delay_bucket(delay)];
}

void FlowStatsTable::record_drop(const Key& k, std::uint32_t flow_id,
                                 std::uint32_t bytes,
                                 std::uint8_t reason) noexcept {
  Slot& s = touch(k, flow_id);
  s.dropped_bytes += bytes;
  ++s.drops[reason < kDropReasons ? reason : kDropReasons - 1];
}

void FlowStatsTable::record_color(const Key& k, std::uint32_t flow_id,
                                  std::uint8_t color) noexcept {
  Slot& s = touch(k, flow_id);
  ++s.color[color < 3 ? color : 2];
}

void FlowStatsTable::drain(const std::function<void(const Slot&)>& fn) {
  for (const std::uint32_t idx : live_) fn(slots_[idx]);
  live_.clear();
  ++gen_;  // every slot of the old generation is now logically empty
  ++drains_;
}

void FlowStatsTable::merge_into(Slot& dst, const Slot& src) noexcept {
  if (src.first_seen < dst.first_seen) dst.first_seen = src.first_seen;
  if (src.last_seen > dst.last_seen) dst.last_seen = src.last_seen;
  if (src.flow_id < dst.flow_id) dst.flow_id = src.flow_id;
  // Attribution: known beats unknown; two known values (can only differ if
  // callers disagree) resolve by min so merge order never shows.
  if (dst.ingress_pe == kUnknownAttr ||
      (src.ingress_pe != kUnknownAttr && src.ingress_pe < dst.ingress_pe)) {
    dst.ingress_pe = src.ingress_pe != kUnknownAttr ? src.ingress_pe
                                                    : dst.ingress_pe;
  }
  if (dst.vpn == kUnknownAttr ||
      (src.vpn != kUnknownAttr && src.vpn < dst.vpn)) {
    dst.vpn = src.vpn != kUnknownAttr ? src.vpn : dst.vpn;
  }
  if (dst.phb == kUnknownPhb || (src.phb != kUnknownPhb && src.phb < dst.phb)) {
    dst.phb = src.phb != kUnknownPhb ? src.phb : dst.phb;
  }
  dst.offered_packets += src.offered_packets;
  dst.offered_bytes += src.offered_bytes;
  dst.delivered_packets += src.delivered_packets;
  dst.delivered_bytes += src.delivered_bytes;
  dst.dropped_bytes += src.dropped_bytes;
  for (std::size_t i = 0; i < kDropReasons; ++i) dst.drops[i] += src.drops[i];
  for (std::size_t i = 0; i < 3; ++i) dst.color[i] += src.color[i];
  if (src.delivered_packets != 0) {
    if (dst.delay_min == 0 && dst.delay_max == 0 && dst.delay_sum_ns == 0) {
      dst.delay_min = src.delay_min;
    } else if (src.delay_min < dst.delay_min) {
      dst.delay_min = src.delay_min;
    }
    if (src.delay_max > dst.delay_max) dst.delay_max = src.delay_max;
  }
  dst.delay_sum_ns += src.delay_sum_ns;
  for (std::size_t i = 0; i < kDelayBuckets; ++i) {
    dst.delay_log2[i] += src.delay_log2[i];
  }
}

// ---------------------------------------------------------------------------
// FlowExporter

FlowExporter::FlowExporter(
    const std::vector<const sim::Scheduler*>& lane_clocks) {
  tables_.reserve(lane_clocks.size());
  for (const sim::Scheduler* clock : lane_clocks) tables_.emplace_back(clock);
}

std::vector<FlowStatsTable*> FlowExporter::tables() {
  std::vector<FlowStatsTable*> out;
  for (FlowStatsTable& t : tables_) out.push_back(&t);
  return out;
}

void FlowExporter::drain_tables() {
  for (FlowStatsTable& t : tables_) {
    t.drain([this](const FlowStatsTable::Slot& s) {
      ++merged_slots_;
      auto [it, inserted] = flows_.try_emplace(s.key, s);
      if (!inserted) FlowStatsTable::merge_into(it->second, s);
    });
  }
}

void FlowExporter::cut(std::vector<FlowMap::iterator>& due, Cause cause) {
  // Sort by (flow id, key) so the record stream is a pure function of flow
  // history, not map order. Map erase only invalidates the erased element,
  // so the other due iterators stay valid throughout.
  std::sort(due.begin(), due.end(),
            [](const FlowMap::iterator& a, const FlowMap::iterator& b) {
              return key_less(a->second, b->second);
            });
  for (const FlowMap::iterator& it : due) {
    records_.push_back(Record{it->second, cause});
    flows_.erase(it);
  }
}

void FlowExporter::scan(sim::SimTime at) {
  drain_tables();
  std::vector<FlowMap::iterator> idle;
  std::vector<FlowMap::iterator> active;
  for (auto it = flows_.begin(); it != flows_.end(); ++it) {
    const FlowStatsTable::Slot& slot = it->second;
    if (at - slot.last_seen >= kIdleTimeout) {
      idle.push_back(it);
    } else if (at - slot.first_seen >= kActiveTimeout) {
      active.push_back(it);
    }
  }
  cut(idle, Cause::kIdle);
  cut(active, Cause::kActive);
}

void FlowExporter::flush() {
  drain_tables();
  std::vector<FlowMap::iterator> rest;
  rest.reserve(flows_.size());
  for (auto it = flows_.begin(); it != flows_.end(); ++it) rest.push_back(it);
  cut(rest, Cause::kFinal);
}

void FlowExporter::write_jsonl(
    std::ostream& out,
    const std::function<std::string(std::uint32_t)>& node_namer,
    const VpnNamer& vpn_namer, const PhbNamer& phb_namer) const {
  for (const Record& r : records_) {
    const FlowStatsTable::Slot& s = r.acc;
    const ip::Ipv4Address src{static_cast<std::uint32_t>(s.key.addrs >> 32)};
    const ip::Ipv4Address dst{static_cast<std::uint32_t>(s.key.addrs)};
    out << "{\"flow\":" << s.flow_id << ",\"src\":\"" << src.to_string()
        << "\",\"dst\":\"" << dst.to_string()
        << "\",\"sport\":" << ((s.key.meta >> 48) & 0xFFFF)
        << ",\"dport\":" << ((s.key.meta >> 32) & 0xFFFF)
        << ",\"proto\":" << ((s.key.meta >> 8) & 0xFF) << ",\"ingress_pe\":\"";
    if (s.ingress_pe == FlowStatsTable::kUnknownAttr) {
      out << "?";
    } else if (node_namer) {
      json_escape(out, node_namer(s.ingress_pe));
    } else {
      out << s.ingress_pe;
    }
    out << "\",\"vpn\":\"";
    if (s.vpn == FlowStatsTable::kUnknownAttr) {
      out << "?";
    } else if (vpn_namer) {
      json_escape(out, vpn_namer(s.vpn));
    } else {
      out << s.vpn;
    }
    out << "\",\"class\":\"";
    if (s.phb == FlowStatsTable::kUnknownPhb) {
      out << "?";
    } else if (phb_namer) {
      json_escape(out, phb_namer(s.phb));
    } else {
      out << static_cast<unsigned>(s.phb);
    }
    out << "\",\"cause\":\"" << cause_name(r.cause) << "\""
        << ",\"first_s\":" << sim::to_seconds(s.first_seen)
        << ",\"last_s\":" << sim::to_seconds(s.last_seen)
        << ",\"offered_pkts\":" << s.offered_packets
        << ",\"offered_bytes\":" << s.offered_bytes
        << ",\"delivered_pkts\":" << s.delivered_packets
        << ",\"delivered_bytes\":" << s.delivered_bytes
        << ",\"dropped_pkts\":" << s.dropped_packets()
        << ",\"dropped_bytes\":" << s.dropped_bytes;
    bool any_drop = false;
    for (std::size_t i = 0; i < FlowStatsTable::kDropReasons; ++i) {
      if (s.drops[i] == 0) continue;
      out << (any_drop ? "," : ",\"drops\":{");
      any_drop = true;
      out << "\"" << to_string(static_cast<DropReason>(i))
          << "\":" << s.drops[i];
    }
    if (any_drop) out << "}";
    if (s.color[0] + s.color[1] + s.color[2] != 0) {
      out << ",\"color\":{\"green\":" << s.color[0]
          << ",\"yellow\":" << s.color[1] << ",\"red\":" << s.color[2] << "}";
    }
    if (s.delivered_packets != 0) {
      out << ",\"delay_ms\":{\"min\":" << sim::to_seconds(s.delay_min) * 1e3
          << ",\"mean\":"
          << static_cast<double>(s.delay_sum_ns) /
                 static_cast<double>(s.delivered_packets) / 1e6
          << ",\"max\":" << sim::to_seconds(s.delay_max) * 1e3 << "}";
    }
    out << "}\n";
  }
}

void FlowExporter::write_binary(std::ostream& out) const {
  // "MVFR" magic, u32 version, u32 record count, then fixed-size
  // native-endian records (field-by-field, no struct padding).
  out.write("MVFR", 4);
  put_raw(out, std::uint32_t{1});
  put_raw(out, static_cast<std::uint32_t>(records_.size()));
  for (const Record& r : records_) {
    const FlowStatsTable::Slot& s = r.acc;
    put_raw(out, s.key.addrs);
    put_raw(out, s.key.meta);
    put_raw(out, s.flow_id);
    put_raw(out, s.ingress_pe);
    put_raw(out, s.vpn);
    put_raw(out, s.phb);
    put_raw(out, static_cast<std::uint8_t>(r.cause));
    put_raw(out, std::uint16_t{0});  // pad to 8-byte alignment of times
    put_raw(out, s.first_seen);
    put_raw(out, s.last_seen);
    put_raw(out, s.offered_packets);
    put_raw(out, s.offered_bytes);
    put_raw(out, s.delivered_packets);
    put_raw(out, s.delivered_bytes);
    put_raw(out, s.dropped_bytes);
    for (const std::uint32_t d : s.drops) put_raw(out, d);
    for (const std::uint64_t c : s.color) put_raw(out, c);
    put_raw(out, s.delay_min);
    put_raw(out, s.delay_max);
    put_raw(out, s.delay_sum_ns);
    for (const std::uint32_t b : s.delay_log2) put_raw(out, b);
  }
}

double FlowExporter::RollupRow::delay_quantile_ms(double q) const noexcept {
  if (delay_count == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(delay_count)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < FlowStatsTable::kDelayBuckets; ++b) {
    seen += delay_log2[b];
    if (seen >= target && target != 0) return bucket_delay_ns(b) / 1e6;
  }
  return static_cast<double>(delay_max) / 1e6;
}

std::vector<FlowExporter::RollupRow> FlowExporter::rollup() const {
  std::vector<RollupRow> rows;
  auto find_row = [&rows](std::uint32_t vpn, std::uint8_t phb) -> RollupRow& {
    for (RollupRow& r : rows) {
      if (r.vpn == vpn && r.phb == phb) return r;
    }
    rows.push_back(RollupRow{});
    rows.back().vpn = vpn;
    rows.back().phb = phb;
    return rows.back();
  };
  for (const Record& rec : records_) {
    const FlowStatsTable::Slot& s = rec.acc;
    RollupRow& r = find_row(s.vpn, s.phb);
    ++r.flows;
    r.offered_packets += s.offered_packets;
    r.offered_bytes += s.offered_bytes;
    r.delivered_packets += s.delivered_packets;
    r.delivered_bytes += s.delivered_bytes;
    r.dropped_packets += s.dropped_packets();
    for (std::size_t i = 0; i < FlowStatsTable::kDropReasons; ++i) {
      r.drops[i] += s.drops[i];
    }
    for (std::size_t i = 0; i < 3; ++i) r.color[i] += s.color[i];
    if (s.delivered_packets != 0) {
      if (r.delay_count == 0 || s.delay_min < r.delay_min) {
        r.delay_min = s.delay_min;
      }
      if (s.delay_max > r.delay_max) r.delay_max = s.delay_max;
    }
    r.delay_sum_ns += s.delay_sum_ns;
    r.delay_count += s.delivered_packets;
    for (std::size_t i = 0; i < FlowStatsTable::kDelayBuckets; ++i) {
      r.delay_log2[i] += s.delay_log2[i];
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const RollupRow& a, const RollupRow& b) {
              if (a.vpn != b.vpn) return a.vpn < b.vpn;
              return a.phb < b.phb;
            });
  return rows;
}

stats::Table FlowExporter::rollup_table(const VpnNamer& vpn_namer,
                                        const PhbNamer& phb_namer) const {
  stats::Table t{"VPN",        "class",     "records",   "offered pkts",
                 "delivered",  "loss %",    "drop pkts", "mean ms",
                 "p50 ms",     "p99 ms",    "max ms"};
  std::uint32_t last_vpn = FlowStatsTable::kUnknownAttr;
  bool first = true;
  for (const RollupRow& r : rollup()) {
    if (!first && r.vpn != last_vpn) t.add_separator();
    first = false;
    last_vpn = r.vpn;
    std::string vpn_name =
        r.vpn == FlowStatsTable::kUnknownAttr
            ? std::string{"?"}
            : (vpn_namer ? vpn_namer(r.vpn) : std::to_string(r.vpn));
    std::string phb_name =
        r.phb == FlowStatsTable::kUnknownPhb
            ? std::string{"?"}
            : (phb_namer ? phb_namer(r.phb)
                         : std::to_string(static_cast<unsigned>(r.phb)));
    t.add_row({std::move(vpn_name), std::move(phb_name),
               stats::Table::num(r.flows),
               stats::Table::num(r.offered_packets),
               stats::Table::num(r.delivered_packets),
               stats::Table::num(r.loss_fraction() * 100.0, 3),
               stats::Table::num(r.dropped_packets),
               stats::Table::num(r.delay_mean_ms(), 3),
               stats::Table::num(r.delay_quantile_ms(0.50), 3),
               stats::Table::num(r.delay_quantile_ms(0.99), 3),
               stats::Table::num(static_cast<double>(r.delay_max) / 1e6, 3)});
  }
  return t;
}

// ---------------------------------------------------------------------------

void register_flow_metrics(FlowExporter& exporter, MetricsRegistry& registry) {
  const FlowExporter* e = &exporter;
  registry.add_gauge("engine/flow/records", [e] {
    return static_cast<double>(e->records().size());
  });
  registry.add_gauge("engine/flow/active", [e] {
    return static_cast<double>(e->active_flows());
  });
  registry.add_gauge("engine/flow/merged_slots", [e] {
    return static_cast<double>(e->merged_slots());
  });
  const std::vector<FlowStatsTable*> tables = exporter.tables();
  for (std::size_t i = 0; i < tables.size(); ++i) {
    const FlowStatsTable* t = tables[i];
    registry.add_gauge("engine/flow/shard" + std::to_string(i) + "/claims",
                       [t] { return static_cast<double>(t->claims()); });
  }
}

}  // namespace mvpn::obs
