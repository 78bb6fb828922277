#include "qos/sla.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace mvpn::qos {

SlaProbe::SlaProbe(std::string name) : name_(std::move(name)) {}

SlaProbe::ClassReport& SlaProbe::class_report(Phb cls) {
  std::optional<ClassReport>& r = by_class_[static_cast<std::size_t>(cls)];
  if (!r) r.emplace();
  return *r;
}

void SlaProbe::record_sent(Phb cls, std::size_t bytes) {
  ClassReport& r = class_report(cls);
  ++r.sent_packets;
  r.sent_bytes += bytes;
}

void SlaProbe::record_delivered(Phb cls, std::uint32_t flow_id,
                                sim::SimTime latency, std::size_t bytes) {
  ClassReport& r = class_report(cls);
  ++r.delivered_packets;
  r.delivered_bytes += bytes;
  r.latency_s.add(sim::to_seconds(latency));

  if (flow_id >= slot_of_.size()) slot_of_.resize(std::size_t{flow_id} + 1);
  std::uint32_t& slot = slot_of_[flow_id];
  if (slot == 0) {
    flows_.push_back({});
    slot = static_cast<std::uint32_t>(flows_.size());
  } else {
    FlowJitter& f = flows_[slot - 1];
    const sim::SimTime delta = latency > f.last_latency
                                   ? latency - f.last_latency
                                   : f.last_latency - latency;
    const double d_s = sim::to_seconds(delta);
    // Welford's mean update, as stats::RunningStats::add makes it.
    ++f.deltas;
    f.delta_mean_s += (d_s - f.delta_mean_s) / static_cast<double>(f.deltas);
    f.j_s += (d_s - f.j_s) / 16.0;  // RFC 3550 §6.4.1
  }
  FlowJitter& f = flows_[slot - 1];
  f.last_latency = latency;
  f.cls = cls;
}

void SlaProbe::merge_from(const SlaProbe& other) {
  for (std::size_t c = 0; c < kPhbCount; ++c) {
    if (!other.by_class_[c]) continue;
    const ClassReport& or_ = *other.by_class_[c];
    ClassReport& r = class_report(static_cast<Phb>(c));
    r.sent_packets += or_.sent_packets;
    r.sent_bytes += or_.sent_bytes;
    r.delivered_packets += or_.delivered_packets;
    r.delivered_bytes += or_.delivered_bytes;
    r.latency_s.merge(or_.latency_s);
  }
  if (other.slot_of_.size() > slot_of_.size()) {
    slot_of_.resize(other.slot_of_.size());
  }
  flows_.reserve(flows_.size() + other.flows_.size());
  for (std::size_t id = 0; id < other.slot_of_.size(); ++id) {
    const std::uint32_t theirs = other.slot_of_[id];
    if (theirs == 0) continue;
    if (slot_of_[id] != 0) {
      throw std::logic_error(
          "SlaProbe::merge_from: flow " + std::to_string(id) +
          " delivered through two probes — the partition split one flow's "
          "sink across shards");
    }
    flows_.push_back(other.flows_[theirs - 1]);
    slot_of_[id] = static_cast<std::uint32_t>(flows_.size());
  }
}

// Both jitter aggregates fold floating-point per-flow state, so the fold
// walks the slot index in ascending flow-id order — never record order,
// which differs between a serially filled probe and one merged from
// per-shard probes.

double SlaProbe::rfc3550_jitter_s(Phb cls) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const std::uint32_t slot : slot_of_) {
    if (slot == 0) continue;
    const FlowJitter& f = flows_[slot - 1];
    if (f.cls != cls || f.deltas == 0) continue;
    sum += f.j_s;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double SlaProbe::jitter_mean_s(Phb cls) const {
  // Chan's pairwise merge of the per-flow accumulators, as
  // stats::RunningStats::merge makes it, restricted to the mean.
  double mean = 0.0;
  std::uint64_t n = 0;
  for (const std::uint32_t slot : slot_of_) {
    if (slot == 0) continue;
    const FlowJitter& f = flows_[slot - 1];
    if (f.cls != cls || f.deltas == 0) continue;
    if (n == 0) {
      mean = f.delta_mean_s;
    } else {
      const double na = static_cast<double>(n);
      const double nb = static_cast<double>(f.deltas);
      const double delta = f.delta_mean_s - mean;
      const double total = na + nb;
      mean += delta * nb / total;
    }
    n += f.deltas;
  }
  return mean;
}

const SlaProbe::ClassReport& SlaProbe::report(Phb cls) const {
  const std::optional<ClassReport>& r =
      by_class_[static_cast<std::size_t>(cls)];
  if (!r) {
    throw std::out_of_range("SlaProbe: no data for class " + to_string(cls));
  }
  return *r;
}

bool SlaProbe::has_class(Phb cls) const {
  return by_class_[static_cast<std::size_t>(cls)].has_value();
}

stats::Table SlaProbe::to_table(double interval_s) const {
  stats::Table t{"class",      "sent",      "delivered", "loss %",
                 "mean ms",    "p50 ms",    "p99 ms",    "jitter ms",
                 "j3550 ms",   "goodput Mb/s"};
  for (std::size_t c = 0; c < kPhbCount; ++c) {
    if (!by_class_[c]) continue;
    const Phb cls = static_cast<Phb>(c);
    const ClassReport& r = *by_class_[c];
    t.add_row({to_string(cls), stats::Table::num(r.sent_packets),
               stats::Table::num(r.delivered_packets),
               stats::Table::num(100.0 * r.loss_fraction(), 2),
               stats::Table::num(r.latency_s.mean() * 1e3, 3),
               stats::Table::num(r.latency_s.percentile(50) * 1e3, 3),
               stats::Table::num(r.latency_s.percentile(99) * 1e3, 3),
               stats::Table::num(jitter_mean_s(cls) * 1e3, 3),
               stats::Table::num(rfc3550_jitter_s(cls) * 1e3, 3),
               stats::Table::num(r.goodput_bps(interval_s) / 1e6, 3)});
  }
  return t;
}

std::string SlaProbe::to_csv(double interval_s) const {
  std::string out =
      "class,sent,delivered,loss_pct,mean_ms,p50_ms,p99_ms,jitter_ms,"
      "jitter_rfc3550_ms,goodput_mbps\n";
  for (std::size_t c = 0; c < kPhbCount; ++c) {
    if (!by_class_[c]) continue;
    const Phb cls = static_cast<Phb>(c);
    const ClassReport& r = *by_class_[c];
    out += to_string(cls) + ',' + std::to_string(r.sent_packets) + ',' +
           std::to_string(r.delivered_packets) + ',' +
           stats::Table::num(100.0 * r.loss_fraction(), 4) + ',' +
           stats::Table::num(r.latency_s.mean() * 1e3, 4) + ',' +
           stats::Table::num(r.latency_s.percentile(50) * 1e3, 4) + ',' +
           stats::Table::num(r.latency_s.percentile(99) * 1e3, 4) + ',' +
           stats::Table::num(jitter_mean_s(cls) * 1e3, 4) + ',' +
           stats::Table::num(rfc3550_jitter_s(cls) * 1e3, 4) + ',' +
           stats::Table::num(r.goodput_bps(interval_s) / 1e6, 4) + '\n';
  }
  return out;
}

}  // namespace mvpn::qos
