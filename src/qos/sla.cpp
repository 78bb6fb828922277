#include "qos/sla.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mvpn::qos {

SlaProbe::SlaProbe(std::string name) : name_(std::move(name)) {}

void SlaProbe::record_sent(Phb cls, std::size_t bytes) {
  ClassReport& r = by_class_[cls];
  ++r.sent_packets;
  r.sent_bytes += bytes;
}

void SlaProbe::record_delivered(Phb cls, std::uint32_t flow_id,
                                sim::SimTime latency, std::size_t bytes) {
  ClassReport& r = by_class_[cls];
  ++r.delivered_packets;
  r.delivered_bytes += bytes;
  r.latency_s.add(sim::to_seconds(latency));

  auto [it, inserted] = jitter_by_flow_.try_emplace(flow_id);
  FlowJitter& f = it->second;
  if (!inserted) {
    const sim::SimTime delta = latency > f.last_latency
                                   ? latency - f.last_latency
                                   : f.last_latency - latency;
    const double d_s = sim::to_seconds(delta);
    f.jitter.add(d_s);
    f.j_s += (d_s - f.j_s) / 16.0;  // RFC 3550 §6.4.1
    f.has_delta = true;
  }
  f.last_latency = latency;
  f.cls = cls;
}

void SlaProbe::merge_from(const SlaProbe& other) {
  for (const auto& [cls, or_] : other.by_class_) {
    ClassReport& r = by_class_[cls];
    r.sent_packets += or_.sent_packets;
    r.sent_bytes += or_.sent_bytes;
    r.delivered_packets += or_.delivered_packets;
    r.delivered_bytes += or_.delivered_bytes;
    r.latency_s.merge(or_.latency_s);
  }
  for (const auto& [flow_id, f] : other.jitter_by_flow_) {
    if (!jitter_by_flow_.insert({flow_id, f}).second) {
      throw std::logic_error(
          "SlaProbe::merge_from: flow " + std::to_string(flow_id) +
          " delivered through two probes — the partition split one flow's "
          "sink across shards");
    }
  }
}

// Both jitter aggregates fold floating-point per-flow state, so the fold
// happens in ascending flow-id order — never hash-map iteration order,
// which differs between a serially filled probe and one merged from
// per-shard probes.

double SlaProbe::rfc3550_jitter_s(Phb cls) const {
  std::vector<std::pair<std::uint32_t, double>> flows;
  for (const auto& [id, f] : jitter_by_flow_) {
    if (f.cls == cls && f.has_delta) flows.emplace_back(id, f.j_s);
  }
  std::sort(flows.begin(), flows.end());
  double sum = 0.0;
  for (const auto& [id, j] : flows) sum += j;
  return flows.empty() ? 0.0 : sum / static_cast<double>(flows.size());
}

stats::RunningStats SlaProbe::jitter_stats(Phb cls) const {
  std::vector<std::pair<std::uint32_t, const FlowJitter*>> flows;
  for (const auto& [id, f] : jitter_by_flow_) {
    if (f.cls == cls && f.has_delta) flows.emplace_back(id, &f);
  }
  std::sort(flows.begin(), flows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  stats::RunningStats out;
  for (const auto& [id, f] : flows) out.merge(f->jitter);
  return out;
}

const SlaProbe::ClassReport& SlaProbe::report(Phb cls) const {
  auto it = by_class_.find(cls);
  if (it == by_class_.end()) {
    throw std::out_of_range("SlaProbe: no data for class " + to_string(cls));
  }
  return it->second;
}

bool SlaProbe::has_class(Phb cls) const {
  return by_class_.find(cls) != by_class_.end();
}

stats::Table SlaProbe::to_table(double interval_s) const {
  stats::Table t{"class",      "sent",      "delivered", "loss %",
                 "mean ms",    "p50 ms",    "p99 ms",    "jitter ms",
                 "j3550 ms",   "goodput Mb/s"};
  for (const auto& [cls, r] : by_class_) {
    t.add_row({to_string(cls), stats::Table::num(r.sent_packets),
               stats::Table::num(r.delivered_packets),
               stats::Table::num(100.0 * r.loss_fraction(), 2),
               stats::Table::num(r.latency_s.mean() * 1e3, 3),
               stats::Table::num(r.latency_s.percentile(50) * 1e3, 3),
               stats::Table::num(r.latency_s.percentile(99) * 1e3, 3),
               stats::Table::num(jitter_stats(cls).mean() * 1e3, 3),
               stats::Table::num(rfc3550_jitter_s(cls) * 1e3, 3),
               stats::Table::num(r.goodput_bps(interval_s) / 1e6, 3)});
  }
  return t;
}

std::string SlaProbe::to_csv(double interval_s) const {
  std::string out =
      "class,sent,delivered,loss_pct,mean_ms,p50_ms,p99_ms,jitter_ms,"
      "jitter_rfc3550_ms,goodput_mbps\n";
  for (const auto& [cls, r] : by_class_) {
    out += to_string(cls) + ',' + std::to_string(r.sent_packets) + ',' +
           std::to_string(r.delivered_packets) + ',' +
           stats::Table::num(100.0 * r.loss_fraction(), 4) + ',' +
           stats::Table::num(r.latency_s.mean() * 1e3, 4) + ',' +
           stats::Table::num(r.latency_s.percentile(50) * 1e3, 4) + ',' +
           stats::Table::num(r.latency_s.percentile(99) * 1e3, 4) + ',' +
           stats::Table::num(jitter_stats(cls).mean() * 1e3, 4) + ',' +
           stats::Table::num(rfc3550_jitter_s(cls) * 1e3, 4) + ',' +
           stats::Table::num(r.goodput_bps(interval_s) / 1e6, 4) + '\n';
  }
  return out;
}

}  // namespace mvpn::qos
