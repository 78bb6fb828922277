#pragma once

// The generated-topology data-plane pass shared by bench_scalability's
// topogen, flow and megaflow phases and by the ctest cases that pin their
// deterministic figures (test_traffic's 10^5-flow megaflow identity and
// footprint), so a test and the phase it stands in for run the same code
// on the same plan.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backbone/fixtures.hpp"
#include "backbone/partition.hpp"
#include "backbone/topogen.hpp"
#include "net/shard_runtime.hpp"
#include "obs/sync_profiler.hpp"
#include "qos/sla.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"

namespace mvpn::harness {

struct ThroughputResult {
  std::size_t flows = 0;
  double sim_seconds = 0;
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  double wall_s = 0;

  [[nodiscard]] double packets_per_sec() const {
    return wall_s > 0 ? static_cast<double>(delivered) / wall_s : 0.0;
  }
  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

struct ShardedResult {
  ThroughputResult thr;
  std::string sla_csv;  ///< merged per-class table — byte-compared across
                        ///< shard counts, a stronger identity check than
                        ///< delivered counts alone
  std::uint64_t windows = 0;
  std::uint64_t widened = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t batches = 0;
  std::string sync_table;  ///< rendered SyncProfiler report (profiled runs)
  std::uint64_t flow_records = 0;  ///< IPFIX records cut (flow-on runs)
  /// Megaflow instrumentation: wall time spent building + arming the
  /// traffic engine, and the FlowSet engine's own memory accounting.
  double setup_s = 0.0;
  std::size_t src_state_bytes = 0;
  std::size_t src_calendar_bytes = 0;
  /// Router flow-cache totals over the whole topology (ring runs).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// The generated plan every harness pass runs: chorded 16P core, 64
/// dual-homed PEs in pods of 8, two CE sites per PE, seed 7.
inline backbone::GeneratedPlan isp_plan(std::size_t flows) {
  backbone::TopogenParams params;
  params.p = 16;
  params.pe = 64;
  params.ce = 2;
  params.pod = 8;
  params.flows = flows;
  params.seed = 7;
  return backbone::generate_plan(params);
}

/// Knobs for run_topogen beyond the shard count: sync profiler and flow
/// accounting (tables + exporter + periodic scans, mirroring the scenario
/// layer's wiring). Defaults reproduce the plain pass.
struct TopogenOpts {
  bool profile = false;
  bool flow = false;
};

/// Build, converge and partition `plan`, drive `sim_seconds` of its flows
/// through one SoA FlowSet per lane (plus 0.5 s of drain), and return the
/// merged per-class SLA table with the engine and footprint figures.
inline ShardedResult run_topogen(const backbone::GeneratedPlan& plan,
                                 std::uint32_t shards, double sim_seconds,
                                 const TopogenOpts& opt = {}) {
  backbone::MplsBackbone bb(plan.backbone);

  std::vector<vpn::VpnId> vpns;
  vpns.reserve(plan.vpns.size());
  for (const std::string& name : plan.vpns) {
    vpns.push_back(bb.service.create_vpn(name));
  }
  std::vector<backbone::MplsBackbone::Site> sites;
  sites.reserve(plan.sites.size());
  for (const backbone::PlanSite& s : plan.sites) {
    sites.push_back(bb.add_site(vpns[s.vpn], s.pe, s.prefix));
  }
  bb.start_and_converge();

  const std::unique_ptr<net::ShardRuntime> runtime =
      backbone::make_shard_runtime(
          bb.topo, backbone::compute_shard_plan(bb.topo, shards));

  // Profiled variants attach the epoch-level sync profiler, with a cache
  // sampler summing the per-router flow-cache counters by shard so the
  // report carries per-shard hit rates. The profiler lives until after
  // report() below — past the runtime's last run_until.
  std::unique_ptr<obs::SyncProfiler> prof;
  if (opt.profile) {
    prof = std::make_unique<obs::SyncProfiler>(runtime->shard_count());
    backbone::attach_sync_profiler(*runtime, bb.topo, *prof);
  }

  const std::uint32_t lanes = runtime->shard_count();
  std::vector<std::unique_ptr<qos::SlaProbe>> probes;
  std::vector<std::unique_ptr<traffic::MeasurementSink>> sinks;
  for (std::uint32_t s = 0; s < lanes; ++s) {
    probes.push_back(
        std::make_unique<qos::SlaProbe>("lane" + std::to_string(s)));
    sinks.push_back(std::make_unique<traffic::MeasurementSink>(
        *probes[s], runtime->shard_scheduler(s)));
  }
  auto lane_of = [&](std::size_t site) {
    return runtime->shard_of(sites[site].ce->id());
  };
  for (std::size_t s = 0; s < sites.size(); ++s) {
    sinks[lane_of(s)]->bind(*sites[s].ce);
  }

  // One SoA FlowSet per lane; every site registered on every lane so
  // site indices coincide with plan site indices.
  std::vector<std::unique_ptr<traffic::FlowSet>> fsets;
  const sim::SimTime tb = bb.topo.base_scheduler().now();
  const auto setup0 = std::chrono::steady_clock::now();
  for (std::uint32_t s = 0; s < lanes; ++s) {
    fsets.push_back(std::make_unique<traffic::FlowSet>(
        runtime->shard_scheduler(s), probes[s].get(), plan.backbone.seed));
    for (std::size_t i = 0; i < sites.size(); ++i) {
      fsets[s]->add_site(
          *sites[i].ce,
          ip::Ipv4Address(plan.sites[i].prefix.address().value() + 1));
    }
  }
  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    const backbone::PlanFlow& f = plan.flows[i];
    const auto id = static_cast<std::uint32_t>(1 + i);
    const vpn::VpnId flow_vpn = vpns[plan.sites[f.from].vpn];
    sinks[lane_of(f.to)]->expect_flow(id, f.phb, flow_vpn);
    traffic::FlowSet::FlowDef d;
    d.flow_id = id;
    d.from_site = static_cast<std::uint32_t>(f.from);
    d.to_site = static_cast<std::uint32_t>(f.to);
    d.kind = f.kind == "cbr"       ? traffic::FlowSet::Kind::kCbr
             : f.kind == "poisson" ? traffic::FlowSet::Kind::kPoisson
                                   : traffic::FlowSet::Kind::kOnOff;
    d.rate_bps = f.rate_bps;
    d.vpn = flow_vpn;
    d.phb = f.phb;
    d.premark = f.phb != qos::Phb::kBe;  // generated CEs carry no ACLs
    d.dst_port = f.port;
    d.payload_bytes = static_cast<std::uint32_t>(f.size);
    d.start = tb + sim::from_seconds(f.start_s);
    fsets[lane_of(f.from)]->add_flow(d);
  }
  double setup_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - setup0)
          .count();

  // Flow-accounting variants use the scenario layer's wiring (§13), so the
  // flow-on pass prices the full telemetry pipeline.
  std::unique_ptr<obs::FlowExporter> fexp;
  if (opt.flow) fexp = backbone::attach_flow_exporter(*runtime);
  const sim::SimTime t0 = bb.topo.base_scheduler().now();

  const std::uint64_t ev0 = runtime->executed_count();
  const auto wall0 = std::chrono::steady_clock::now();
  const sim::SimTime t_stop = t0 + sim::from_seconds(sim_seconds);
  for (auto& fs : fsets) fs->run(t_stop);
  // Arming the calendars is part of setup.
  setup_s += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           wall0)
                 .count();
  runtime->run_until(t0 + sim::from_seconds(sim_seconds + 0.5));
  const auto wall1 = std::chrono::steady_clock::now();

  ShardedResult r;
  r.thr.flows = plan.flows.size();
  r.thr.sim_seconds = sim_seconds;
  r.setup_s = setup_s;
  for (const auto& fs : fsets) {
    r.src_state_bytes += fs->state_bytes();
    r.src_calendar_bytes += fs->calendar_bytes();
  }
  for (auto& s : sinks) r.thr.delivered += s->delivered();
  r.thr.events = runtime->executed_count() - ev0;
  r.windows = runtime->windows();
  r.widened = runtime->widened_windows();
  r.handoffs = runtime->handoffs();
  r.batches = runtime->delivery_batches();
  r.thr.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  if (fexp) {
    fexp->flush();
    r.flow_records = fexp->records().size();
  }
  runtime->finish();
  qos::SlaProbe master("master");
  for (auto& p : probes) master.merge_from(*p);
  r.sla_csv = master.to_csv(sim_seconds);
  if (prof) r.sync_table = prof->report().to_table();
  return r;
}

}  // namespace mvpn::harness
