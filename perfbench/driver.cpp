// Benchmark driver for the MPLS VPN simulator: runs one named workload
// end to end (plan -> build -> converge -> partition -> arm -> traffic ->
// verify -> teardown) for a wall-clock budget, one fresh pipeline per
// repetition, and prints every metric with its unit plus the outcome of
// the correctness checks. It only calls public simulator functions and
// reads public counters; it never changes simulated behaviour.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE]
//
// The last stdout line is one JSON object (see README.md in this
// directory); perfbench/run.py wraps it into the benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "abi_probe.hpp"
#include "backbone/fixtures.hpp"
#include "backbone/partition.hpp"
#include "backbone/topogen.hpp"
#include "net/shard_runtime.hpp"
#include "obs/sync_profiler.hpp"
#include "qos/classifier.hpp"
#include "qos/queues.hpp"
#include "qos/sla.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"

namespace {

using namespace mvpn;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- process facts ---------------------------------------------------------

/// A "Key:   value" line of /proc/self/status as an integer (kB for Vm*).
std::uint64_t proc_status(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtoull(line.c_str() + n + 1, nullptr, 10);
    }
  }
  return 0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// --- spans -------------------------------------------------------------------

/// Wall-clock spans around the calls into each layer, kept in memory and
/// written once as Chrome trace JSON. Disabled recorders cost one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool on) : on_(on), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanRecorder& r, const char* name) : r_(r), id_(r.open(name)) {}
    ~Scope() { r_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& r_;
    int id_;
  };

  int open(const char* name) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.start_us = now_us();
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].dur_us = now_us() - spans_[id].start_us;
    stack_.pop_back();
  }

  /// Self time of `name` spans summed, in seconds: duration minus the part
  /// covered by direct children (children never overlap their siblings).
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    const std::vector<double> child = child_us();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += (spans_[i].dur_us - child[i]) * 1e-6;
    }
    return out;
  }

  void write_chrome(std::ostream& out) const {
    const std::vector<double> child = child_us();
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"self_us\":%.3f}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.start_us, s.dur_us, i,
                    s.parent, s.dur_us - child[i]);
      out << buf;
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double dur_us = 0;
    int parent = -1;
  };
  /// Per span, the time its direct children cover.
  [[nodiscard]] std::vector<double> child_us() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.dur_us;
    }
    return child;
  }
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  backbone::TopogenParams params;
  std::uint32_t shards = 1;
  double sim_s = 0;    ///< traffic phase, simulated seconds
  double drain_s = 0;  ///< quiet tail after the sources stop
  bool edge_qos = false;  ///< CE classify/police/shape + EXP-aware WFQ core
  bool flap = false;      ///< fail and restore one core link mid-traffic
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w{};
  w.params.seed = seed;
  if (name == "edge_qos") {
    // Paper §5 chain at paper scale: 4P/8PE/16 sites, one VPN, 10 Mb/s core.
    w.name = "edge_qos";
    w.params.p = 4;
    w.params.pe = 8;
    w.params.ce = 2;
    w.params.pod = 8;
    w.params.flows = 512;
    w.params.core_bw_bps = 10e6;
    w.params.rate_bps = 400e3;
    w.sim_s = 6.0;
    w.drain_s = 0.5;
    w.edge_qos = true;
  } else if (name == "isp_sharded") {
    // 16P/64PE/128CE generated ISP, 10^5 premarked flows, 2 shards.
    w.name = "isp_sharded";
    w.params.p = 16;
    w.params.pe = 64;
    w.params.ce = 2;
    w.params.pod = 8;
    w.params.flows = 100000;
    w.shards = 2;
    w.sim_s = 0.2;
    w.drain_s = 0.5;
  } else if (name == "isp_boot") {
    // Control-plane cold boot: 64P/256PE/1024 sites, 2 route reflectors.
    w.name = "isp_boot";
    w.params.p = 64;
    w.params.pe = 256;
    w.params.ce = 4;
    w.params.pod = 8;
    w.params.flows = 20000;
    w.sim_s = 0.5;
    w.drain_s = 0.5;
    w.flap = true;
  } else {
    w.name = nullptr;
  }
  return w;
}

/// The CPE rule set of edge_qos: 256 port-range rules (all on the
/// classifier's scan fallback), first match wins. The three service ranges
/// come first; the 253 generic ranges after them tile the port space and
/// mark in rotation, and the plan's best-effort port (20000) lands in a
/// BE tile.
std::unique_ptr<qos::CbqClassifier> make_edge_classifier() {
  auto c = std::make_unique<qos::CbqClassifier>(qos::Phb::kBe);
  auto add = [&](const std::string& name, std::uint16_t lo, std::uint16_t hi,
                 qos::Phb mark) {
    qos::MatchRule r;
    r.name = name;
    r.protocol = 17;
    r.dst_port = qos::PortRange{lo, hi};
    r.mark = mark;
    c->add_rule(std::move(r));
  };
  add("voice", 16384, 16484, qos::Phb::kEf);
  add("bulk-af11", 5001, 5003, qos::Phb::kAf11);
  add("video-af21", 5004, 5006, qos::Phb::kAf21);
  const qos::Phb rotation[] = {qos::Phb::kBe, qos::Phb::kAf21, qos::Phb::kBe,
                               qos::Phb::kAf11};
  for (std::uint32_t k = 0; k < 253; ++k) {
    const auto lo = static_cast<std::uint16_t>(k * 259);
    const auto hi = static_cast<std::uint16_t>(k * 259 + 258);
    const bool holds_be_port = lo <= 20000 && 20000 <= hi;
    add("tile" + std::to_string(k), lo, hi,
        holds_be_port ? qos::Phb::kBe : rotation[k % 4]);
  }
  return c;
}

traffic::FlowSet::Kind kind_of(const std::string& k) {
  if (k == "cbr") return traffic::FlowSet::Kind::kCbr;
  if (k == "poisson") return traffic::FlowSet::Kind::kPoisson;
  return traffic::FlowSet::Kind::kOnOff;
}

// --- one repetition ------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RepResult {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double traffic_s = 0;
  double teardown_s = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::string digest;
  std::uint64_t threads = 1;
  std::vector<double> slice_ms;  ///< traced reps only
  std::vector<Metric> layer;  ///< per-layer readings, traced reps only
};

/// Everything one pipeline owns. Member order is the teardown contract
/// (reverse declaration order): traffic objects die before the runtime,
/// the runtime before the backbone it is installed on.
struct Instance {
  std::unique_ptr<backbone::GeneratedPlan> plan;
  std::unique_ptr<backbone::MplsBackbone> bb;
  std::vector<vpn::VpnId> vpns;
  std::vector<backbone::MplsBackbone::Site> sites;
  std::unique_ptr<obs::SyncProfiler> prof;  ///< outlives the runtime
  std::unique_ptr<net::ShardRuntime> runtime;
  std::vector<std::unique_ptr<qos::SlaProbe>> probes;
  std::vector<std::unique_ptr<traffic::MeasurementSink>> sinks;
  std::vector<std::unique_ptr<traffic::FlowSet>> fsets;
};

struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Time `fn(i)` over enough passes of `n` inputs for a stable per-call
/// figure (>= 2^20 calls and >= 20 ms); returns ns per call.
template <typename Fn>
double ns_per_call(std::size_t n, Fn&& fn) {
  if (n == 0) return 0.0;
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    calls += n;
    elapsed = seconds_between(t0, Clock::now());
  } while (calls < (1u << 20) || elapsed < 0.02);
  return elapsed * 1e9 / static_cast<double>(calls);
}

RepResult run_rep(const Workload& w, bool traced, SpanRecorder& spans) {
  RepResult r;
  auto inst = std::make_unique<Instance>();
  Instance& in = *inst;
  SpanRecorder::Scope rep_span(spans, "rep");
  const auto t_plan = Clock::now();
  const double cpu0 = cpu_seconds();

  // plan
  {
    SpanRecorder::Scope s(spans, "plan");
    in.plan = std::make_unique<backbone::GeneratedPlan>(
        backbone::generate_plan(w.params));
  }
  const backbone::GeneratedPlan& plan = *in.plan;

  // build
  const auto t_build = Clock::now();
  {
    SpanRecorder::Scope s(spans, "build");
    backbone::BackboneConfig cfg = plan.backbone;
    if (w.edge_qos) {
      cfg.core_queue = [] {
        return std::make_unique<qos::WfqQueueDisc>(
            std::vector<double>{8, 3, 1}, 100, qos::ef_af_be_selector());
      };
    }
    in.bb = std::make_unique<backbone::MplsBackbone>(cfg);
    for (const std::string& name : plan.vpns) {
      in.vpns.push_back(in.bb->service.create_vpn(name));
    }
    in.sites.reserve(plan.sites.size());
    for (const backbone::PlanSite& s2 : plan.sites) {
      in.sites.push_back(in.bb->add_site(in.vpns[s2.vpn], s2.pe, s2.prefix));
    }
    if (w.edge_qos) {
      for (auto& site : in.sites) {
        site.ce->set_classifier(make_edge_classifier());
        // Contracts per site, bytes/s: EF policed to 1.2 Mb/s (sites with
        // more than three voice flows lose the excess), AF11 shaped to
        // 2 Mb/s (bursts are smoothed, the mean always fits).
        site.ce->add_policer(qos::Phb::kEf, 150000, 6000, 6000);
        site.ce->add_shaper(qos::Phb::kAf11, 250000, 16000);
      }
    }
  }
  backbone::MplsBackbone& bb = *in.bb;
  const double build_s = seconds_between(t_build, Clock::now());

  // converge
  const auto t_conv = Clock::now();
  const sim::SimTime sim_conv0 = bb.topo.base_scheduler().now();
  {
    SpanRecorder::Scope s(spans, "converge");
    bb.start_and_converge();
  }
  const double converge_s = seconds_between(t_conv, Clock::now());
  const double converge_sim_ms =
      sim::to_seconds(bb.topo.base_scheduler().now() - sim_conv0) * 1e3;
  // Control-plane work of the cold boot, read before traffic (the flap
  // adds its own messages later).
  const double igp_lsa = static_cast<double>(bb.cp.message_count("igp.lsa"));
  const double bgp_upd = static_cast<double>(bb.cp.message_count("bgp.update"));
  const double bgp_bytes = static_cast<double>(
      bb.cp.byte_count("bgp.update") + bb.cp.byte_count("bgp.withdraw"));
  const double ldp_maps =
      static_cast<double>(bb.cp.message_count("ldp.mapping"));
  const double spf_runs = static_cast<double>(bb.igp.spf_runs());
  const double spf_full = static_cast<double>(bb.igp.spf_full_runs());
  const double adj_rib_bytes = static_cast<double>(bb.bgp.adj_rib_bytes());
  const double lfib_entries =
      static_cast<double>(bb.domain.total_lfib_entries());

  // partition (serial workloads ask for one shard: the degenerate plan)
  const auto t_part = Clock::now();
  std::size_t cut_links = 0;
  {
    SpanRecorder::Scope s(spans, "partition");
    backbone::ShardPlan sp = backbone::compute_shard_plan(bb.topo, w.shards);
    cut_links = sp.cut_links.size();
    if (sp.parallel() && sp.lookahead > 0) {
      in.runtime = std::make_unique<net::ShardRuntime>(
          bb.topo, std::move(sp.node_shard), sp.shard_count, sp.lookahead);
    }
  }
  const double partition_s = seconds_between(t_part, Clock::now());
  net::ShardRuntime* rt = in.runtime.get();
  const std::uint32_t lanes = rt != nullptr ? rt->shard_count() : 1;
  if (w.shards > 1 && rt == nullptr) {
    r.problems.push_back("partition did not produce a parallel plan");
  }

  if (traced) {
    in.prof = std::make_unique<obs::SyncProfiler>(lanes);
    if (rt != nullptr) {
      auto by_shard =
          std::make_shared<std::vector<std::vector<const vpn::Router*>>>(lanes);
      for (std::size_t i = 0; i < bb.topo.node_count(); ++i) {
        const auto id = static_cast<ip::NodeId>(i);
        if (const auto* rr = dynamic_cast<vpn::Router*>(&bb.topo.node(id))) {
          (*by_shard)[bb.topo.shard_of(id)].push_back(rr);
        }
      }
      in.prof->set_cache_sampler([by_shard](std::uint32_t shard,
                                            std::uint64_t& hits,
                                            std::uint64_t& misses) {
        hits = 0;
        misses = 0;
        for (const vpn::Router* rr : (*by_shard)[shard]) {
          hits += rr->flowcache_stats().hits;
          misses += rr->flowcache_stats().misses;
        }
      });
      rt->set_profiler(in.prof.get());
    }
  }

  // arm
  const auto t_arm = Clock::now();
  const sim::SimTime t0 = bb.topo.base_scheduler().now();
  const sim::SimTime t_stop = t0 + sim::from_seconds(w.sim_s);
  const sim::SimTime t_end = t_stop + sim::from_seconds(w.drain_s);
  {
    SpanRecorder::Scope s(spans, "arm");
    auto lane_sched = [&](std::uint32_t l) -> sim::Scheduler& {
      return rt != nullptr ? rt->shard_scheduler(l) : bb.topo.scheduler();
    };
    for (std::uint32_t l = 0; l < lanes; ++l) {
      in.probes.push_back(
          std::make_unique<qos::SlaProbe>("lane" + std::to_string(l)));
      in.sinks.push_back(std::make_unique<traffic::MeasurementSink>(
          *in.probes[l], lane_sched(l)));
      in.fsets.push_back(std::make_unique<traffic::FlowSet>(
          lane_sched(l), in.probes[l].get(), plan.backbone.seed));
    }
    auto lane_of = [&](std::size_t site) -> std::uint32_t {
      return rt != nullptr ? bb.topo.shard_of(in.sites[site].ce->id()) : 0U;
    };
    for (std::size_t i = 0; i < in.sites.size(); ++i) {
      in.sinks[lane_of(i)]->bind(*in.sites[i].ce);
      const ip::Ipv4Address host(plan.sites[i].prefix.address().value() + 1);
      for (auto& fs : in.fsets) fs->add_site(*in.sites[i].ce, host);
    }
    for (std::size_t i = 0; i < plan.flows.size(); ++i) {
      const backbone::PlanFlow& f = plan.flows[i];
      const auto id = static_cast<std::uint32_t>(1 + i);
      const vpn::VpnId vpn = in.vpns[plan.sites[f.from].vpn];
      in.sinks[lane_of(f.to)]->expect_flow(id, f.phb, vpn);
      traffic::FlowSet::FlowDef d;
      d.flow_id = id;
      d.from_site = static_cast<std::uint32_t>(f.from);
      d.to_site = static_cast<std::uint32_t>(f.to);
      d.kind = kind_of(f.kind);
      d.rate_bps = f.rate_bps;
      d.vpn = vpn;
      d.phb = f.phb;
      // edge_qos sends unmarked traffic for the CE classifiers to mark;
      // the ISP workloads carry no CE ACLs, so their hosts premark.
      d.premark = !w.edge_qos && f.phb != qos::Phb::kBe;
      d.dst_port = f.port;
      d.payload_bytes = static_cast<std::uint32_t>(f.size);
      d.start = t0 + sim::from_seconds(f.start_s);
      in.fsets[lane_of(f.from)]->add_flow(d);
    }
    for (auto& fs : in.fsets) fs->run(t_stop);
  }
  const auto t_armed = Clock::now();
  r.setup_s = seconds_between(t_plan, t_armed);
  const double arm_s = seconds_between(t_arm, t_armed);

  // traffic
  const std::uint64_t ev0 = bb.topo.base_scheduler().executed_count();
  auto shard_events = [&] {
    std::uint64_t n = 0;
    if (rt != nullptr) {
      for (std::uint32_t l = 0; l < lanes; ++l) {
        n += rt->shard_scheduler(l).executed_count();
      }
    }
    return n;
  };
  const std::uint64_t shard_ev0 = shard_events();
  // Threads actually running the traffic phase: sampled between windows
  // (workers alive) on sharded runs, after the phase on serial ones.
  std::uint64_t threads_seen = 0;
  if (rt != nullptr) {
    rt->add_periodic_action(t0 + sim::from_seconds(w.sim_s / 2),
                            sim::from_seconds(1e6), [&threads_seen] {
                              threads_seen = std::max<std::uint64_t>(
                                  threads_seen, proc_status("Threads"));
                            });
  }
  // Per-shard packet pools answer only on their own worker thread, so one
  // probe event per shard reads them at the end of the drain.
  std::vector<std::uint64_t> shard_outstanding(lanes, 0);
  std::vector<std::uint64_t> shard_allocated(lanes, 0);
  if (rt != nullptr) {
    for (std::uint32_t l = 0; l < lanes; ++l) {
      rt->shard_scheduler(l).schedule_at(
          t_end - 1, [&bb, &shard_outstanding, &shard_allocated, l] {
            const net::PacketPool& pool = bb.topo.packet_factory().pool();
            shard_outstanding[l] = pool.outstanding();
            shard_allocated[l] = pool.allocated();
          });
    }
  }
  std::size_t pending_max = 0;
  auto pending_now = [&] {
    std::size_t n = bb.topo.base_scheduler().pending();
    if (rt != nullptr) {
      for (std::uint32_t l = 0; l < lanes; ++l) {
        n += rt->shard_scheduler(l).pending();
      }
    }
    return n;
  };
  auto advance = [&](sim::SimTime until) {
    if (rt != nullptr) {
      rt->run_until(until);
    } else {
      bb.topo.run_until(until);
    }
  };
  // The flap: one core link (chosen by seed) fails at 30% of the traffic
  // phase and is restored at 60%; both endpoints re-flood through the IGP.
  net::LinkId flap_link = net::kInvalidLink;
  if (w.flap) {
    const std::size_t i = w.params.seed % bb.ps().size();
    const ip::NodeId a = bb.p(i).id();
    const ip::NodeId b = bb.p((i + 1) % bb.ps().size()).id();
    for (const net::Adjacency& adj : bb.topo.adjacencies(a)) {
      if (adj.neighbor == b) flap_link = adj.link;
    }
    if (flap_link == net::kInvalidLink) {
      r.problems.push_back("no core link to flap");
    }
  }
  struct Cut {
    sim::SimTime at;
    bool up;
  };
  std::vector<Cut> cuts;
  if (flap_link != net::kInvalidLink) {
    cuts.push_back({t0 + sim::from_seconds(0.3 * w.sim_s), false});
    cuts.push_back({t0 + sim::from_seconds(0.6 * w.sim_s), true});
  }
  const auto t_traffic = Clock::now();
  {
    SpanRecorder::Scope s(spans, "traffic");
    // Traced runs advance the sources' active phase in 200 fixed sim-time
    // slices, then the drain in one step; untraced runs advance straight
    // to each flap instant and the end.
    std::vector<sim::SimTime> edges;
    if (traced) {
      for (int k = 1; k <= 200; ++k) {
        edges.push_back(t0 + (t_stop - t0) * k / 200);
      }
    }
    edges.push_back(t_end);
    for (const Cut& c : cuts) edges.push_back(c.at);
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    std::size_t next_cut = 0;
    const auto exec0 = Clock::now();
    for (const sim::SimTime e : edges) {
      const auto ts = Clock::now();
      {
        SpanRecorder::Scope sl(spans, e <= t_stop ? "slice" : "drain");
        advance(e);
      }
      if (traced && e <= t_stop) {
        r.slice_ms.push_back(seconds_between(ts, Clock::now()) * 1e3);
        pending_max = std::max(pending_max, pending_now());
      }
      while (next_cut < cuts.size() && cuts[next_cut].at == e) {
        bb.topo.link(flap_link).set_up(cuts[next_cut].up);
        bb.igp.notify_link_change(flap_link);
        ++next_cut;
      }
    }
    if (in.prof && rt == nullptr) {
      in.prof->record_serial(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - exec0)
                  .count()),
          bb.topo.base_scheduler().executed_count() - ev0);
    }
  }
  r.traffic_s = seconds_between(t_traffic, Clock::now());
  if (rt == nullptr) threads_seen = proc_status("Threads");
  r.threads = threads_seen;

  // verify
  {
    SpanRecorder::Scope s(spans, "verify");
    for (const auto& fs : in.fsets) r.sent += fs->packets_sent();
    std::uint64_t leaks = 0, unknown = 0;
    for (const auto& sk : in.sinks) {
      r.delivered += sk->delivered();
      leaks += sk->leaks();
      unknown += sk->unknown_flows();
    }
    std::uint64_t policed = 0, no_route = 0, label_miss = 0, ttl = 0,
                  no_tunnel = 0, esp = 0;
    std::uint64_t fc_hits = 0, fc_misses = 0, fc_invalid = 0;
    for (std::size_t i = 0; i < bb.topo.node_count(); ++i) {
      const auto* rr = dynamic_cast<const vpn::Router*>(
          &bb.topo.node(static_cast<ip::NodeId>(i)));
      if (rr == nullptr) continue;
      const auto& c = rr->counters();
      policed += c.policed.value();
      no_route += c.no_route.value();
      label_miss += c.label_miss.value();
      ttl += c.ttl_expired.value();
      no_tunnel += c.no_tunnel.value();
      esp += c.esp_rejected.value();
      fc_hits += rr->flowcache_stats().hits;
      fc_misses += rr->flowcache_stats().misses;
      fc_invalid += rr->flowcache_stats().invalidated;
    }
    std::uint64_t queue_drops = 0, down_drops = 0, queued = 0;
    std::uint64_t band[3] = {0, 0, 0};
    for (std::size_t li = 0; li < bb.topo.link_count(); ++li) {
      const net::Link& link = bb.topo.link(static_cast<net::LinkId>(li));
      for (const ip::NodeId from : {link.end_a().node, link.end_b().node}) {
        const net::QueueDisc& q = link.queue_from(from);
        queue_drops += q.dropped().packets.value();
        queued += q.packet_count();
        down_drops += link.down_drops_from(from).packets.value();
        if (const auto* mb = dynamic_cast<const qos::MultiBandQueue*>(&q)) {
          for (unsigned b = 0; b < mb->band_count() && b < 3; ++b) {
            band[b] += mb->band_drops(b).packets.value();
          }
        }
      }
    }
    // Packets still held anywhere (queues, wires, shapers, pending events)
    // are exactly the pools' outstanding packets.
    std::uint64_t held = bb.topo.packet_factory().pool().outstanding();
    std::uint64_t allocated = bb.topo.packet_factory().pool().allocated();
    for (std::uint32_t l = 0; l < lanes && rt != nullptr; ++l) {
      held += shard_outstanding[l];
      allocated += shard_allocated[l];
    }
    const std::uint64_t router_drops =
        policed + no_route + label_miss + ttl + no_tunnel + esp;
    const std::uint64_t accounted =
        r.delivered + queue_drops + down_drops + router_drops + held;
    const std::uint64_t unaccounted =
        accounted > r.sent ? accounted - r.sent : r.sent - accounted;
    if (unaccounted != 0) {
      r.problems.push_back("conservation: sent " + std::to_string(r.sent) +
                           " != accounted " + std::to_string(accounted));
    }
    if (leaks != 0) {
      r.problems.push_back("isolation leaks: " + std::to_string(leaks));
    }
    if (unknown != 0) {
      r.problems.push_back("unknown-flow deliveries: " +
                           std::to_string(unknown));
    }

    // Every PE must hold, in its pod's VRF, a route for every site of the
    // pod — after convergence, the flap and the drain.
    std::vector<std::vector<std::size_t>> sites_of_vpn(plan.vpns.size());
    for (std::size_t i = 0; i < plan.sites.size(); ++i) {
      sites_of_vpn[plan.sites[i].vpn].push_back(i);
    }
    std::uint64_t expected_routes = 0, missing_routes = 0;
    Fnv vrf_counts;
    for (std::size_t pe = 0; pe < bb.pes().size(); ++pe) {
      const vpn::Router& router = *bb.pes()[pe];
      for (std::size_t v = 0; v < plan.vpns.size(); ++v) {
        const vpn::Vrf* vrf = router.vrf_by_vpn(in.vpns[v]);
        if (vrf == nullptr) continue;
        vrf_counts.u64(vrf->table().size());
        for (const std::size_t si : sites_of_vpn[v]) {
          ++expected_routes;
          if (vrf->table().find(plan.sites[si].prefix) == nullptr) {
            ++missing_routes;
          }
        }
      }
    }
    if (expected_routes == 0) r.problems.push_back("no VRF routes expected");
    if (missing_routes != 0) {
      r.problems.push_back("VRF routes missing: " +
                           std::to_string(missing_routes));
    }
    r.ops = r.sent + expected_routes;
    r.failed = unaccounted + leaks + unknown + missing_routes;

    qos::SlaProbe master("master");
    for (const auto& p : in.probes) master.merge_from(*p);
    Fnv d;
    d.u64(r.sent);
    d.u64(r.delivered);
    d.str(master.to_csv(w.sim_s));
    d.u64(bb.service.total_vrf_routes());
    d.u64(vrf_counts.h);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(d.h));
    r.digest = hex;

    if (traced) {
      auto dbl = [](auto v) { return static_cast<double>(v); };
      const double ev = dbl(bb.topo.base_scheduler().executed_count() - ev0 +
                            shard_events() - shard_ev0);
      const double sent = dbl(std::max<std::uint64_t>(r.sent, 1));
      const double lookups = dbl(fc_hits + fc_misses);
      std::size_t state_bytes = 0, flows = 0;
      for (const auto& fs : in.fsets) {
        state_bytes += fs->state_bytes();
        flows += fs->flow_count();
      }
      std::size_t fallback = 0;
      if (!in.sites.empty() && in.sites.front().ce->classifier() != nullptr) {
        fallback = in.sites.front().ce->classifier()->fallback_rule_count();
      }
      // Engine counters exist only on sharded runs; serial runs read 0.
      const bool sh = rt != nullptr;
      r.layer = {
          {"backbone.build_s", build_s, "s"},
          {"backbone.partition_s", partition_s, "s"},
          {"backbone.cut_links", dbl(cut_links), "count"},
          {"routing.converge_s", converge_s, "s"},
          {"routing.converge_sim_ms", converge_sim_ms, "ms"},
          {"routing.igp_lsa_msgs", igp_lsa, "count"},
          {"routing.spf_runs", spf_runs, "count"},
          {"routing.spf_full_runs", spf_full, "count"},
          {"routing.bgp_update_msgs", bgp_upd, "count"},
          {"routing.bgp_wire_bytes", bgp_bytes, "B"},
          {"routing.adj_rib_bytes", adj_rib_bytes, "B"},
          {"mpls.ldp_mapping_msgs", ldp_maps, "count"},
          {"mpls.lfib_entries", lfib_entries, "count"},
          {"traffic.arm_s", arm_s, "s"},
          {"traffic.state_bytes_per_flow",
           flows > 0 ? dbl(state_bytes) / dbl(flows) : 0.0, "B/flow"},
          {"sim.events", ev, "count"},
          {"sim.events_per_pkt", ev / sent, "ratio"},
          {"sim.pending_max", dbl(pending_max), "count"},
          {"vpn.flowcache_hit_ratio",
           lookups > 0 ? dbl(fc_hits) / lookups : 0.0, "ratio"},
          {"vpn.flowcache_lookups", lookups, "count"},
          {"vpn.flowcache_invalidated", dbl(fc_invalid), "count"},
          {"vpn.policed", dbl(policed), "count"},
          {"vpn.no_route", dbl(no_route), "count"},
          {"vpn.label_miss", dbl(label_miss), "count"},
          {"qos.band_drops.ef", dbl(band[0]), "count"},
          {"qos.band_drops.af", dbl(band[1]), "count"},
          {"qos.band_drops.be", dbl(band[2]), "count"},
          {"qos.classifier_fallback_rules", dbl(fallback), "count"},
          {"net.pool_allocated", dbl(allocated), "count"},
          {"net.queue_drops", dbl(queue_drops), "count"},
          {"net.down_drops", dbl(down_drops), "count"},
          {"net.handoffs_per_pkt", sh ? dbl(rt->handoffs()) / sent : 0.0,
           "ratio"},
          {"net.delivery_batches", sh ? dbl(rt->delivery_batches()) : 0.0,
           "count"},
          {"sim.windows", sh ? dbl(rt->windows()) : 0.0, "count"},
          {"sim.widened_windows", sh ? dbl(rt->widened_windows()) : 0.0,
           "count"},
      };
      const obs::SyncProfiler::Report rep = in.prof->report();
      double busy_min = 1.0, busy_max = 0.0, crit = 1.0;
      std::uint64_t max_crit = 0;
      for (const auto& lane : rep.lanes) {
        busy_min = std::min(busy_min, lane.busy_fraction);
        busy_max = std::max(busy_max, lane.busy_fraction);
        max_crit = std::max(max_crit, lane.critical_epochs);
      }
      if (!rep.serial && rep.epochs > 0) crit = dbl(max_crit) / dbl(rep.epochs);
      r.layer.push_back(
          {"net.drain_share", dbl(rep.drain_ns) * 1e-9 / r.traffic_s, "ratio"});
      r.layer.push_back({"sim.coord_wait_share",
                         dbl(rep.coord_wait_ns) * 1e-9 / r.traffic_s, "ratio"});
      r.layer.push_back({"sim.shard_busy_frac.min", busy_min, "ratio"});
      r.layer.push_back({"sim.shard_busy_frac.max", busy_max, "ratio"});
      r.layer.push_back({"sim.critical_share", crit, "ratio"});
    }
  }
  r.wall_s = seconds_between(t_plan, Clock::now());
  r.cpu_s = cpu_seconds() - cpu0;

  // Layer replay: the workload's own inputs through each layer's public
  // lookup, outside the timed pipeline.
  if (traced) {
    SpanRecorder::Scope s(spans, "replay");
    struct FlowKey {
      const ip::RouteTable* vrf_table;
      ip::Ipv4Address dst;
      const mpls::Lfib* lfib;
      std::uint32_t label;
      qos::VisibleFields fields;
    };
    std::vector<FlowKey> keys;
    keys.reserve(plan.flows.size());
    for (const backbone::PlanFlow& f : plan.flows) {
      FlowKey k{};
      const vpn::Router& pe = *bb.pes()[plan.sites[f.from].pe];
      const vpn::Vrf* vrf = pe.vrf_by_vpn(in.vpns[plan.sites[f.from].vpn]);
      k.dst = ip::Ipv4Address(plan.sites[f.to].prefix.address().value() + 1);
      k.vrf_table = vrf != nullptr ? &vrf->table() : nullptr;
      const ip::RouteEntry* route =
          k.vrf_table != nullptr ? k.vrf_table->lookup(k.dst) : nullptr;
      if (route != nullptr && route->vpn_label != ip::kNoLabel) {
        if (const mpls::LsrState* lsr = bb.domain.find(route->egress_pe)) {
          k.lfib = &lsr->lfib;
          k.label = route->vpn_label;
        }
      }
      k.fields.src =
          ip::Ipv4Address(plan.sites[f.from].prefix.address().value() + 1);
      k.fields.dst = k.dst;
      k.fields.protocol = 17;
      k.fields.src_port = 10000;
      k.fields.dst_port = f.port;
      keys.push_back(k);
    }
    std::uint64_t sink = 0;
    std::vector<const FlowKey*> fib_keys, lfib_keys;
    for (const FlowKey& k : keys) {
      if (k.vrf_table != nullptr) fib_keys.push_back(&k);
      if (k.lfib != nullptr) lfib_keys.push_back(&k);
    }
    const double fib_ns = ns_per_call(fib_keys.size(), [&](std::size_t i) {
      const FlowKey& k = *fib_keys[i];
      const ip::RouteEntry* e = k.vrf_table->lookup(k.dst);
      sink += e != nullptr ? e->metric + 1 : 0;
    });
    const double lfib_ns = ns_per_call(lfib_keys.size(), [&](std::size_t i) {
      const FlowKey& k = *lfib_keys[i];
      const mpls::LfibEntry* e = k.lfib->lookup(k.label);
      sink += e != nullptr ? e->out_label + 1 : 0;
    });
    const std::unique_ptr<qos::CbqClassifier> cls = make_edge_classifier();
    const double cls_ns = ns_per_call(keys.size(), [&](std::size_t i) {
      sink += static_cast<std::uint64_t>(cls->decide(keys[i].fields).rule + 2);
    });
    if (sink == 0) r.problems.push_back("layer replay resolved nothing");
    if (lfib_keys.empty()) r.problems.push_back("no flow resolved a VPN label");
    r.layer.push_back({"vpn.fib_lookup_ns", fib_ns, "ns"});
    r.layer.push_back({"mpls.lfib_lookup_ns", lfib_ns, "ns"});
    r.layer.push_back({"qos.classify_ns", cls_ns, "ns"});
  }

  // teardown
  const auto t_down = Clock::now();
  {
    SpanRecorder::Scope s(spans, "teardown");
    inst.reset();
  }
  r.teardown_s = seconds_between(t_down, Clock::now());
  return r;
}

// --- output ----------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
      continue;
    }
    o.push_back(c);
  }
  return o;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver "
               "--workload edge_qos|isp_sharded|isp_boot --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoll(v, &end, 10);
      if (*end != '\0' || seed < 0) return usage();
    } else if (k == "--seconds") {
      seconds = std::strtod(v, &end);
      if (*end != '\0' || !(seconds > 0)) return usage();
    } else if (k == "--trace") {
      trace = std::atoi(v);
    } else if (k == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  const Workload w = make_workload(workload, static_cast<std::uint64_t>(seed));
  if (w.name == nullptr) return usage();

  const perfbench::AbiFacts mine = perfbench::local_abi();
  const perfbench::AbiFacts lib = perfbench::library_abi();
  if (mine.packet_pool != lib.packet_pool ||
      mine.packet_factory != lib.packet_factory ||
      mine.topology != lib.topology || mine.ndebug != lib.ndebug) {
    std::fprintf(stderr,
                 "perfbench: driver and simulator libraries were compiled with "
                 "different definitions (PacketPool %zu vs %zu bytes, NDEBUG "
                 "%d vs %d); rebuild both from one configuration\n",
                 mine.packet_pool, lib.packet_pool, mine.ndebug, lib.ndebug);
    return 3;
  }

  const bool traced_mode = trace == 1;
  SpanRecorder spans(traced_mode);
  SpanRecorder no_spans(false);
  std::vector<RepResult> plain, traced;
  std::vector<std::string> problems;
  double peak_rss_mb = 0;
  const auto start = Clock::now();
  // Untraced runs: repetitions until the budget is spent. Traced runs
  // first run one discarded warm-up repetition, then alternate untraced
  // and traced ones, so the overhead ratio compares neighbours under the
  // same host conditions.
  if (traced_mode) {
    problems = run_rep(w, false, no_spans).problems;
  }
  for (int rep = 0;; ++rep) {
    const bool t = traced_mode && rep % 2 == 1;
    RepResult rr = run_rep(w, t, t ? spans : no_spans);
    std::fprintf(stderr,
                 "rep %d%s: setup %.4f s, traffic %.4f s, %.0f pkts/s, "
                 "wall %.4f s, cpu %.4f s, teardown %.4f s\n",
                 rep, t ? " (traced)" : "", rr.setup_s, rr.traffic_s,
                 static_cast<double>(rr.delivered) / rr.traffic_s, rr.wall_s,
                 rr.cpu_s, rr.teardown_s);
    (t ? traced : plain).push_back(std::move(rr));
    // Peak memory of one pipeline in a fresh process: the high-water mark
    // after the first repetition, before later ones can add fragmentation
    // (how many repetitions fit the budget depends on the host's speed).
    if (rep == 0) {
      peak_rss_mb = static_cast<double>(proc_status("VmHWM")) / 1024.0;
    }
    // Stop once another repetition like this one would end further past
    // the budget than stopping now falls short of it.
    const int need = traced_mode ? 2 : 1;
    const double elapsed = seconds_between(start, Clock::now());
    const double last = (t ? traced : plain).back().wall_s;
    if (rep + 1 >= need && elapsed + last / 2 > seconds) break;
  }
  // Correctness over every repetition of the run.
  std::uint64_t attempted = 0, failed = 0, threads_used = 0;
  const std::string digest = plain.front().digest;
  for (const auto* set : {&plain, &traced}) {
    for (const RepResult& rr : *set) {
      attempted += rr.ops;
      failed += rr.failed;
      threads_used = std::max(threads_used, rr.threads);
      for (const std::string& p : rr.problems) problems.push_back(p);
      if (rr.digest != digest) {
        problems.push_back("output digest differs between repetitions: " +
                           rr.digest + " vs " + digest);
      }
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (threads_used > hw && hw != 0) {
    problems.push_back("used " + std::to_string(threads_used) +
                       " threads on a host with " + std::to_string(hw));
  }

  auto med = [](const std::vector<RepResult>& v, double RepResult::*f) {
    std::vector<double> xs;
    for (const RepResult& rr : v) xs.push_back(rr.*f);
    return median(xs);
  };
  std::vector<double> pps;
  for (const RepResult& rr : plain) {
    pps.push_back(static_cast<double>(rr.delivered) / rr.traffic_s);
  }
  std::vector<Metric> metrics;
  if (!traced_mode) {
    metrics = {
        {"pkts_per_s", median(pps), "packets/s"},
        {"setup_s", med(plain, &RepResult::setup_s), "s"},
        {"wall_s", med(plain, &RepResult::wall_s), "s"},
        {"cpu_s", med(plain, &RepResult::cpu_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
  } else {
    std::map<std::string, std::vector<double>> by_name;
    for (const RepResult& rr : traced) {
      for (const Metric& m : rr.layer) by_name[m.name].push_back(m.value);
    }
    for (const Metric& m : traced.front().layer) {
      metrics.push_back({m.name, median(by_name[m.name]), m.unit});
    }
    std::vector<double> slices;
    for (const RepResult& rr : traced) {
      slices.insert(slices.end(), rr.slice_ms.begin(), rr.slice_ms.end());
    }
    // Highest of these percentiles that still has >= 10 samples above it.
    double tail_pct = 50.0;
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
      if (static_cast<double>(slices.size()) * (100.0 - p) / 100.0 >= 10.0) {
        tail_pct = p;
        break;
      }
    }
    metrics.push_back(
        {"sim.slice_wall_ms.p50", percentile(slices, 50.0), "ms"});
    metrics.push_back(
        {"sim.slice_wall_ms.tail", percentile(slices, tail_pct), "ms"});
    metrics.push_back({"sim.slice_wall_ms.tail_pct", tail_pct, "%"});
    metrics.push_back(
        {"sim.slice_samples", static_cast<double>(slices.size()), "count"});
    metrics.push_back(
        {"sim.threads", static_cast<double>(threads_used), "count"});
    const std::map<std::string, double> self = spans.self_seconds();
    const double traced_reps = static_cast<double>(traced.size());
    for (const char* n : {"plan", "build", "converge", "partition", "arm",
                          "traffic", "verify", "teardown"}) {
      const auto it = self.find(n);
      const double self_s = it != self.end() ? it->second / traced_reps : 0.0;
      metrics.push_back({std::string("span.") + n + ".self_s", self_s, "s"});
    }
    metrics.push_back({"obs.trace_overhead",
                       med(traced, &RepResult::wall_s) /
                           med(plain, &RepResult::wall_s),
                       "ratio"});
    if (!trace_out.empty()) {
      std::ofstream f(trace_out);
      spans.write_chrome(f);
      if (!f) problems.push_back("cannot write span trace to " + trace_out);
    }
  }

  const std::size_t reps = plain.size() + traced.size();
  for (const Metric& m : metrics) {
    std::printf("%-12s %-32s %16.6g %s\n", w.name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%-12s %-32s %16.6g %s   (%llu failed of %llu ops, %zu reps)\n",
              w.name, "fail_frac",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0,
              "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted), reps);
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }

  std::ostringstream js;
  js << "{\"workload\":\"" << w.name << "\",\"seed\":" << seed
     << ",\"trace\":" << trace << ",\"reps\":" << reps
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"digest\":\"" << digest << "\",\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    js << (i ? "," : "") << '"' << json_escape(problems[i]) << '"';
  }
  js << "],\"build\":{\"type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"flags\":\"" << json_escape(PERFBENCH_CXX_FLAGS)
     << "\",\"compiler\":\"" << PERFBENCH_COMPILER
     << "\",\"ndebug\":" << (lib.ndebug ? "true" : "false")
     << "},\"threads_used\":" << threads_used << ",\"hw_threads\":" << hw
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? "," : "") << '"' << metrics[i].name << "\":{\"value\":"
       << num(metrics[i].value) << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return problems.empty() ? 0 : 1;
}
