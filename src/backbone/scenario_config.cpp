#include "backbone/scenario_config.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "backbone/partition.hpp"
#include "net/shard_runtime.hpp"
#include "obs/flow_stats.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/spans.hpp"
#include "obs/sync_profiler.hpp"
#include "obs/topology_metrics.hpp"
#include "qos/dscp.hpp"
#include "qos/queues.hpp"
#include "qos/sla.hpp"
#include "sim/rng.hpp"
#include "traffic/dispatcher.hpp"
#include "traffic/flowset.hpp"
#include "traffic/tcp_lite.hpp"

namespace mvpn::backbone {
namespace {

/// "key=value" tokens of one line, first token is the directive.
struct Line {
  std::string directive;
  std::vector<std::string> positional;
  std::map<std::string, std::string> kv;
};

Line tokenize(const std::string& raw) {
  Line line;
  std::istringstream in(raw);
  std::string token;
  while (in >> token) {
    if (token[0] == '#') break;
    const auto eq = token.find('=');
    if (line.directive.empty()) {
      line.directive = token;
    } else if (eq == std::string::npos) {
      line.positional.push_back(token);
    } else {
      line.kv[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return line;
}

/// The keys each directive reads. Anything else on the line is an error
/// naming the key, so a typo such as `rat=` cannot silently fall back to a
/// default. (`topology generated` keys are checked by apply_topogen_param.)
const std::map<std::string, std::vector<std::string>>& directive_keys() {
  static const std::map<std::string, std::vector<std::string>> keys = {
      {"backbone",
       {"p", "pe", "core_bw", "edge_bw", "seed", "bgp", "rr", "core_queue"}},
      {"vpn", {}},
      {"extranet", {}},
      {"site", {"pe", "prefix"}},
      {"classify", {"site", "dstport", "class"}},
      {"police", {"site", "class", "cir", "cbs", "ebs"}},
      {"shape", {"site", "class", "rate", "burst"}},
      {"flow",
       {"vpn", "from", "to", "rate", "on", "off", "class", "port", "size",
        "start", "premark"}},
      {"run", {"for", "shards", "flowcache"}},
  };
  return keys;
}

/// Parse a finite, strictly positive double.
bool to_positive(const std::string& s, double& out) {
  return to_double(s, out) && std::isfinite(out) && out > 0;
}

/// Parse a duration in seconds within [0, kMaxScenarioSeconds].
bool to_duration(const std::string& s, double& out) {
  return to_double(s, out) && out >= 0 && out <= kMaxScenarioSeconds;
}

std::optional<qos::Phb> phb_by_name(const std::string& name) {
  for (int i = 0; i < static_cast<int>(qos::kPhbCount); ++i) {
    const auto phb = static_cast<qos::Phb>(i);
    if (qos::to_string(phb) == name) return phb;
  }
  return std::nullopt;
}

/// Parse "16384-16484" or "16400".
bool parse_port_range(const std::string& s, std::uint16_t& lo,
                      std::uint16_t& hi) {
  const auto dash = s.find('-');
  std::size_t a = 0, b = 0;
  if (dash == std::string::npos) {
    if (!to_size(s, a) || a > 65535) return false;
    lo = hi = static_cast<std::uint16_t>(a);
    return true;
  }
  if (!to_size(s.substr(0, dash), a) || !to_size(s.substr(dash + 1), b) ||
      a > 65535 || b > 65535 || a > b) {
    return false;
  }
  lo = static_cast<std::uint16_t>(a);
  hi = static_cast<std::uint16_t>(b);
  return true;
}

/// RED profile for "red" / "red:min,max,maxp" core specs; nullopt for any
/// other discipline. RED queues are not built through the QueueDiscFactory
/// (it carries no arguments): they need a clock and a per-node RNG, so the
/// scenario swaps them onto the core links after construction.
std::optional<qos::RedParams> red_params_for(const std::string& spec,
                                             double core_bw_bps) {
  if (spec != "red" && spec.rfind("red:", 0) != 0) return std::nullopt;
  qos::RedParams rp;
  rp.bandwidth_bps = core_bw_bps;
  const auto colon = spec.find(':');
  if (colon != std::string::npos) {
    std::istringstream ws(spec.substr(colon + 1));
    std::string w;
    std::vector<double> v;
    double d = 0;
    while (std::getline(ws, w, ',')) {
      if (to_double(w, d)) v.push_back(d);
    }
    if (!v.empty()) rp.min_th = v[0];
    if (v.size() > 1) rp.max_th = v[1];
    if (v.size() > 2) rp.max_p = v[2];
  }
  return rp;
}

/// Build a core queue factory from "fifo", "prio", "wfq:8,3,1", "drr:8,3,1".
/// ("red" specs return the default factory; see red_params_for.)
net::QueueDiscFactory queue_factory_for(const std::string& spec) {
  if (spec == "fifo" || spec.empty()) return {};
  if (spec == "prio") {
    return [] {
      return std::make_unique<qos::PriorityQueueDisc>(
          3, 100, qos::ef_af_be_selector());
    };
  }
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  std::vector<double> weights;
  if (colon != std::string::npos) {
    std::istringstream ws(spec.substr(colon + 1));
    std::string w;
    while (std::getline(ws, w, ',')) {
      double v;
      if (to_double(w, v)) weights.push_back(v);
    }
  }
  if (weights.empty()) weights = {8, 3, 1};
  if (kind == "wfq") {
    return [weights] {
      return std::make_unique<qos::WfqQueueDisc>(weights, 100,
                                                 qos::ef_af_be_selector());
    };
  }
  if (kind == "drr") {
    std::vector<std::uint32_t> iw;
    for (double w : weights) iw.push_back(static_cast<std::uint32_t>(w));
    return [iw] {
      return std::make_unique<qos::DrrQueueDisc>(iw, 100,
                                                 qos::ef_af_be_selector());
    };
  }
  return {};
}

/// Expose the SLA probe's per-class figures as gauges under
/// "sla/<class>/...". Classes appear in the probe lazily (first packet of
/// that class), so each gauge re-checks membership at snapshot time.
void register_sla_metrics(obs::MetricsRegistry& registry,
                          const qos::SlaProbe& probe) {
  using Report = qos::SlaProbe::ClassReport;
  for (int c = 0; c < static_cast<int>(qos::kPhbCount); ++c) {
    const auto phb = static_cast<qos::Phb>(c);
    const std::string base = std::string("sla/") + qos::to_string(phb);
    auto add = [&](const char* leaf,
                   std::function<double(const Report&)> fn) {
      registry.add_gauge(
          base + "/" + leaf, [&probe, phb, fn = std::move(fn)] {
            return probe.has_class(phb) ? fn(probe.report(phb)) : 0.0;
          });
    };
    add("sent_packets",
        [](const Report& r) { return static_cast<double>(r.sent_packets); });
    add("delivered_packets", [](const Report& r) {
      return static_cast<double>(r.delivered_packets);
    });
    add("delivered_bytes", [](const Report& r) {
      return static_cast<double>(r.delivered_bytes);
    });
    add("loss_fraction", [](const Report& r) { return r.loss_fraction(); });
    add("latency_ms_mean",
        [](const Report& r) { return r.latency_s.mean() * 1e3; });
    add("latency_ms_p50",
        [](const Report& r) { return r.latency_s.percentile(50.0) * 1e3; });
    add("latency_ms_p99",
        [](const Report& r) { return r.latency_s.percentile(99.0) * 1e3; });
    registry.add_gauge(base + "/jitter_ms_mean", [&probe, phb] {
      return probe.has_class(phb) ? probe.jitter_stats(phb).mean() * 1e3
                                  : 0.0;
    });
    registry.add_gauge(base + "/jitter_rfc3550_ms", [&probe, phb] {
      return probe.has_class(phb) ? probe.rfc3550_jitter_s(phb) * 1e3 : 0.0;
    });
  }
}

/// Delivered packets carry inner class-selector bits (labels popped, ESP
/// stripped), so decomposition classes read as cs0..cs7.
obs::ClassNamer cs_class_namer() {
  return [](std::uint8_t c) { return "cs" + std::to_string(c); };
}

}  // namespace

std::optional<Scenario> Scenario::parse(const std::string& text,
                                        ScenarioError* error) {
  Scenario sc;
  auto fail = [&](std::size_t line_no, std::string msg) {
    if (error != nullptr) *error = ScenarioError{line_no, std::move(msg)};
    return std::optional<Scenario>{};
  };

  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  bool have_backbone = false;
  while (std::getline(in, raw)) {
    ++line_no;
    const Line line = tokenize(raw);
    if (line.directive.empty()) continue;
    const auto known = directive_keys().find(line.directive);
    if (known != directive_keys().end()) {
      for (const auto& [key, value] : line.kv) {
        if (std::find(known->second.begin(), known->second.end(), key) ==
            known->second.end()) {
          return fail(line_no, "unknown key " + key + "= on " +
                                   line.directive + " line");
        }
      }
    }
    auto kv = [&](const char* key) -> std::optional<std::string> {
      auto it = line.kv.find(key);
      if (it == line.kv.end()) return std::nullopt;
      return it->second;
    };

    if (line.directive == "topology") {
      if (line.positional.size() != 1 || line.positional[0] != "generated") {
        return fail(line_no, "topology needs the form: topology generated ...");
      }
      TopogenParams params;
      for (const auto& [key, value] : line.kv) {
        if (!apply_topogen_param(params, key, value)) {
          return fail(line_no, "bad topogen " + key + "=" + value);
        }
      }
      sc.topogen_ = params;
    } else if (line.directive == "backbone") {
      have_backbone = true;
      if (auto v = kv("p")) {
        if (!to_size(*v, sc.backbone_.p_count)) {
          return fail(line_no, "bad p=");
        }
      }
      if (auto v = kv("pe")) {
        if (!to_size(*v, sc.backbone_.pe_count)) {
          return fail(line_no, "bad pe=");
        }
      }
      if (auto v = kv("core_bw")) {
        if (!to_double(*v, sc.backbone_.core_bw_bps)) {
          return fail(line_no, "bad core_bw=");
        }
      }
      if (auto v = kv("edge_bw")) {
        if (!to_double(*v, sc.backbone_.edge_bw_bps)) {
          return fail(line_no, "bad edge_bw=");
        }
      }
      if (auto v = kv("seed")) {
        std::size_t s;
        if (!to_size(*v, s)) return fail(line_no, "bad seed=");
        sc.backbone_.seed = s;
      }
      if (auto v = kv("bgp")) {
        if (*v == "mesh") {
          sc.backbone_.bgp_mode = routing::Bgp::Mode::kFullMesh;
        } else if (*v == "rr") {
          sc.backbone_.bgp_mode = routing::Bgp::Mode::kRouteReflector;
          sc.backbone_.route_reflector_count = 1;
        } else {
          return fail(line_no, "bgp= must be mesh or rr");
        }
      }
      if (auto v = kv("rr")) {
        if (!to_size(*v, sc.backbone_.route_reflector_count)) {
          return fail(line_no, "bad rr=");
        }
      }
      if (auto v = kv("core_queue")) sc.core_queue_spec_ = *v;
    } else if (line.directive == "vpn") {
      if (line.positional.size() != 1) {
        return fail(line_no, "vpn needs exactly one name");
      }
      sc.vpns_.push_back(line.positional[0]);
    } else if (line.directive == "extranet") {
      if (line.positional.size() != 2) {
        return fail(line_no, "extranet needs <importer> <exported>");
      }
      sc.extranets_.emplace_back(line.positional[0], line.positional[1]);
    } else if (line.directive == "site") {
      SiteDecl site;
      if (line.positional.size() != 1) {
        return fail(line_no, "site needs a vpn name");
      }
      site.vpn = line.positional[0];
      if (auto v = kv("pe")) {
        if (!to_size(*v, site.pe)) return fail(line_no, "bad pe=");
      }
      auto v = kv("prefix");
      if (!v) return fail(line_no, "site needs prefix=");
      auto prefix = ip::Prefix::parse(*v);
      if (!prefix) return fail(line_no, "bad prefix= " + *v);
      site.prefix = *prefix;
      sc.sites_.push_back(site);
    } else if (line.directive == "classify") {
      ClassifyDecl c;
      if (auto v = kv("site")) {
        if (!to_size(*v, c.site)) return fail(line_no, "bad site=");
      } else {
        return fail(line_no, "classify needs site=");
      }
      if (auto v = kv("dstport")) {
        if (!parse_port_range(*v, c.port_lo, c.port_hi)) {
          return fail(line_no, "bad dstport=");
        }
      }
      if (auto v = kv("class")) {
        auto phb = phb_by_name(*v);
        if (!phb) return fail(line_no, "unknown class= " + *v);
        c.phb = *phb;
      }
      sc.classifies_.push_back(c);
    } else if (line.directive == "police" || line.directive == "shape") {
      std::size_t site = 0;
      qos::Phb phb = qos::Phb::kBe;
      if (auto v = kv("site")) {
        if (!to_size(*v, site)) return fail(line_no, "bad site=");
      } else {
        return fail(line_no, line.directive + " needs site=");
      }
      if (auto v = kv("class")) {
        auto p = phb_by_name(*v);
        if (!p) return fail(line_no, "unknown class= " + *v);
        phb = *p;
      }
      if (line.directive == "police") {
        PoliceDecl p;
        p.site = site;
        p.phb = phb;
        const auto cir = kv("cir");
        const auto cbs = kv("cbs");
        const auto ebs = kv("ebs");
        if (!cir || !cbs || !ebs) {
          return fail(line_no, "police needs cir=, cbs=, ebs= > 0");
        }
        if (!to_positive(*cir, p.cir)) return fail(line_no, "bad cir=");
        if (!to_positive(*cbs, p.cbs)) return fail(line_no, "bad cbs=");
        if (!to_positive(*ebs, p.ebs)) return fail(line_no, "bad ebs=");
        sc.polices_.push_back(p);
      } else {
        ShapeDecl s;
        s.site = site;
        s.phb = phb;
        const auto rate = kv("rate");
        const auto burst = kv("burst");
        if (!rate || !burst) {
          return fail(line_no, "shape needs rate=, burst= > 0");
        }
        if (!to_positive(*rate, s.rate)) return fail(line_no, "bad rate=");
        if (!to_positive(*burst, s.burst)) return fail(line_no, "bad burst=");
        sc.shapes_.push_back(s);
      }
    } else if (line.directive == "flow") {
      FlowDecl f;
      if (line.positional.size() != 1) {
        return fail(line_no, "flow needs a kind (cbr|poisson|onoff)");
      }
      f.kind = line.positional[0];
      if (f.kind != "cbr" && f.kind != "poisson" && f.kind != "onoff" &&
          f.kind != "tcp") {
        return fail(line_no, "unknown flow kind " + f.kind);
      }
      auto v = kv("vpn");
      if (!v) return fail(line_no, "flow needs vpn=");
      f.vpn = *v;
      if (auto x = kv("from")) {
        if (!to_size(*x, f.from)) return fail(line_no, "bad from=");
      }
      if (auto x = kv("to")) {
        if (!to_size(*x, f.to)) return fail(line_no, "bad to=");
      }
      if (auto x = kv("rate")) {
        if (!to_positive(*x, f.rate) || f.rate < kMinFlowRateBps) {
          return fail(line_no, "bad rate= (want >= 1 b/s)");
        }
      }
      if (auto x = kv("on")) {
        if (!to_duration(*x, f.on_s) || f.on_s <= 0) {
          return fail(line_no, "bad on=");
        }
      }
      if (auto x = kv("off")) {
        if (!to_duration(*x, f.off_s) || f.off_s <= 0) {
          return fail(line_no, "bad off=");
        }
      }
      if (auto x = kv("class")) {
        auto phb = phb_by_name(*x);
        if (!phb) return fail(line_no, "unknown class= " + *x);
        f.phb = *phb;
      }
      if (auto x = kv("port")) {
        std::size_t p;
        if (!to_size(*x, p) || p > 65535) return fail(line_no, "bad port=");
        f.port = static_cast<std::uint16_t>(p);
      }
      if (auto x = kv("size")) {
        if (!to_size(*x, f.size) || f.size > kMaxPayloadBytes) {
          return fail(line_no, "bad size= (want 0.." +
                                   std::to_string(kMaxPayloadBytes) + ")");
        }
      }
      if (auto x = kv("start")) {
        if (!to_duration(*x, f.start_s)) {
          return fail(line_no, "bad start=");
        }
      }
      if (line.kv.count("premark") != 0) f.premark = true;
      sc.flows_.push_back(f);
    } else if (line.directive == "run") {
      if (auto v = kv("for")) {
        if (!to_duration(*v, sc.run_for_s_) || sc.run_for_s_ <= 0) {
          return fail(line_no, "bad for=");
        }
      }
      if (auto v = kv("shards")) {
        std::size_t n = 0;
        if (!to_size(*v, n) || n == 0 || n > 64) {
          return fail(line_no, "bad shards= (want 1..64)");
        }
        sc.shards_ = static_cast<std::uint32_t>(n);
      }
      if (auto v = kv("flowcache")) {
        if (*v == "on") {
          sc.flowcache_ = true;
        } else if (*v == "off") {
          sc.flowcache_ = false;
        } else {
          return fail(line_no, "bad flowcache= (want on|off)");
        }
      }
    } else {
      return fail(line_no, "unknown directive " + line.directive);
    }
  }
  // A generated topology expands here, before cross-reference validation:
  // the plan's backbone/vpn/site/flow lists take the exact shape of the
  // hand-written declarations, so everything downstream (validation,
  // build, QoS, sharding, observability) is shared with .scn scenarios.
  if (sc.topogen_) {
    if (have_backbone) {
      return fail(0, "topology generated replaces the backbone line");
    }
    if (!sc.vpns_.empty() || !sc.sites_.empty() || !sc.flows_.empty()) {
      return fail(0,
                  "topology generated cannot be mixed with vpn/site/flow "
                  "declarations");
    }
    GeneratedPlan plan;
    try {
      plan = generate_plan(*sc.topogen_);
    } catch (const std::exception& e) {
      return fail(0, e.what());
    }
    sc.backbone_ = plan.backbone;
    sc.vpns_ = plan.vpns;
    sc.sites_.reserve(plan.sites.size());
    for (const PlanSite& s : plan.sites) {
      SiteDecl d;
      d.vpn = plan.vpns[s.vpn];
      d.pe = s.pe;
      d.prefix = s.prefix;
      sc.sites_.push_back(d);
    }
    sc.flows_.reserve(plan.flows.size());
    for (const PlanFlow& f : plan.flows) {
      FlowDecl d;
      d.kind = f.kind;
      d.vpn = plan.vpns[plan.sites[f.from].vpn];
      d.from = f.from;
      d.to = f.to;
      d.rate = f.rate_bps;
      d.phb = f.phb;
      // Generated sites carry no CPE classifiers; non-BE flows mark DSCP
      // at the source so the core's PHB scheduling still differentiates.
      d.premark = f.phb != qos::Phb::kBe;
      d.port = f.port;
      d.size = f.size;
      d.start_s = f.start_s;
      sc.flows_.push_back(d);
    }
    have_backbone = true;
  }
  if (!have_backbone) return fail(0, "scenario needs a backbone line");
  if (sc.sites_.empty()) return fail(0, "scenario needs at least one site");

  // Cross-reference validation.
  auto vpn_known = [&](const std::string& name) {
    for (const auto& v : sc.vpns_) {
      if (v == name) return true;
    }
    return false;
  };
  for (const auto& s : sc.sites_) {
    if (!vpn_known(s.vpn)) return fail(0, "site references unknown vpn " + s.vpn);
    if (s.pe >= sc.backbone_.pe_count) return fail(0, "site pe out of range");
  }
  for (const auto& f : sc.flows_) {
    if (!vpn_known(f.vpn)) return fail(0, "flow references unknown vpn " + f.vpn);
    if (f.from >= sc.sites_.size() || f.to >= sc.sites_.size()) {
      return fail(0, "flow site index out of range");
    }
  }
  for (const auto& [a, b] : sc.extranets_) {
    if (!vpn_known(a) || !vpn_known(b)) {
      return fail(0, "extranet references unknown vpn");
    }
  }
  for (const auto& c : sc.classifies_) {
    if (c.site >= sc.sites_.size()) return fail(0, "classify site out of range");
  }
  return sc;
}

bool Scenario::run(std::ostream& out) const {
  BackboneConfig cfg = backbone_;
  cfg.core_queue = queue_factory_for(core_queue_spec_);
  MplsBackbone bb(cfg);
  net::Topology& topo = bb.topo;

  // "red" core spec: swap RED onto the core directions while the links are
  // still idle. The clock reads through the topology's ambient scheduler
  // accessor (a sharded run answers with the shard clock of whichever
  // worker services the queue), and each direction's RNG is seeded from
  // (topology seed, transmitting node, link) so drop decisions never
  // depend on draw order across queues.
  if (auto rp = red_params_for(core_queue_spec_, cfg.core_bw_bps)) {
    std::vector<bool> core_node(topo.node_count(), false);
    for (const auto* p : bb.ps()) core_node[p->id()] = true;
    for (const auto* pe : bb.pes()) core_node[pe->id()] = true;
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
      net::Link& link = topo.link(static_cast<net::LinkId>(l));
      if (!core_node[link.end_a().node] || !core_node[link.end_b().node]) {
        continue;
      }
      for (const ip::NodeId from : {link.end_a().node, link.end_b().node}) {
        link.set_queue_from(
            from,
            std::make_unique<qos::RedQueueDisc>(
                *rp, [&topo] { return topo.scheduler().now(); },
                sim::Rng::stream(
                    topo.seed(),
                    0x52ED0000ULL + (std::uint64_t{from} << 20) + l)));
      }
    }
  }

  // Arm the flight recorder before convergence so control-plane events
  // (LDP mappings, LSP signaling) land in the trace alongside the data
  // plane.
  if (obs_.enabled()) {
    if (obs_.ring_capacity != 0) {
      bb.topo.recorder().set_capacity(obs_.ring_capacity);
    }
    bb.topo.recorder().enable(obs_.trace_mask);
  }

  std::map<std::string, vpn::VpnId> vpn_ids;
  for (const auto& name : vpns_) {
    vpn_ids[name] = bb.service.create_vpn(name);
  }
  for (const auto& [importer, exported] : extranets_) {
    bb.service.add_extranet_import(vpn_ids.at(importer),
                                   vpn_ids.at(exported));
  }
  std::vector<MplsBackbone::Site> built;
  for (const auto& s : sites_) {
    built.push_back(bb.add_site(vpn_ids.at(s.vpn), s.pe, s.prefix));
  }

  // flowcache=off: force every router (P, PE, CE) onto the slow path so
  // A/B runs can verify the fastpath changes nothing but speed.
  if (!flowcache_) {
    for (std::size_t i = 0; i < topo.node_count(); ++i) {
      if (auto* r = dynamic_cast<vpn::Router*>(
              &topo.node(static_cast<ip::NodeId>(i)))) {
        r->set_flowcache_enabled(false);
      }
    }
  }

  bb.start_and_converge();

  for (const auto& c : classifies_) {
    vpn::Router& ce = *built[c.site].ce;
    if (ce.classifier() == nullptr) {
      ce.set_classifier(std::make_unique<qos::CbqClassifier>());
    }
    qos::MatchRule rule;
    rule.dst_port = qos::PortRange{c.port_lo, c.port_hi};
    rule.mark = c.phb;
    ce.classifier()->add_rule(rule);
  }
  for (const auto& p : polices_) {
    built[p.site].ce->add_policer(p.phb, p.cir, p.cbs, p.ebs);
  }
  for (const auto& s : shapes_) {
    built[s.site].ce->add_shaper(s.phb, s.rate, s.burst);
  }

  // TCP flows need a dispatcher on each endpoint; the measurement sink
  // handles everything the dispatchers do not claim. They also pin the run
  // to the serial engine: TCP-lite shares congestion state across its two
  // endpoint CEs, which may land on different shards.
  const bool any_tcp =
      std::any_of(flows_.begin(), flows_.end(),
                  [](const FlowDecl& f) { return f.kind == "tcp"; });

  qos::SlaProbe probe("scenario");
  traffic::MeasurementSink sink(probe, topo.scheduler());

  // Per-hop delay decomposition: links/routers stamp DelayAnatomy always;
  // the collector aggregates only when one of the latency outputs is on.
  // The tap reads through the ambient accessor so a sharded run records
  // into the delivering shard's collector (merged into `latency` between
  // windows), and a serial run into `latency` directly.
  obs::LatencyCollector latency;
  if (obs_.latency_enabled()) {
    topo.set_latency_collector(&latency);
    for (const auto& site : built) {
      site.ce->add_delivery_tap([&topo](const net::Packet& p, vpn::VpnId) {
        if (obs::LatencyCollector* lc = topo.latency_collector()) {
          lc->record_delivery(p.trace_class(), p.delay.queue, p.delay.tx,
                              p.delay.prop, p.delay.proc);
        }
      });
    }
  }

  // Parallel engine: partition the converged topology and bring up the
  // shard runtime. Everything before this point ran serially; everything
  // after it that touches the topology from the coordinator thread still
  // resolves to the serial objects (sim::current_shard() is kNoShard).
  std::unique_ptr<net::ShardRuntime> runtime;
  if (shards_ > 1 && !any_tcp) {
    ShardPlan plan = compute_shard_plan(topo, shards_, partition_weights_);
    if (verbose_) {
      report_shard_plan(plan, topo, std::cerr, partition_weights_);
      if (plan.parallel()) {
        // Flow balance: the partitioner only sees topology, so report how
        // the declared traffic sources actually land on the shards.
        std::vector<std::size_t> srcs(plan.shard_count, 0);
        for (const auto& f : flows_) {
          ++srcs[plan.node_shard[built[f.from].ce->id()]];
        }
        for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
          std::cerr << "partition: shard " << s << ": " << srcs[s]
                    << " flow sources\n";
        }
      }
    }
    if (plan.parallel() && plan.lookahead > 0) {
      runtime = std::make_unique<net::ShardRuntime>(
          topo, std::move(plan.node_shard), plan.shard_count, plan.lookahead);
    }
  } else if (shards_ > 1 && any_tcp) {
    out << "shards=" << shards_
        << " requested; tcp flows pin the run to the serial engine\n";
  }

  // Engine sync telemetry: per-epoch phase timings + load-imbalance
  // attribution. Serial runs get a one-lane serial report so profiled
  // bench passes always emit the same JSON shape.
  std::unique_ptr<obs::SyncProfiler> sync_prof;
  if (obs_.sync_enabled()) {
    sync_prof = std::make_unique<obs::SyncProfiler>(
        runtime ? runtime->shard_count() : 1);
    if (runtime) {
      // The profiler layer cannot see routers; sample the per-shard flow
      // caches here, where both the topology and the shard map are known.
      auto by_shard = std::make_shared<
          std::vector<std::vector<const vpn::Router*>>>(
          runtime->shard_count());
      for (std::size_t i = 0; i < topo.node_count(); ++i) {
        const auto id = static_cast<ip::NodeId>(i);
        if (const auto* r = dynamic_cast<const vpn::Router*>(&topo.node(id))) {
          (*by_shard)[topo.shard_of(id)].push_back(r);
        }
      }
      sync_prof->set_cache_sampler(
          [by_shard](std::uint32_t shard, std::uint64_t& hits,
                     std::uint64_t& misses) {
            for (const vpn::Router* r : (*by_shard)[shard]) {
              const vpn::Router::FlowCacheStats fc = r->flowcache_stats();
              hits += fc.hits;
              misses += fc.misses;
            }
          });
      runtime->set_profiler(sync_prof.get());
    }
  }

  // Per-shard SLA observers: each flow's sent-side counters accumulate in
  // the source CE's shard, delivery-side in the destination CE's shard;
  // merge_shard_observers folds them into `probe`/`latency` (whose
  // addresses the metric gauges captured) at every snapshot and at the end.
  std::vector<std::unique_ptr<qos::SlaProbe>> shard_probes;
  std::vector<std::unique_ptr<traffic::MeasurementSink>> shard_sinks;
  if (runtime) {
    for (std::uint32_t s = 0; s < runtime->shard_count(); ++s) {
      shard_probes.push_back(
          std::make_unique<qos::SlaProbe>("shard" + std::to_string(s)));
      shard_sinks.push_back(std::make_unique<traffic::MeasurementSink>(
          *shard_probes.back(), runtime->shard_scheduler(s)));
    }
  }
  auto sink_at = [&](std::size_t site) -> traffic::MeasurementSink& {
    if (!runtime) return sink;
    return *shard_sinks[topo.shard_of(built[site].ce->id())];
  };
  auto merge_shard_observers = [&] {
    probe = qos::SlaProbe("scenario");
    for (const auto& sp : shard_probes) probe.merge_from(*sp);
    if (obs_.latency_enabled()) {
      latency.reset();
      for (std::uint32_t s = 0; s < runtime->shard_count(); ++s) {
        latency.merge_from(runtime->shard_latency(s));
      }
    }
  };

  // Per-flow telemetry plane: one accounting table per engine lane (the
  // serial scheduler, or each shard's), drained into the exporter at exact
  // scan instants. The sharded driver is a between-window periodic action
  // (every shard rests past all events before the instant, none at or
  // after); the serial driver reproduces that same edge by chunking the
  // run, so the record stream is byte-identical across shard counts. It
  // must register before the metrics action below so coincident instants
  // scan first in both modes.
  std::unique_ptr<obs::FlowExporter> flow_exporter;
  std::vector<std::unique_ptr<obs::FlowStatsTable>> flow_tables;
  sim::SimTime flow_scan_period = 0;
  auto flow_scan = [&](sim::SimTime at) {
    // Single-lane runs cut records straight out of the table (the
    // accumulations never leave their slots); sharded runs must fold the
    // per-shard halves of each flow together first.
    if (flow_tables.size() == 1) {
      flow_exporter->scan_table(*flow_tables.front(), at);
      return;
    }
    for (auto& ft : flow_tables) flow_exporter->merge_table(*ft);
    flow_exporter->scan(at);
  };
  if (obs_.flow_enabled()) {
    obs::FlowExporter::Options fopt;
    fopt.active_timeout = sim::from_seconds(obs_.flow_active_timeout_s);
    fopt.idle_timeout = sim::from_seconds(obs_.flow_idle_timeout_s);
    flow_exporter = std::make_unique<obs::FlowExporter>(fopt);
    if (obs_.flow_scan_period_s > 0) {
      flow_scan_period = sim::from_seconds(obs_.flow_scan_period_s);
    }
    // Size the tables for the declared flow population: at <= 50% load the
    // probe window practically never fills, so the spill path stays off
    // the hot path (and a serial run keeps the table-resident fastpath).
    const std::size_t flow_slots =
        std::max(obs::FlowStatsTable::kDefaultSlots, 2 * flows_.size());
    if (runtime) {
      std::vector<obs::FlowStatsTable*> ptrs;
      for (std::uint32_t s = 0; s < runtime->shard_count(); ++s) {
        flow_tables.push_back(std::make_unique<obs::FlowStatsTable>(
            &runtime->shard_scheduler(s), flow_slots));
        ptrs.push_back(flow_tables.back().get());
      }
      runtime->set_flow_stats(std::move(ptrs));
      if (flow_scan_period > 0) {
        // The action has no instant parameter; track it alongside.
        auto next = std::make_shared<sim::SimTime>(
            topo.base_scheduler().now() + flow_scan_period);
        runtime->add_periodic_action(*next, flow_scan_period, [&, next] {
          flow_scan(*next);
          *next += flow_scan_period;
        });
      }
    } else {
      flow_tables.push_back(std::make_unique<obs::FlowStatsTable>(
          &topo.base_scheduler(), flow_slots));
      topo.set_flow_stats(flow_tables.front().get());
    }
  }

  obs::MetricsRegistry registry;
  std::optional<obs::PeriodicSnapshots> snapshots;
  if (obs_.enabled() && !obs_.metrics_json_path.empty()) {
    obs::register_topology_metrics(topo, registry);
    register_sla_metrics(registry, probe);
    obs::register_latency_metrics(latency, registry, cs_class_namer());
    if (obs_.engine_metrics && runtime) {
      obs::register_engine_metrics(*runtime, registry);
      if (sync_prof) obs::register_sync_metrics(*sync_prof, registry);
    }
    if (obs_.control_metrics) {
      obs::register_control_metrics(bb.cp, bb.bgp, bb.igp, registry);
    }
    if (obs_.engine_metrics && flow_exporter) {
      std::vector<obs::FlowStatsTable*> tptrs;
      tptrs.reserve(flow_tables.size());
      for (const auto& ft : flow_tables) tptrs.push_back(ft.get());
      obs::register_flow_metrics(*flow_exporter, tptrs, registry);
    }
    snapshots.emplace(registry, topo.base_scheduler());
    const sim::SimTime period = sim::from_seconds(obs_.snapshot_period_s);
    if (runtime) {
      // Same capture instants as PeriodicSnapshots::start() (first one a
      // full period in), but as a between-window global action: all shards
      // rest at the capture time, and the fold below makes the serial
      // observers the gauges read consistent before each sample.
      runtime->add_periodic_action(topo.base_scheduler().now() + period,
                                   period, [&] {
                                     merge_shard_observers();
                                     snapshots->capture();
                                   });
    } else {
      snapshots->start(period);
    }
  }

  std::map<std::size_t, std::unique_ptr<traffic::FlowDispatcher>> dispatch;
  auto dispatcher_for = [&](std::size_t site) -> traffic::FlowDispatcher& {
    auto& d = dispatch[site];
    if (!d) {
      d = std::make_unique<traffic::FlowDispatcher>();
      d->attach(*built[site].ce);
    }
    return *d;
  };
  if (any_tcp) {
    for (std::size_t s = 0; s < built.size(); ++s) {
      dispatcher_for(s).set_default(
          [&sink](const net::Packet& p, vpn::VpnId vpn) {
            // A delivery neither a TCP endpoint nor a measured-flow handler
            // claimed. Account it in the sink — it surfaces in the final
            // delivered/leaks/unknown line (and fails the run when nonzero)
            // instead of vanishing from the SLA accounting.
            sink.on_delivery(p, vpn);
          });
    }
  } else {
    for (std::size_t s = 0; s < built.size(); ++s) {
      sink_at(s).bind(*built[s].ce);
    }
  }

  std::vector<std::unique_ptr<traffic::TcpLiteFlow>> tcp_flows;
  // One SoA FlowSet per engine lane (the serial scheduler, or each
  // shard's) holding every cbr/poisson/onoff flow whose source CE lives on
  // that lane.
  std::vector<std::unique_ptr<traffic::FlowSet>> flowsets(
      runtime ? runtime->shard_count() : 1);
  auto flowset_at = [&](std::size_t site) -> traffic::FlowSet& {
    const std::uint32_t lane =
        runtime ? topo.shard_of(built[site].ce->id()) : 0;
    auto& fs = flowsets[lane];
    if (!fs) {
      fs = std::make_unique<traffic::FlowSet>(
          runtime ? runtime->shard_scheduler(lane) : topo.scheduler(),
          runtime ? shard_probes[lane].get() : &probe, topo.seed());
      // Register every site up front so FlowSet site indices coincide with
      // scenario site indices on all lanes (destinations may live on other
      // shards; only their host address is read).
      for (const auto& sb : built) {
        fs->add_site(*sb.ce, ip::Ipv4Address(sb.prefix.address().value() + 1));
      }
    }
    return *fs;
  };
  std::uint32_t flow_id = 1;
  const sim::SimTime t0 = bb.topo.scheduler().now();
  for (const auto& f : flows_) {
    vpn::Router& ce = *built[f.from].ce;
    if (f.kind == "tcp") {
      traffic::TcpLiteFlow::Config tc;
      tc.src = ip::Ipv4Address(built[f.from].prefix.address().value() + 1);
      tc.dst = ip::Ipv4Address(built[f.to].prefix.address().value() + 1);
      tc.dst_port = f.port;
      tc.mss_payload = f.size;
      tc.vpn = vpn_ids.at(f.vpn);
      tc.phb = f.phb;
      tc.premark = f.premark;
      tcp_flows.push_back(std::make_unique<traffic::TcpLiteFlow>(
          ce, dispatcher_for(f.from), *built[f.to].ce,
          dispatcher_for(f.to), flow_id, tc));
      ++flow_id;
      continue;
    }
    const vpn::VpnId flow_vpn = vpn_ids.at(f.vpn);
    traffic::FlowSet::FlowDef d;
    d.flow_id = flow_id;
    d.from_site = static_cast<std::uint32_t>(f.from);
    d.to_site = static_cast<std::uint32_t>(f.to);
    d.kind = f.kind == "cbr"       ? traffic::FlowSet::Kind::kCbr
             : f.kind == "poisson" ? traffic::FlowSet::Kind::kPoisson
                                   : traffic::FlowSet::Kind::kOnOff;
    d.rate_bps = f.rate;
    d.on_s = f.on_s;
    d.off_s = f.off_s;
    d.vpn = flow_vpn;
    d.phb = f.phb;
    d.premark = f.premark;
    d.dst_port = f.port;
    d.payload_bytes = static_cast<std::uint32_t>(f.size);
    d.start = t0 + sim::from_seconds(f.start_s);
    flowset_at(f.from).add_flow(d);
    // When dispatchers own the sinks, route measured flows through them.
    if (any_tcp) {
      dispatcher_for(f.to).register_flow(
          flow_id, [&probe, phb = f.phb, &bb](const net::Packet& p,
                                              vpn::VpnId) {
            probe.record_delivered(phb, p.flow_id,
                                   bb.topo.scheduler().now() - p.created_at,
                                   net::kIpv4HeaderBytes +
                                       net::kL4HeaderBytes +
                                       p.payload_bytes);
          });
    } else {
      sink_at(f.to).expect_flow(flow_id, f.phb, flow_vpn);
    }
    ++flow_id;
  }

  for (auto& fs : flowsets) {
    if (fs) fs->run(t0 + sim::from_seconds(run_for_s_));
  }
  for (auto& t : tcp_flows) {
    t->start(t0);
    bb.topo.scheduler().schedule_at(t0 + sim::from_seconds(run_for_s_),
                                    [flow = t.get()] { flow->stop(); });
  }
  const sim::SimTime t_end = t0 + sim::from_seconds(run_for_s_ + 2.0);
  // Serial runs with the flow exporter armed advance in scan-sized chunks:
  // run every event strictly before the scan instant, scan, continue. This
  // reproduces the edge the sharded periodic action rides, so the two
  // engines cut identical record streams.
  auto serial_run = [&](sim::SimTime until) {
    if (flow_exporter && flow_scan_period > 0) {
      for (sim::SimTime at = t0 + flow_scan_period; at <= until;
           at += flow_scan_period) {
        topo.run_until(at - 1);
        flow_scan(at);
      }
    }
    topo.run_until(until);
  };
  if (runtime) {
    runtime->run_until(t_end);
  } else if (sync_prof) {
    const std::uint64_t ev0 = topo.base_scheduler().executed_count();
    const auto w0 = std::chrono::steady_clock::now();
    serial_run(t_end);
    sync_prof->record_serial(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - w0)
                .count()),
        topo.base_scheduler().executed_count() - ev0);
  } else {
    serial_run(t_end);
  }

  if (flow_exporter) {
    // Whatever is still accumulating after the drain window exports with
    // cause=final; detach the serial table before teardown.
    if (flow_tables.size() == 1) {
      flow_exporter->flush_table(*flow_tables.front());
    } else {
      for (auto& ft : flow_tables) flow_exporter->merge_table(*ft);
      flow_exporter->flush();
    }
    if (!runtime) topo.set_flow_stats(nullptr);
  }

  // Tear the shard runtime down before any report below reads the
  // topology: fold the per-shard observers a final time, then finish()
  // merges shard trace rings into the master recorder and restores the
  // serial view.
  std::uint64_t parallel_windows = 0;
  std::uint64_t parallel_widened = 0;
  std::uint64_t parallel_handoffs = 0;
  std::uint64_t parallel_batches = 0;
  std::uint32_t parallel_shards = 0;
  sim::SimTime parallel_lookahead = 0;
  if (runtime) {
    merge_shard_observers();
    parallel_shards = runtime->shard_count();
    parallel_lookahead = runtime->lookahead();
    parallel_windows = runtime->windows();
    parallel_widened = runtime->widened_windows();
    parallel_handoffs = runtime->handoffs();
    parallel_batches = runtime->delivery_batches();
    runtime->finish();
  }

  out << "converged in "
      << sim::to_seconds(bb.service.last_route_change_at()) * 1e3
      << " ms; ran " << run_for_s_ << " s of traffic";
  if (parallel_shards != 0) {
    out << " on " << parallel_shards << " shards (lookahead "
        << sim::to_seconds(parallel_lookahead) * 1e6 << " us, "
        << parallel_windows << " windows, " << parallel_widened
        << " widened, " << parallel_handoffs << " cross-shard handoffs, "
        << parallel_batches << " batched deliveries)";
  }
  out << "\n\n";
  out << probe.to_table(run_for_s_).render();
  for (std::size_t i = 0; i < tcp_flows.size(); ++i) {
    out << "tcp flow " << tcp_flows[i]->flow_id() << ": goodput "
        << stats::Table::num(tcp_flows[i]->goodput_bps(run_for_s_) / 1e6, 2)
        << " Mb/s, retransmits " << tcp_flows[i]->retransmits() << "\n";
  }
  if (obs_.latency_enabled()) {
    const obs::NodeNamer lnamer = obs::topology_node_namer(bb.topo);
    if (obs_.latency_report) {
      out << "\nlatency anatomy: per-hop decomposition\n"
          << latency.hop_table(lnamer, cs_class_namer()).render()
          << "\nlatency anatomy: per-class delay budget\n"
          << latency.class_table(cs_class_namer()).render();
    }
    if (!obs_.latency_json_path.empty()) {
      std::ofstream lf(obs_.latency_json_path);
      latency.write_json(lf, lnamer, cs_class_namer());
    }
  }
  if (obs_.enabled()) {
    const obs::FlightRecorder& rec = bb.topo.recorder();
    const obs::NodeNamer namer = obs::topology_node_namer(bb.topo);
    if (snapshots) {
      snapshots->stop();
      snapshots->capture();  // final state after the drain
      std::ofstream mf(obs_.metrics_json_path);
      snapshots->write_json(mf);
    }
    if (!obs_.events_jsonl_path.empty()) {
      std::ofstream ef(obs_.events_jsonl_path);
      obs::write_jsonl(rec, ef, namer);
    }
    if (!obs_.chrome_trace_path.empty()) {
      std::ofstream cf(obs_.chrome_trace_path);
      obs::write_chrome_trace(rec, cf, namer, sync_prof.get());
    }
    if (!obs_.spans_trace_path.empty()) {
      const obs::SpanAnalysis spans = obs::analyze_spans(rec);
      std::ofstream sf(obs_.spans_trace_path);
      obs::write_span_chrome_trace(spans, sf, namer);
    }
    out << "\nobs: " << rec.size() << " trace events held ("
        << rec.recorded() << " recorded, " << rec.overwritten()
        << " overwritten)";
    if (snapshots) {
      out << "; " << snapshots->count() << " metrics snapshots ("
          << registry.metric_count() << " metrics)";
    }
    out << "\n";
  }
  if (sync_prof) {
    const obs::SyncProfiler::Report srep = sync_prof->report();
    if (obs_.sync_report) out << '\n' << srep.to_table();
    if (!obs_.sync_json_path.empty()) {
      std::ofstream sf(obs_.sync_json_path);
      srep.write_json(sf);
      sf << '\n';
    }
  }
  if (flow_exporter) {
    std::map<std::uint32_t, std::string> vpn_names;
    for (const auto& [name, id] : vpn_ids) vpn_names[id] = name;
    obs::VpnNamer vnamer = [vpn_names = std::move(vpn_names)](
                               std::uint32_t id) -> std::string {
      const auto it = vpn_names.find(id);
      return it == vpn_names.end() ? "vpn" + std::to_string(id) : it->second;
    };
    obs::PhbNamer pnamer = [](std::uint8_t phb) {
      return qos::to_string(static_cast<qos::Phb>(phb));
    };
    if (obs_.flow_report) {
      out << "\nflow conformance: offered vs delivered per VPN x class ("
          << flow_exporter->records().size() << " flow records)\n"
          << flow_exporter->rollup_table(vnamer, pnamer).render();
    }
    if (!obs_.flow_records_path.empty()) {
      std::ofstream ff(obs_.flow_records_path);
      flow_exporter->write_jsonl(ff, obs::topology_node_namer(bb.topo),
                                 vnamer, pnamer);
    }
    if (!obs_.flow_records_bin_path.empty()) {
      std::ofstream fb(obs_.flow_records_bin_path, std::ios::binary);
      flow_exporter->write_binary(fb);
    }
  }
  if (!obs_.flow_profile_path.empty()) {
    // Measured off link transmit counters, which the run maintains whether
    // or not flow accounting was armed.
    std::ofstream pf(obs_.flow_profile_path);
    write_flow_profile(measure_flow_profile(topo), topo, pf);
  }

  // Isolation / accounting verdict. In dispatcher mode (tcp present) the
  // sink only sees what no handler claimed, so `delivered` there counts
  // strays — and `unknown` nonzero means packets escaped SLA accounting,
  // which used to be silently dropped by the no-op default handler.
  std::uint64_t delivered = sink.delivered();
  std::uint64_t leaks = sink.leaks();
  std::uint64_t unknown = sink.unknown_flows();
  for (const auto& ss : shard_sinks) {
    delivered += ss->delivered();
    leaks += ss->leaks();
    unknown += ss->unknown_flows();
  }
  out << "\ndelivered=" << delivered << " leaks=" << leaks
      << " unknown=" << unknown << "\n";
  return leaks == 0 && unknown == 0;
}

int run_scenario_file(const std::string& path, std::ostream& out) {
  return run_scenario_file(path, out, ObsOptions{});
}

int run_scenario_file(const std::string& path, std::ostream& out,
                      const ObsOptions& obs, std::uint32_t shards,
                      int flowcache, bool verbose,
                      std::vector<std::uint64_t> partition_weights) {
  std::ifstream in(path);
  if (!in) {
    out << "cannot open " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  ScenarioError error;
  auto scenario = Scenario::parse(buffer.str(), &error);
  if (!scenario) {
    out << path << ":" << error.line << ": " << error.message << "\n";
    return 2;
  }
  scenario->set_obs(obs);
  if (shards != 0) scenario->set_shards(shards);
  if (flowcache >= 0) scenario->set_flowcache(flowcache != 0);
  scenario->set_verbose(verbose);
  scenario->set_partition_weights(std::move(partition_weights));
  return scenario->run(out) ? 0 : 1;
}

}  // namespace mvpn::backbone
