#include "backbone/scenario_config.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
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

/// Split "a,b,c" into doubles; false on an empty or unparsable element.
bool parse_number_list(const std::string& s, std::vector<double>& out) {
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = s.find(',', pos);
    double v = 0;
    if (!to_double(s.substr(pos, comma - pos), v)) return false;
    out.push_back(v);
    if (comma == std::string::npos) return true;
    pos = comma + 1;
  }
}

/// A `core_queue=` value: the discipline and its numeric arguments (the
/// wfq/drr weights, or RED's min_th, max_th, max_p).
struct CoreQueue {
  std::string kind = "fifo";
  std::vector<double> args;
};

/// RED profile of a "red" / "red:min[,max[,maxp]]" core queue (missing
/// arguments keep the RedParams defaults); nullopt for any other kind. RED
/// queues are not built through the QueueDiscFactory (it carries no
/// arguments): they need a clock and a per-node RNG, so the scenario swaps
/// them onto the core links after construction.
std::optional<qos::RedParams> red_params_for(const CoreQueue& q,
                                             double core_bw_bps) {
  if (q.kind != "red") return std::nullopt;
  qos::RedParams rp;
  rp.bandwidth_bps = core_bw_bps;
  if (!q.args.empty()) rp.min_th = q.args[0];
  if (q.args.size() > 1) rp.max_th = q.args[1];
  if (q.args.size() > 2) rp.max_p = q.args[2];
  return rp;
}

/// Parse a `core_queue=` value: fifo, prio, wfq:W,..., drr:W,..., red or
/// red:MIN[,MAX[,MAXP]]. wfq weights must be finite and > 0, drr weights
/// integers in [1, 2^32), and RED needs 0 <= min < max (finite) and
/// 0 < maxp <= 1. On failure returns nullopt and sets `*why` (when
/// non-null).
std::optional<CoreQueue> parse_core_queue(const std::string& spec,
                                          std::string* why) {
  CoreQueue q;
  const std::size_t colon = spec.find(':');
  q.kind = spec.substr(0, colon);
  const bool has_args = colon != std::string::npos;
  auto bad = [&](const std::string& msg) {
    if (why != nullptr) *why = "bad core_queue=" + spec + " (" + msg + ")";
    return std::optional<CoreQueue>{};
  };
  if (q.kind == "fifo" || q.kind == "prio") {
    if (has_args) return bad(q.kind + " takes no arguments");
    return q;
  }
  if (q.kind != "wfq" && q.kind != "drr" && q.kind != "red") {
    return bad("want fifo, prio, wfq:W,..., drr:W,... or red[:MIN,MAX,MAXP]");
  }
  if (q.kind != "red" && !has_args) return bad(q.kind + " needs weights");
  if (has_args && !parse_number_list(spec.substr(colon + 1), q.args)) {
    return bad("unparsable number");
  }
  for (const double w : q.args) {
    if (q.kind == "wfq" && !(std::isfinite(w) && w > 0)) {
      return bad("wfq weights must be finite and > 0");
    }
    if (q.kind == "drr" &&
        !(w >= 1 && w < 4294967296.0 && w == std::floor(w))) {
      return bad("drr weights must be integers in [1, 2^32)");
    }
  }
  if (q.kind == "red") {
    if (q.args.size() > 3) return bad("red takes at most MIN,MAX,MAXP");
    const qos::RedParams rp = *red_params_for(q, 0);
    if (!(rp.min_th >= 0 && rp.min_th < rp.max_th &&
          std::isfinite(rp.max_th) && rp.max_p > 0 && rp.max_p <= 1)) {
      return bad("red needs 0 <= MIN < MAX and 0 < MAXP <= 1");
    }
  }
  return q;
}

/// The core queue factory of a parsed spec. (RED returns the default
/// factory; see red_params_for.)
net::QueueDiscFactory queue_factory_for(const CoreQueue& q) {
  if (q.kind == "prio") {
    return [] {
      return std::make_unique<qos::PriorityQueueDisc>(
          3, 100, qos::ef_af_be_selector());
    };
  }
  if (q.kind == "wfq") {
    return [weights = q.args] {
      return std::make_unique<qos::WfqQueueDisc>(weights, 100,
                                                 qos::ef_af_be_selector());
    };
  }
  if (q.kind == "drr") {
    std::vector<std::uint32_t> iw;
    for (const double w : q.args) iw.push_back(static_cast<std::uint32_t>(w));
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
        if (!to_count(*v, kMaxCoreRouters, sc.backbone_.p_count)) {
          return fail(line_no, "bad p= (want 0.." +
                                   std::to_string(kMaxCoreRouters) + ")");
        }
      }
      if (auto v = kv("pe")) {
        if (!to_count(*v, kMaxPeRouters, sc.backbone_.pe_count)) {
          return fail(line_no, "bad pe= (want 0.." +
                                   std::to_string(kMaxPeRouters) + ")");
        }
      }
      if (auto v = kv("core_bw")) {
        if (!to_positive(*v, sc.backbone_.core_bw_bps)) {
          return fail(line_no, "bad core_bw= (want finite > 0)");
        }
      }
      if (auto v = kv("edge_bw")) {
        if (!to_positive(*v, sc.backbone_.edge_bw_bps)) {
          return fail(line_no, "bad edge_bw= (want finite > 0)");
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
        if (!to_count(*v, kMaxRouteReflectors,
                      sc.backbone_.route_reflector_count)) {
          return fail(line_no, "bad rr= (want 0.." +
                                   std::to_string(kMaxRouteReflectors) + ")");
        }
      }
      if (auto v = kv("core_queue")) {
        std::string why;
        if (!parse_core_queue(*v, &why)) return fail(line_no, why);
        sc.core_queue_spec_ = *v;
      }
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
      // Both endpoints of a self-addressed TcpLite flow would claim its id
      // on one dispatcher, and the receiver's handler would eat the ACKs.
      if (f.kind == "tcp" && f.from == f.to) {
        return fail(line_no, "tcp flow needs from= != to=");
      }
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

/// Snapshot cadence of an armed run's metrics series, simulated seconds.
constexpr double kSnapshotPeriodS = 0.5;

/// The files of an obs directory (Scenario::set_obs_dir). Scenario::run
/// opens every one before build(), so an unwritable destination fails
/// before any work is done.
struct ObsFiles {
  std::ofstream trace, events, spans, trace_txt, metrics, engine_metrics,
      latency, latency_txt, sync, sync_txt, flow_jsonl, flow_bin, flow_txt,
      partition;

  /// Create `dir` and open (truncate) every file, binary so each holds
  /// exactly the bytes written. On failure prints one line naming the
  /// path to `err` and returns false.
  bool open(const std::string& dir, std::ostream& err) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      err << "cannot create obs directory " << dir << ": " << ec.message()
          << "\n";
      return false;
    }
    const std::pair<std::ofstream*, const char*> files[] = {
        {&trace, "trace.json"},
        {&events, "events.jsonl"},
        {&spans, "spans.json"},
        {&trace_txt, "trace.txt"},
        {&metrics, "metrics.json"},
        {&engine_metrics, "engine_metrics.json"},
        {&latency, "latency.json"},
        {&latency_txt, "latency.txt"},
        {&sync, "sync.json"},
        {&sync_txt, "sync.txt"},
        {&flow_jsonl, "flow.jsonl"},
        {&flow_bin, "flow.bin"},
        {&flow_txt, "flow.txt"},
        {&partition, "partition.txt"},
    };
    for (const auto& [file, name] : files) {
      const std::string path = dir + "/" + name;
      file->open(path, std::ios::binary);
      if (!*file) {
        err << "cannot write obs file " << path << "\n";
        return false;
      }
    }
    return true;
  }
};

/// One Scenario::run, stage by stage: build, converge, partition,
/// observers, arm traffic, run, report. Every engine configuration takes
/// the same path — a serial run is a one-lane ShardRuntime — so probes,
/// sinks, flow tables and FlowSets exist per lane and fold the same way at
/// every shard count. Member order is the teardown contract: traffic
/// objects die before the runtime whose schedulers they were armed on, and
/// the runtime before the backbone it is installed on.
struct Scenario::Run {
  Run(const Scenario& scenario, std::ostream& os,
      std::unique_ptr<ObsFiles> files)
      : sc(scenario),
        out(os),
        obs(std::move(files)),
        // parse() accepted the spec, so it parses again.
        core_queue(*parse_core_queue(scenario.core_queue_spec_, nullptr)),
        bb([this] {
          BackboneConfig c = sc.backbone_;
          c.core_queue = queue_factory_for(core_queue);
          return c;
        }()),
        topo(bb.topo) {}

  void build();
  void converge();
  void partition();
  void observers();
  void arm_traffic();
  void run();
  bool report();
  void write_obs();  ///< fill every obs file; report() calls it when armed

  /// Refresh the folded observers the metric gauges and the report read:
  /// `probe` from the lane probes, the latency collector from the shards.
  void fold() {
    probe = qos::SlaProbe("scenario");
    for (const auto& lp : lane_probes) probe.merge_from(*lp);
    runtime->fold_latency();
  }
  [[nodiscard]] std::uint32_t lane_of(std::size_t site) const {
    return runtime->shard_of(built[site].ce->id());
  }
  traffic::FlowDispatcher& dispatcher_for(std::size_t site);
  traffic::FlowSet& flowset_at(std::size_t site);

  const Scenario& sc;
  std::ostream& out;
  /// Null unless the scenario has an obs directory; then every plane below
  /// is armed and report() fills each file.
  std::unique_ptr<ObsFiles> obs;
  CoreQueue core_queue;
  MplsBackbone bb;
  net::Topology& topo;
  std::map<std::string, vpn::VpnId> vpn_ids;
  std::vector<MplsBackbone::Site> built;

  qos::SlaProbe probe{"scenario"};  ///< folded from lane_probes
  obs::LatencyCollector latency;    ///< the topology's collector
  std::unique_ptr<obs::SyncProfiler> sync_prof;
  std::unique_ptr<net::ShardRuntime> runtime;
  /// Per lane: sent-side counters accumulate on the source CE's lane,
  /// deliveries on the destination CE's, each sink reading its lane clock.
  std::vector<std::unique_ptr<qos::SlaProbe>> lane_probes;
  std::vector<std::unique_ptr<traffic::MeasurementSink>> lane_sinks;
  std::unique_ptr<obs::FlowExporter> flow_exporter;  ///< one table per lane
  obs::MetricsRegistry registry;         ///< metrics.json: results
  obs::MetricsRegistry engine_registry;  ///< engine_metrics.json
  std::optional<obs::PeriodicSnapshots> snapshots;
  std::optional<obs::PeriodicSnapshots> engine_snapshots;
  std::map<std::size_t, std::unique_ptr<traffic::FlowDispatcher>> dispatch;
  std::vector<std::unique_ptr<traffic::TcpLiteFlow>> tcp_flows;
  /// One SoA FlowSet per lane, holding every cbr/poisson/onoff flow whose
  /// source CE lives there; created on a lane's first flow.
  std::vector<std::unique_ptr<traffic::FlowSet>> flowsets;
  sim::SimTime t0 = 0;
};

void Scenario::Run::build() {
  // "red" core spec: swap RED onto the core directions while the links are
  // still idle. The clock reads through the topology's ambient scheduler
  // accessor (a sharded run answers with the shard clock of whichever
  // worker services the queue), and each direction's RNG is seeded from
  // (topology seed, transmitting node, link) so drop decisions never
  // depend on draw order across queues.
  if (auto rp = red_params_for(core_queue, sc.backbone_.core_bw_bps)) {
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
                *rp, [&t = topo] { return t.scheduler().now(); },
                sim::Rng::stream(
                    topo.seed(),
                    0x52ED0000ULL + (std::uint64_t{from} << 20) + l)));
      }
    }
  }

  // Arm the flight recorder before convergence so control-plane events
  // (LDP mappings, LSP signaling) land in the trace alongside the data
  // plane.
  if (obs) topo.recorder().enable();

  for (const auto& name : sc.vpns_) {
    vpn_ids[name] = bb.service.create_vpn(name);
  }
  for (const auto& [importer, exported] : sc.extranets_) {
    bb.service.add_extranet_import(vpn_ids.at(importer),
                                   vpn_ids.at(exported));
  }
  for (const auto& s : sc.sites_) {
    built.push_back(bb.add_site(vpn_ids.at(s.vpn), s.pe, s.prefix));
  }

  // flowcache=off: force every router (P, PE, CE) onto the slow path so
  // A/B runs can verify the fastpath changes nothing but speed.
  if (!sc.flowcache_) {
    for (std::size_t i = 0; i < topo.node_count(); ++i) {
      if (auto* r = dynamic_cast<vpn::Router*>(
              &topo.node(static_cast<ip::NodeId>(i)))) {
        r->set_flowcache_enabled(false);
      }
    }
  }
}

void Scenario::Run::converge() {
  bb.start_and_converge();

  for (const auto& c : sc.classifies_) {
    vpn::Router& ce = *built[c.site].ce;
    if (ce.classifier() == nullptr) {
      ce.set_classifier(std::make_unique<qos::CbqClassifier>());
    }
    qos::MatchRule rule;
    rule.dst_port = qos::PortRange{c.port_lo, c.port_hi};
    rule.mark = c.phb;
    ce.classifier()->add_rule(rule);
  }
  for (const auto& p : sc.polices_) {
    built[p.site].ce->add_policer(p.phb, p.cir, p.cbs, p.ebs);
  }
  for (const auto& s : sc.shapes_) {
    built[s.site].ce->add_shaper(s.phb, s.rate, s.burst);
  }

  // Per-hop delay decomposition: links/routers stamp DelayAnatomy always;
  // the collector aggregates only in an obs run.
  // Armed before partition(): a sharded runtime gives each shard its own
  // collector only when the topology has one. The tap reads through the
  // ambient accessor so a sharded run records into the delivering shard's
  // collector (folded into `latency` between windows).
  if (obs) {
    topo.set_latency_collector(&latency);
    for (const auto& site : built) {
      site.ce->add_delivery_tap([&t = topo](const net::Packet& p, vpn::VpnId) {
        if (obs::LatencyCollector* lc = t.latency_collector()) {
          lc->record_delivery(p.trace_class(), p.delay.queue, p.delay.tx,
                              p.delay.prop, p.delay.proc);
        }
      });
    }
  }
}

void Scenario::Run::partition() {
  // Partition the converged topology and bring up the runtime. Everything
  // before this point ran on the topology's scheduler; everything after it
  // that touches the topology from this thread still resolves to the
  // serial objects (sim::current_shard() is kNoShard).
  ShardPlan plan = compute_shard_plan(topo, sc.shards_);
  if (obs) {
    report_shard_plan(plan, topo, obs->partition);
    if (plan.parallel()) {
      // Flow balance: the partitioner only sees topology, so report how
      // the declared traffic sources actually land on the shards.
      std::vector<std::size_t> srcs(plan.shard_count, 0);
      for (const auto& f : sc.flows_) {
        ++srcs[plan.node_shard[built[f.from].ce->id()]];
      }
      for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
        obs->partition << "partition: shard " << s << ": " << srcs[s]
                       << " flow sources\n";
      }
    }
  }
  runtime = make_shard_runtime(topo, std::move(plan));
}

void Scenario::Run::observers() {
  const std::uint32_t lanes = runtime->shard_count();
  for (std::uint32_t s = 0; s < lanes; ++s) {
    lane_probes.push_back(
        std::make_unique<qos::SlaProbe>("lane" + std::to_string(s)));
    lane_sinks.push_back(std::make_unique<traffic::MeasurementSink>(
        *lane_probes.back(), runtime->shard_scheduler(s)));
  }
  if (!obs) return;
  const sim::SimTime now = topo.base_scheduler().now();

  // Engine sync telemetry: per-epoch phase timings + load-imbalance
  // attribution, or one serial execution phase on one lane.
  sync_prof = std::make_unique<obs::SyncProfiler>(lanes);
  attach_sync_profiler(*runtime, topo, *sync_prof);

  // Per-flow telemetry plane, registered before the metrics action below
  // so coincident instants scan first.
  flow_exporter = attach_flow_exporter(*runtime);

  // Result gauges go to metrics.json, identical at every shard count; the
  // gauges of how the engine, the profiler, the exporter and the control
  // plane did their work go to engine_metrics.json.
  obs::register_topology_metrics(topo, registry);
  register_sla_metrics(registry, probe);
  obs::register_latency_metrics(latency, registry, cs_class_namer());
  obs::register_engine_metrics(*runtime, engine_registry);
  obs::register_sync_metrics(*sync_prof, engine_registry);
  obs::register_flow_metrics(*flow_exporter, engine_registry);
  obs::register_control_metrics(bb.cp, bb.bgp, bb.igp, engine_registry);
  // First capture a full period in; the fold makes the observers the
  // gauges read consistent before each sample.
  snapshots.emplace(registry);
  engine_snapshots.emplace(engine_registry);
  const sim::SimTime period = sim::from_seconds(kSnapshotPeriodS);
  runtime->add_periodic_action(now + period, period, [this](sim::SimTime at) {
    fold();
    snapshots->capture(at);
    engine_snapshots->capture(at);
  });
}

traffic::FlowDispatcher& Scenario::Run::dispatcher_for(std::size_t site) {
  auto& d = dispatch[site];
  if (!d) {
    d = std::make_unique<traffic::FlowDispatcher>();
    d->attach(*built[site].ce);
    // Whatever the TCP endpoints here do not claim goes to the lane sink.
    d->set_default([sink = lane_sinks[lane_of(site)].get()](
                       const net::Packet& p, vpn::VpnId vpn) {
      sink->on_delivery(p, vpn);
    });
  }
  return *d;
}

traffic::FlowSet& Scenario::Run::flowset_at(std::size_t site) {
  const std::uint32_t lane = lane_of(site);
  auto& fs = flowsets[lane];
  if (!fs) {
    fs = std::make_unique<traffic::FlowSet>(runtime->shard_scheduler(lane),
                                            lane_probes[lane].get(),
                                            topo.seed());
    // Register every site up front so FlowSet site indices coincide with
    // scenario site indices on all lanes (destinations may live on other
    // shards; only their host address is read).
    for (const auto& sb : built) {
      fs->add_site(*sb.ce, ip::Ipv4Address(sb.prefix.address().value() + 1));
    }
  }
  return *fs;
}

void Scenario::Run::arm_traffic() {
  // Each CE delivers into its lane's sink; a TCP endpoint puts a
  // dispatcher in front of it (dispatcher_for).
  for (std::size_t s = 0; s < built.size(); ++s) {
    lane_sinks[lane_of(s)]->bind(*built[s].ce);
  }

  flowsets.resize(runtime->shard_count());
  std::uint32_t flow_id = 1;
  t0 = topo.base_scheduler().now();
  for (const auto& f : sc.flows_) {
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
          *built[f.from].ce, dispatcher_for(f.from), *built[f.to].ce,
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
    lane_sinks[lane_of(f.to)]->expect_flow(flow_id, f.phb, flow_vpn);
    ++flow_id;
  }

  for (auto& fs : flowsets) {
    if (fs) fs->run(t0 + sim::from_seconds(sc.run_for_s_));
  }
  for (auto& t : tcp_flows) {
    t->start(t0);
    topo.scheduler_of(t->sender().id())
        .schedule_at(t0 + sim::from_seconds(sc.run_for_s_),
                     [flow = t.get()] { flow->stop(); });
  }
}

void Scenario::Run::run() {
  runtime->run_until(t0 + sim::from_seconds(sc.run_for_s_ + 2.0));
  // Whatever is still accumulating after the drain window exports with
  // cause=final.
  if (flow_exporter) flow_exporter->flush();
  // Fold the lanes a final time, then tear the runtime down before any
  // report reads the topology: finish() merges shard trace rings into the
  // master recorder and restores the serial view.
  fold();
  runtime->finish();
}

void Scenario::Run::write_obs() {
  ObsFiles& f = *obs;
  const obs::NodeNamer namer = obs::topology_node_namer(topo);
  const obs::ClassNamer cnamer = cs_class_namer();

  const obs::FlightRecorder& rec = topo.recorder();
  obs::write_chrome_trace(rec, f.trace, namer, sync_prof.get());
  obs::write_jsonl(rec, f.events, namer);
  obs::write_span_chrome_trace(obs::analyze_spans(rec), f.spans, namer);
  snapshots->capture(topo.base_scheduler().now());  // after the drain
  engine_snapshots->capture(topo.base_scheduler().now());
  snapshots->write_json(f.metrics);
  engine_snapshots->write_json(f.engine_metrics);
  f.trace_txt << "obs: " << rec.size() << " trace events held ("
              << rec.recorded() << " recorded, " << rec.overwritten()
              << " overwritten); " << snapshots->count()
              << " metrics snapshots (" << registry.metric_count()
              << " metrics, " << engine_registry.metric_count()
              << " engine metrics)\n";

  latency.write_json(f.latency, namer, cnamer);
  f.latency_txt << "latency anatomy: per-hop decomposition\n"
                << latency.hop_table(namer, cnamer).render()
                << "\nlatency anatomy: per-class delay budget\n"
                << latency.class_table(cnamer).render();

  const obs::SyncProfiler::Report srep = sync_prof->report();
  f.sync_txt << srep.to_table();
  srep.write_json(f.sync);
  f.sync << '\n';

  std::map<std::uint32_t, std::string> vpn_names;
  for (const auto& [name, id] : vpn_ids) vpn_names[id] = name;
  const obs::VpnNamer vnamer = [vpn_names = std::move(vpn_names)](
                                   std::uint32_t id) -> std::string {
    const auto it = vpn_names.find(id);
    return it == vpn_names.end() ? "vpn" + std::to_string(id) : it->second;
  };
  const obs::PhbNamer pnamer = [](std::uint8_t phb) {
    return qos::to_string(static_cast<qos::Phb>(phb));
  };
  f.flow_txt << "flow conformance: offered vs delivered per VPN x class ("
             << flow_exporter->records().size() << " flow records)\n"
             << flow_exporter->rollup_table(vnamer, pnamer).render();
  flow_exporter->write_jsonl(f.flow_jsonl, namer, vnamer, pnamer);
  flow_exporter->write_binary(f.flow_bin);
}

bool Scenario::Run::report() {
  const double run_for_s = sc.run_for_s_;
  out << "converged in "
      << sim::to_seconds(bb.service.last_route_change_at()) * 1e3
      << " ms; ran " << run_for_s << " s of traffic";
  if (runtime->shard_count() > 1) {
    out << " on " << runtime->shard_count() << " shards (lookahead "
        << sim::to_seconds(runtime->lookahead()) * 1e6 << " us, "
        << runtime->windows() << " windows, " << runtime->widened_windows()
        << " widened, " << runtime->handoffs() << " cross-shard handoffs, "
        << runtime->delivery_batches() << " batched deliveries)";
  }
  out << "\n\n";
  out << probe.to_table(run_for_s).render();
  for (std::size_t i = 0; i < tcp_flows.size(); ++i) {
    out << "tcp flow " << tcp_flows[i]->flow_id() << ": goodput "
        << stats::Table::num(tcp_flows[i]->goodput_bps(run_for_s) / 1e6, 2)
        << " Mb/s, retransmits " << tcp_flows[i]->retransmits() << "\n";
  }
  if (obs) write_obs();

  // Isolation / accounting verdict over every measured delivery; TCP
  // segments and ACKs are their endpoints' and never reach a sink.
  std::uint64_t delivered = 0;
  std::uint64_t leaks = 0;
  std::uint64_t unknown = 0;
  for (const auto& ls : lane_sinks) {
    delivered += ls->delivered();
    leaks += ls->leaks();
    unknown += ls->unknown_flows();
  }
  out << "\ndelivered=" << delivered << " leaks=" << leaks
      << " unknown=" << unknown << "\n";
  return leaks == 0 && unknown == 0;
}

bool Scenario::run(std::ostream& out) const {
  std::unique_ptr<ObsFiles> files;
  if (!obs_dir_.empty()) {
    files = std::make_unique<ObsFiles>();
    if (!files->open(obs_dir_, out)) return false;
  }
  Run r(*this, out, std::move(files));
  r.build();
  r.converge();
  r.partition();
  r.observers();
  r.arm_traffic();
  r.run();
  return r.report();
}

int run_scenario_file(const std::string& path, std::ostream& out,
                      const std::string& obs_dir, std::uint32_t shards) {
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
  scenario->set_obs_dir(obs_dir);
  if (shards != 0) scenario->set_shards(shards);
  return scenario->run(out) ? 0 : 1;
}

}  // namespace mvpn::backbone
