#include "backbone/topogen.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/rng.hpp"

namespace mvpn::backbone {
namespace {

/// 64-bit FNV-1a, folded incrementally.
struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void mix(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
};

}  // namespace

bool to_double(const std::string& s, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(s, &used);
    return used == s.size();
  } catch (...) {
    return false;
  }
}

bool to_size(const std::string& s, std::size_t& out) {
  double d = 0;
  // 2^64 as a double: every finite value below it converts exactly.
  constexpr double kLimit =
      static_cast<double>(std::numeric_limits<std::size_t>::max());
  if (!to_double(s, d) || !std::isfinite(d) || d < 0 || d >= kLimit) {
    return false;
  }
  out = static_cast<std::size_t>(d);
  return true;
}

bool to_count(const std::string& s, std::size_t cap, std::size_t& out) {
  std::size_t v = 0;
  if (!to_size(s, v) || v > cap) return false;
  out = v;
  return true;
}

bool apply_topogen_param(TopogenParams& params, const std::string& key,
                         const std::string& value) {
  if (key == "p") return to_count(value, kMaxCoreRouters, params.p);
  if (key == "pe") return to_count(value, kMaxPeRouters, params.pe);
  if (key == "ce") return to_count(value, kMaxSitesPerPe, params.ce);
  if (key == "pod") return to_count(value, kMaxPeRouters, params.pod);
  if (key == "flows") {
    return to_count(value, kMaxGeneratedFlows, params.flows);
  }
  if (key == "core_bw") {
    return to_double(value, params.core_bw_bps) &&
           std::isfinite(params.core_bw_bps) && params.core_bw_bps > 0;
  }
  if (key == "edge_bw") {
    return to_double(value, params.edge_bw_bps) &&
           std::isfinite(params.edge_bw_bps) && params.edge_bw_bps > 0;
  }
  if (key == "rate") {
    return to_double(value, params.rate_bps) &&
           params.rate_bps >= kMinFlowRateBps &&
           params.rate_bps < std::numeric_limits<double>::infinity();
  }
  if (key == "size") {
    return to_size(value, params.size) && params.size <= kMaxPayloadBytes;
  }
  if (key == "seed") {
    std::size_t s = 0;
    if (!to_size(value, s)) return false;
    params.seed = s;
    return true;
  }
  return false;
}

bool parse_topogen_spec(const std::string& spec, TopogenParams& params,
                        std::string* error) {
  std::istringstream in(spec);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos ||
        !apply_topogen_param(params, token.substr(0, eq),
                             token.substr(eq + 1))) {
      if (error != nullptr) *error = "bad topogen token: " + token;
      return false;
    }
  }
  return true;
}

GeneratedPlan generate_plan(const TopogenParams& params) {
  if (params.pe == 0 || params.ce == 0 || params.pod == 0) {
    throw std::invalid_argument("topogen: pe, ce and pod must be >= 1");
  }
  const std::size_t pods = (params.pe + params.pod - 1) / params.pod;
  for (std::size_t g = 0; g < pods; ++g) {
    const std::size_t pe_lo = g * params.pod;
    const std::size_t pe_hi = std::min(pe_lo + params.pod, params.pe);
    if ((pe_hi - pe_lo) * params.ce < 2) {
      throw std::invalid_argument(
          "topogen: every pod needs at least two sites (raise ce= or pe=)");
    }
  }

  GeneratedPlan plan;
  plan.params = params;
  plan.backbone.p_count = params.p;
  plan.backbone.pe_count = params.pe;
  plan.backbone.core_bw_bps = params.core_bw_bps;
  plan.backbone.edge_bw_bps = params.edge_bw_bps;
  plan.backbone.seed = params.seed;
  // Half-circumference chords turn the P ring into the ladder mesh: the
  // diameter drops from ~p/2 to ~p/4 hops, which is what keeps end-to-end
  // delay realistic (and LSP tunnels short) at ISP core sizes.
  if (params.p >= 6) plan.backbone.core_chord_stride = params.p / 2;
  // A full iBGP mesh among hundreds of PEs is the quadratic blowup the
  // paper's deployment section warns about; big generated backbones get
  // route reflectors, exactly as a real ISP would deploy.
  if (params.pe >= 24) {
    plan.backbone.bgp_mode = routing::Bgp::Mode::kRouteReflector;
    plan.backbone.route_reflector_count = 2;
  }

  plan.vpns.reserve(pods);
  for (std::size_t g = 0; g < pods; ++g) {
    plan.vpns.push_back("pod" + std::to_string(g));
  }

  // Site addressing: one /24 per site carved from 10/8 in declaration
  // order — unique by construction, and the +1 host convention of the
  // traffic layer stays inside the /24 for any plan size.
  plan.sites.reserve(params.pe * params.ce);
  for (std::size_t pe_i = 0; pe_i < params.pe; ++pe_i) {
    for (std::size_t c = 0; c < params.ce; ++c) {
      PlanSite site;
      site.vpn = pe_i / params.pod;
      site.pe = pe_i;
      const std::size_t idx = pe_i * params.ce + c;
      site.prefix = ip::Prefix(
          ip::Ipv4Address(static_cast<std::uint32_t>((10u << 24) + idx * 256)),
          24);
      plan.sites.push_back(site);
    }
  }

  // Flows: endpoints and class drawn from one dedicated Rng stream, so the
  // flow list is a pure function of (seed, params) no matter who else
  // consumes randomness. Mix loosely after the paper's traffic taxonomy:
  // ~10% voice-like EF CBR, ~30% bursty AF data, ~60% best-effort.
  sim::Rng rng = sim::Rng::stream(params.seed, 0x746F706F67656EULL);
  plan.flows.reserve(params.flows);
  for (std::size_t f = 0; f < params.flows; ++f) {
    const auto g = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pods) - 1));
    const std::size_t site_lo = g * params.pod * params.ce;
    const std::size_t site_hi =
        std::min((g + 1) * params.pod, params.pe) * params.ce;
    const auto span = static_cast<std::int64_t>(site_hi - site_lo);
    PlanFlow flow;
    flow.from = site_lo + static_cast<std::size_t>(rng.uniform_int(0, span - 1));
    do {
      flow.to = site_lo + static_cast<std::size_t>(rng.uniform_int(0, span - 1));
    } while (flow.to == flow.from);
    const double r = rng.uniform();
    if (r < 0.10) {
      flow.kind = "cbr";
      flow.phb = qos::Phb::kEf;
      flow.port = 16400;
      flow.size = 172;  // voice-like small frames
    } else if (r < 0.25) {
      flow.kind = "onoff";
      flow.phb = qos::Phb::kAf11;
      flow.port = 5001;
      flow.size = params.size;
    } else if (r < 0.40) {
      flow.kind = "onoff";
      flow.phb = qos::Phb::kAf21;
      flow.port = 5004;
      flow.size = params.size;
    } else {
      flow.kind = "poisson";
      flow.phb = qos::Phb::kBe;
      flow.port = 20000;
      flow.size = params.size;
    }
    // De-synchronize (see PlanFlow doc): distinct rates and start phases
    // keep any two flows from ever emitting in the same nanosecond, which
    // is what makes serial and sharded runs byte-identical.
    flow.rate_bps = params.rate_bps * (0.9 + 0.2 * rng.uniform());
    flow.start_s = 0.1 * rng.uniform();
    plan.flows.push_back(flow);
  }
  return plan;
}

std::uint64_t GeneratedPlan::hash() const {
  Fnv fnv;
  fnv.mix(static_cast<std::uint64_t>(params.p));
  fnv.mix(static_cast<std::uint64_t>(params.pe));
  fnv.mix(static_cast<std::uint64_t>(params.ce));
  fnv.mix(static_cast<std::uint64_t>(params.pod));
  fnv.mix(static_cast<std::uint64_t>(params.flows));
  fnv.mix(params.core_bw_bps);
  fnv.mix(params.edge_bw_bps);
  fnv.mix(params.rate_bps);
  fnv.mix(static_cast<std::uint64_t>(params.size));
  fnv.mix(params.seed);
  fnv.mix(static_cast<std::uint64_t>(backbone.p_count));
  fnv.mix(static_cast<std::uint64_t>(backbone.pe_count));
  fnv.mix(static_cast<std::uint64_t>(backbone.core_chord_stride));
  fnv.mix(static_cast<std::uint64_t>(backbone.route_reflector_count));
  fnv.mix(static_cast<std::uint64_t>(backbone.bgp_mode));
  for (const std::string& v : vpns) fnv.mix(v);
  for (const PlanSite& s : sites) {
    fnv.mix(static_cast<std::uint64_t>(s.vpn));
    fnv.mix(static_cast<std::uint64_t>(s.pe));
    fnv.mix(static_cast<std::uint64_t>(s.prefix.address().value()));
    fnv.mix(static_cast<std::uint64_t>(s.prefix.length()));
  }
  for (const PlanFlow& f : flows) {
    fnv.mix(f.kind);
    fnv.mix(static_cast<std::uint64_t>(f.from));
    fnv.mix(static_cast<std::uint64_t>(f.to));
    fnv.mix(f.rate_bps);
    fnv.mix(f.start_s);
    fnv.mix(static_cast<std::uint64_t>(f.phb));
    fnv.mix(static_cast<std::uint64_t>(f.port));
    fnv.mix(static_cast<std::uint64_t>(f.size));
  }
  return fnv.h;
}

}  // namespace mvpn::backbone
