#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "backbone/fixtures.hpp"
#include "ip/address.hpp"
#include "qos/dscp.hpp"

namespace mvpn::backbone {

/// Parameters of a generated ISP-scale provider network. Everything the
/// generator emits is a pure function of this struct, so two hosts (or two
/// runs) handed the same parameters build byte-identical scenarios — the
/// determinism tests hash the expanded plan to prove it.
///
/// The shape follows the paper's deployment sketch scaled up: a chorded
/// ring of P routers (the "ladder" — ring plus cross-links at half the
/// circumference, giving diameter ~p/4 instead of ~p/2), PEs dual-homed
/// onto consecutive P routers, and `ce` enterprise sites hanging off every
/// PE. PEs are grouped into pods of `pod` PEs; each pod carries one VPN,
/// so VRF/RT allocation exercises `pods` distinct RD/RT values and flows
/// stay intra-pod (intra-VPN), the way enterprise traffic does.
struct TopogenParams {
  std::size_t p = 16;     ///< core P routers (chorded ring)
  std::size_t pe = 64;    ///< PE routers, dual-homed, grouped into pods
  std::size_t ce = 2;     ///< CE sites per PE
  std::size_t pod = 8;    ///< PEs per pod == per VPN
  std::size_t flows = 20000;  ///< concurrent unidirectional flows
  double core_bw_bps = 622e6;   ///< OC-12-class trunks
  double edge_bw_bps = 100e6;   ///< PE-CE access circuits
  double rate_bps = 96e3;       ///< per-flow offered rate
  std::size_t size = 472;       ///< payload bytes (non-EF flows)
  std::uint64_t seed = 1;
};

/// Strict numeric parsing shared by the scenario and topogen front ends:
/// the whole token must parse. to_size also rejects negative, non-finite
/// and out-of-range values instead of casting them.
bool to_double(const std::string& s, double& out);
bool to_size(const std::string& s, std::size_t& out);

/// Largest flow payload a scenario may declare: an IPv4 datagram's 65535
/// bytes less the 20-byte IP and 8-byte L4 headers.
inline constexpr std::size_t kMaxPayloadBytes = 65507;
/// Slowest flow rate a scenario may declare, in b/s: one maximum-size
/// packet every ~6 simulated days, far inside the tick range.
inline constexpr double kMinFlowRateBps = 1.0;
/// Longest duration (for=, start=, on=, off=) a scenario may declare, in
/// seconds; exponential draws around it stay inside the tick range.
inline constexpr double kMaxScenarioSeconds = 1e6;

/// Apply one "key=value" pair to `params`. Returns false (and leaves
/// `params` untouched) for an unknown key or unparsable value; shared by
/// the scenario directive and the run_scenario --topogen spec string.
bool apply_topogen_param(TopogenParams& params, const std::string& key,
                         const std::string& value);

/// Parse a whole spec string of whitespace-separated key=value pairs
/// ("p=16 pe=64 ce=2 flows=20000"). On failure returns false and names the
/// offending token in `error`.
bool parse_topogen_spec(const std::string& spec, TopogenParams& params,
                        std::string* error);

/// One generated enterprise site: `vpn` indexes GeneratedPlan::vpns, `pe`
/// the backbone's PE array; the /24 prefix is unique across the plan.
struct PlanSite {
  std::size_t vpn = 0;
  std::size_t pe = 0;
  ip::Prefix prefix;
};

/// One generated flow between two sites of the same pod/VPN.
///
/// `rate_bps` carries a per-flow ±10% perturbation of the nominal rate and
/// `start_s` a random phase offset in [0, 100ms): with a shared start
/// instant and identical rates, every same-class CBR/on-off source emits in
/// nanosecond lockstep, and simultaneous same-size arrivals at a shared
/// FIFO are ordered differently (each deterministically) by the serial and
/// sharded engines — the class-level latency multiset is preserved but
/// per-flow jitter swaps, breaking serial-vs-sharded byte identity. The
/// perturbation makes emission instants distinct reals, so ties never
/// arise and identity holds by construction (as it does for hand-written
/// scenarios, whose flows differ in rate/kind).
struct PlanFlow {
  std::string kind;  ///< cbr | poisson | onoff
  std::size_t from = 0, to = 0;  ///< site indices
  double rate_bps = 0;
  double start_s = 0;  ///< emission start offset from traffic start
  qos::Phb phb = qos::Phb::kBe;
  std::uint16_t port = 20000;
  std::size_t size = 472;
};

/// The fully expanded plan: a BackboneConfig plus site and flow lists in
/// exactly the shape Scenario's declaration vectors take, so the scenario
/// layer splices a generated topology in and reuses its entire build/run
/// path (convergence, QoS, sharding, observability) unchanged.
struct GeneratedPlan {
  TopogenParams params;
  BackboneConfig backbone;
  std::vector<std::string> vpns;  ///< one per pod: "pod0", "pod1", ...
  std::vector<PlanSite> sites;
  std::vector<PlanFlow> flows;

  /// FNV-1a over every field that shapes the built network. Two plans with
  /// equal hashes are identical site-for-site and flow-for-flow; the
  /// determinism test compares hashes from independently generated plans.
  [[nodiscard]] std::uint64_t hash() const;
};

/// Expand `params` into a concrete plan. Throws std::invalid_argument on
/// shapes that cannot host flows (no PEs, fewer than two sites in a pod).
[[nodiscard]] GeneratedPlan generate_plan(const TopogenParams& params);

}  // namespace mvpn::backbone
