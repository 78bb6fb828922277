#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backbone/fixtures.hpp"
#include "backbone/topogen.hpp"
#include "traffic/sink.hpp"

namespace mvpn::backbone {

/// Line-oriented scenario description language, so experiments can be run
/// from a text file instead of C++ ('#' starts a comment):
///
///   backbone p=2 pe=2 core_bw=4e6 edge_bw=20e6 seed=7 bgp=mesh
///            core_queue=wfq:8,3,1          # fifo | prio | wfq:w,... |
///                                          # drr:w,... | red[:min,max,maxp]
///
/// Or, instead of hand-written backbone/vpn/site/flow lines, a generated
/// ISP-scale topology (see backbone/topogen.hpp for the parameters):
///
///   topology generated p=64 pe=256 ce=4 flows=200000 seed=3
///   vpn corp
///   extranet corp partner                  # corp imports partner's routes
///   site corp pe=0 prefix=10.1.0.0/16      # site index = declaration order
///   site corp pe=1 prefix=10.2.0.0/16
///   classify site=0 dstport=16384-16484 class=EF
///   police  site=0 class=EF cir=62500 cbs=4000 ebs=4000   # bytes/s, bytes
///   shape   site=0 class=AF11 rate=125000 burst=3000    # bytes/s, bytes
///   flow cbr     vpn=corp from=0 to=1 rate=200e3 class=EF port=16400 size=172
///   flow poisson vpn=corp from=0 to=1 rate=1e6 size=1472
///   flow onoff   vpn=corp from=0 to=1 rate=2e6 on=0.3 off=0.2 class=AF21 port=5004
///   flow tcp     vpn=corp from=0 to=1 class=BE port=80 size=1432   # greedy elastic
///   run for=5 shards=4 flowcache=off       # seconds of traffic (+2 s drain);
///                                          # shards>1 = parallel engine;
///                                          # flowcache=off: slow path only
///
/// Each directive accepts only the keys shown; an unknown key is a parse
/// error that names it. Counts (p=, pe=, seed=, ...) must be finite,
/// non-negative and in range (p=, pe=, rr= and the generated topology's
/// p=, pe=, ce=, pod=, flows= at most the kMax* caps in
/// backbone/topogen.hpp); core_bw=, edge_bw=, rate=, on=, off=, cir=,
/// cbs=, ebs= and burst= must be finite and > 0 (a flow rate= at least
/// 1 b/s); durations (for=, start=, on=, off=) at most 1e6 s; size= at
/// most 65507 bytes. core_queue= wfq weights must be finite and > 0, drr
/// weights integers in [1, 2^32), and red needs 0 <= min < max and
/// 0 < maxp <= 1.
///
/// Flows start when the control plane has converged — together by default,
/// or offset by `start=SECONDS` on a flow line (generated topologies set
/// per-flow offsets to keep same-class sources out of nanosecond lockstep;
/// see PlanFlow in backbone/topogen.hpp). Source and destination hosts are
/// derived from the sites' prefixes.
struct ScenarioError {
  std::size_t line = 0;
  std::string message;
};

/// Parsed scenario, buildable into a live MplsBackbone.
class Scenario {
 public:
  /// Parse; on failure returns nullopt and fills `error`.
  static std::optional<Scenario> parse(const std::string& text,
                                       ScenarioError* error);

  /// Build the network, run the traffic, and print the SLA report (and
  /// isolation accounting) to `out`. Returns false if any isolation
  /// violation was observed, or — after one line naming the path, before
  /// anything is built — if the obs directory or one of its files cannot
  /// be written.
  bool run(std::ostream& out) const;

  /// Write the next run()'s observability artefacts into `dir` (created if
  /// missing). Empty (the default) arms nothing: the run costs nothing
  /// extra. Non-empty arms every plane — flight recorder, latency anatomy,
  /// sync profiler, flow accounting, metrics — and always writes the same
  /// files; stdout is the SLA report either way:
  ///
  ///   trace.json events.jsonl spans.json trace.txt    flight recorder
  ///   metrics.json engine_metrics.json                snapshot series
  ///   latency.json latency.txt                        per-hop delay anatomy
  ///   sync.json sync.txt                              epoch sync profile
  ///   flow.jsonl flow.bin flow.txt                    per-flow records
  ///   partition.txt                                   shard plan
  ///
  /// metrics.json holds result gauges only, byte-identical at every shard
  /// count; engine_metrics.json holds the engine, sync, flow-exporter and
  /// control-plane gauges, which describe how the run did its work.
  void set_obs_dir(std::string dir) { obs_dir_ = std::move(dir); }

  /// Partition the topology into `n` shards and run the traffic phase on
  /// the parallel engine (1 = serial, the default; also settable from the
  /// scenario file via `run shards=N`). Every flow kind, tcp included,
  /// runs at every shard count; only the report's first line differs.
  void set_shards(std::uint32_t n) { shards_ = n == 0 ? 1 : n; }
  [[nodiscard]] std::uint32_t shards() const noexcept { return shards_; }

  /// Enable/disable the per-router flow fastpath caches for the run (also
  /// settable from the scenario file via `run flowcache=off`). Results are
  /// identical either way — the toggle exists for A/B verification and
  /// benchmarking of the fastpath.
  void set_flowcache(bool on) { flowcache_ = on; }
  [[nodiscard]] bool flowcache() const noexcept { return flowcache_; }

  /// True when the scenario came from a `topology generated` directive.
  [[nodiscard]] bool generated() const noexcept {
    return topogen_.has_value();
  }
  [[nodiscard]] const std::optional<TopogenParams>& topogen() const noexcept {
    return topogen_;
  }

  /// --- introspection (mostly for tests) ---------------------------------
  [[nodiscard]] std::size_t vpn_count() const noexcept {
    return vpns_.size();
  }
  [[nodiscard]] std::size_t site_count() const noexcept {
    return sites_.size();
  }
  [[nodiscard]] std::size_t flow_count() const noexcept {
    return flows_.size();
  }
  [[nodiscard]] double run_seconds() const noexcept { return run_for_s_; }

 private:
  struct Run;  ///< one run()'s state and stages (scenario_config.cpp)

  struct SiteDecl {
    std::string vpn;
    std::size_t pe = 0;
    ip::Prefix prefix;
  };
  struct ClassifyDecl {
    std::size_t site = 0;
    std::uint16_t port_lo = 0;
    std::uint16_t port_hi = 65535;
    qos::Phb phb = qos::Phb::kBe;
  };
  struct PoliceDecl {
    std::size_t site = 0;
    qos::Phb phb = qos::Phb::kBe;
    double cir = 0, cbs = 0, ebs = 0;
  };
  struct ShapeDecl {
    std::size_t site = 0;
    qos::Phb phb = qos::Phb::kBe;
    double rate = 0, burst = 0;
  };
  struct FlowDecl {
    std::string kind;  // cbr | poisson | onoff | tcp
    std::string vpn;
    std::size_t from = 0, to = 0;
    double rate = 1e6;
    double on_s = 0.2, off_s = 0.2;
    qos::Phb phb = qos::Phb::kBe;
    bool premark = false;
    std::uint16_t port = 20000;
    std::size_t size = 472;
    double start_s = 0;  ///< start= : emission begins this long after t0
  };

  BackboneConfig backbone_;
  std::string core_queue_spec_ = "fifo";
  std::vector<std::string> vpns_;
  std::vector<std::pair<std::string, std::string>> extranets_;
  std::vector<SiteDecl> sites_;
  std::vector<ClassifyDecl> classifies_;
  std::vector<PoliceDecl> polices_;
  std::vector<ShapeDecl> shapes_;
  std::vector<FlowDecl> flows_;
  double run_for_s_ = 2.0;
  std::uint32_t shards_ = 1;
  bool flowcache_ = true;
  std::optional<TopogenParams> topogen_;
  std::string obs_dir_;
};

/// Convenience: parse + run from a file path. Returns process-style exit
/// code (0 ok, 1 isolation violation or unwritable `obs_dir`, 2 parse/usage
/// error). `obs_dir` is Scenario::set_obs_dir's; `shards` != 0 overrides
/// the scenario file's `run shards=` setting.
int run_scenario_file(const std::string& path, std::ostream& out,
                      const std::string& obs_dir = {},
                      std::uint32_t shards = 0);

}  // namespace mvpn::backbone
