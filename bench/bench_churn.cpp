// PR10 — control-plane fastpath under route churn (paper §2.1/§4 at the
// million-route end of the curve).
//
// Claims under test:
//  * packed MP-BGP update groups converge a 64-PE route-reflector cold
//    boot, a same-tick flap storm and a mid-convergence RR failure to the
//    Loc-RIBs recorded in tests/golden/loc_rib.txt, using no more session
//    messages than recorded there;
//  * the compact Adj-RIB-In holds a 10^5-route cold boot inside a fixed
//    byte-per-route budget;
//  * same-tick withdraw+re-advertise storms are damped inside the flush
//    window (the flap never reaches the wire);
//  * a single-link cost flap triggers no full SPF rebuild at any router
//    whose routing was not affected, and the incremental result matches a
//    fresh network built at the final costs and converged cold.
//
// Every claim is deterministic (message counts, fingerprints and RIB byte
// accounting are functions of the event sequence, not the wall clock), so
// the binary exits 1 when any of them fails and runs as a ctest.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "golden.hpp"
#include "net/topology.hpp"
#include "routing/bgp.hpp"
#include "routing/control_plane.hpp"
#include "routing/igp.hpp"
#include "stats/table.hpp"
#include "vpn/router.hpp"

namespace {

using namespace mvpn;
using vpn::Role;
using vpn::Router;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size in kB (VmHWM from /proc/self/status); 0 where
/// unavailable. Monotone over the process's life — the big phase reads it
/// right after its run.
std::uint64_t vmhwm_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// A phase's Loc-RIB fingerprint and session-message count against its
/// row in tests/golden/loc_rib.txt.
struct GoldenCheck {
  std::string fingerprint;
  std::uint64_t messages = 0;
  bool matches = false;         ///< fingerprint equals the golden one
  bool within_ceiling = false;  ///< messages <= the golden count
};

GoldenCheck check_golden(const char* key, const std::string& fingerprint,
                         std::uint64_t messages) {
  const std::vector<std::string> row = golden::row("loc_rib.txt", key);
  GoldenCheck g;
  g.fingerprint = fingerprint;
  g.messages = messages;
  if (row.size() >= 2) {
    g.matches = row[0] == fingerprint;
    g.within_ceiling = messages <= std::stoull(row[1]);
  } else {
    std::fprintf(stderr, "no golden row %s in loc_rib.txt\n", key);
  }
  return g;
}

// ---------------------------------------------------------------------------
// BGP fabric: PE speakers + route reflectors on a bare topology (iBGP
// sessions need no links). Every phase compares its final Loc-RIB
// fingerprint with the checked-in golden one.

struct BgpFabric {
  net::Topology topo;
  routing::ControlPlane cp{topo};
  routing::Bgp bgp;
  std::vector<ip::NodeId> pes;
  std::vector<ip::NodeId> rrs;

  BgpFabric(std::size_t pe_count, std::size_t rr_count)
      : bgp(cp, rr_count > 0 ? routing::Bgp::Mode::kRouteReflector
                             : routing::Bgp::Mode::kFullMesh) {
    for (std::size_t i = 0; i < pe_count; ++i) {
      auto& r = topo.add_node<Router>("pe" + std::to_string(i), Role::kPe);
      pes.push_back(r.id());
      bgp.add_speaker(r.id());
    }
    for (std::size_t i = 0; i < rr_count; ++i) {
      auto& r = topo.add_node<Router>("rr" + std::to_string(i), Role::kPe);
      rrs.push_back(r.id());
      bgp.add_route_reflector(r.id());
    }
    for (ip::NodeId pe : pes) {
      bgp.set_membership(pe, {routing::RouteTarget{65000, 1}});
    }
    bgp.start();
  }

  routing::VpnRoute route(std::size_t pe_index, std::uint32_t seq) const {
    routing::VpnRoute r;
    r.rd = routing::RouteDistinguisher{
        65000, static_cast<std::uint32_t>(pe_index) * 1000000u + seq};
    r.prefix = ip::Prefix(
        ip::Ipv4Address(10, std::uint8_t(1 + pe_index % 200),
                        std::uint8_t(seq / 250 % 250),
                        std::uint8_t(seq % 250)),
        24);
    r.next_hop = ip::Ipv4Address(10, 255, 0, std::uint8_t(pe_index));
    r.next_hop_node = pes[pe_index];
    r.vpn_label = static_cast<std::uint32_t>(1000 + seq);
    r.route_targets.push_back(routing::RouteTarget{65000, 1});
    return r;
  }

  void originate_all(std::uint32_t routes_per_pe) {
    for (std::size_t p = 0; p < pes.size(); ++p) {
      for (std::uint32_t i = 0; i < routes_per_pe; ++i) {
        bgp.originate(pes[p], route(p, i));
      }
    }
  }

  /// FNV over every speaker's Loc-RIB in deterministic (node, key) order —
  /// the route-selection witness the goldens record.
  std::string fingerprint() const {
    golden::Fnv f;
    auto all = pes;
    all.insert(all.end(), rrs.begin(), rrs.end());
    for (ip::NodeId n : all) golden::mix_loc_rib(f, n, bgp.loc_rib(n));
    return f.hex();
  }
};

struct ColdBootRun {
  double wall_s = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::string fingerprint;
  std::size_t routes_per_speaker = 0;
  std::size_t rib_bytes = 0;
  std::size_t rib_routes = 0;
};

ColdBootRun cold_boot(std::size_t pe_count, std::size_t rr_count,
                      std::uint32_t routes_per_pe) {
  BgpFabric f(pe_count, rr_count);
  const std::uint64_t ev0 = f.topo.base_scheduler().executed_count();
  const double t0 = wall_now();
  f.originate_all(routes_per_pe);
  f.topo.scheduler().run();
  ColdBootRun r;
  r.wall_s = wall_now() - t0;
  r.messages = f.cp.total_messages();
  r.bytes = f.cp.total_bytes();
  r.events = f.topo.base_scheduler().executed_count() - ev0;
  r.fingerprint = f.fingerprint();
  r.routes_per_speaker = f.bgp.loc_rib_size(f.pes[0]);
  r.rib_bytes = f.bgp.adj_rib_bytes();
  r.rib_routes = f.bgp.adj_rib_routes();
  return r;
}

struct FlapRun {
  std::uint64_t messages = 0;
  std::uint64_t superseded = 0;
  std::string fingerprint;
};

/// Same-tick withdraw + re-advertise storms: every cycle, every PE flaps
/// its first `flap_count` routes inside one flush window.
FlapRun flap_storm(std::size_t pe_count, std::size_t rr_count,
                   std::uint32_t routes_per_pe, std::uint32_t flap_count,
                   std::uint32_t cycles) {
  BgpFabric f(pe_count, rr_count);
  f.originate_all(routes_per_pe);
  f.topo.scheduler().run();
  const std::uint64_t settled = f.cp.total_messages();
  for (std::uint32_t c = 1; c <= cycles; ++c) {
    for (std::size_t p = 0; p < f.pes.size(); ++p) {
      for (std::uint32_t i = 0; i < flap_count; ++i) {
        routing::VpnRoute r = f.route(p, i);
        f.bgp.withdraw(f.pes[p], r.rd, r.prefix);
        r.vpn_label += 10000 * c;  // the replacement differs each cycle
        f.bgp.originate(f.pes[p], r);
      }
    }
    f.topo.scheduler().run();
  }
  FlapRun r;
  r.messages = f.cp.total_messages() - settled;
  r.superseded = f.bgp.rib_out().superseded();
  r.fingerprint = f.fingerprint();
  return r;
}

struct FailoverRun {
  std::uint64_t messages = 0;
  std::string fingerprint;
  std::size_t routes_at_client = 0;
};

/// Kill one of two RRs while its reflected updates are still in flight
/// (between the 5 ms first-hop and 10 ms reflected-hop delivery instants).
FailoverRun rr_failover(std::size_t pe_count, std::uint32_t routes_per_pe) {
  BgpFabric f(pe_count, 2);
  f.originate_all(routes_per_pe);
  f.topo.run_until(7 * sim::kMillisecond);
  f.bgp.fail_speaker(f.rrs[0]);
  f.topo.scheduler().run();
  FailoverRun r;
  r.messages = f.cp.total_messages();
  r.fingerprint = f.fingerprint();
  r.routes_at_client = f.bgp.loc_rib_size(f.pes[0]);
  return r;
}

// ---------------------------------------------------------------------------
// SPF flap phase: ring + chord topology, single-link cost flaps.

struct SpfFixture {
  net::Topology topo;
  routing::ControlPlane cp{topo};
  routing::Igp igp{cp};
  std::vector<ip::NodeId> routers;
  net::LinkId chord = net::kInvalidLink;

  /// Even-cost ring with one odd-cost chord (0 <-> R/2): parity keeps
  /// chord-using and ring-only paths from ever tying, so "routing
  /// unchanged" is detectable purely from next-hop/cost fingerprints.
  SpfFixture(std::size_t count, std::uint32_t chord_cost) {
    for (std::size_t i = 0; i < count; ++i) {
      auto& r = topo.add_node<Router>("r" + std::to_string(i), Role::kP);
      routers.push_back(r.id());
      igp.add_router(r.id());
    }
    net::LinkConfig ring;
    ring.igp_cost = 2;
    for (std::size_t i = 0; i < count; ++i) {
      topo.connect(routers[i], routers[(i + 1) % count], ring);
    }
    net::LinkConfig cc;
    cc.igp_cost = chord_cost;
    chord = topo.connect(routers[0], routers[count / 2], cc);
    igp.start();
    topo.scheduler().run();
  }

  void flap_chord(std::uint32_t cost) {
    topo.link(chord).set_igp_cost(cost);
    igp.notify_link_change(chord);
    topo.scheduler().run();
  }

  std::uint64_t router_fingerprint(ip::NodeId r) const {
    golden::Fnv f;
    for (ip::NodeId d : routers) {
      if (d == r) continue;
      for (const auto& nh : igp.next_hops_ecmp(r, d)) {
        f.mix(d);
        f.mix(nh.via);
        f.mix(nh.cost);
      }
    }
    return f.h;
  }

  std::vector<std::uint64_t> fingerprints() const {
    std::vector<std::uint64_t> fp;
    for (ip::NodeId r : routers) fp.push_back(router_fingerprint(r));
    return fp;
  }
};

struct SpfResult {
  std::size_t routers = 0;
  /// Flapped next hops == a cold-converged network at the same costs,
  /// after every flap.
  bool identical = true;
  std::uint64_t unaffected_full_runs = 0;
  std::uint64_t incremental_runs = 0;
  std::uint64_t skipped = 0;
  std::uint64_t full_runs_incremental_mode = 0;
  std::uint64_t edges_relaxed_incremental = 0;
};

SpfResult spf_flap_phase(std::size_t count) {
  // Chord starts useless (49 > the worst ring distance of 48), drops to 5
  // (shortcut for roughly half the pairs), then snaps back.
  SpfFixture inc(count, 51);

  SpfResult res;
  res.routers = count;

  // Post-convergence baselines: the flap deltas are what we judge.
  const std::uint64_t er_inc0 = inc.igp.edges_relaxed();
  std::vector<routing::Igp::SpfCounters> base;
  for (ip::NodeId r : inc.routers) {
    base.push_back(inc.igp.router_spf_counters(r));
  }
  const std::vector<std::uint64_t> fp0 = inc.fingerprints();

  std::vector<bool> ever_changed(count, false);
  for (std::uint32_t cost : {49u, 5u, 49u}) {
    inc.flap_chord(cost);
    // The reference: the same ring built at the flapped cost and
    // converged cold, which runs only full rebuilds.
    const SpfFixture cold(count, cost);
    const auto fi = inc.fingerprints();
    const auto ff = cold.fingerprints();
    for (std::size_t i = 0; i < count; ++i) {
      if (fi[i] != ff[i]) res.identical = false;
      if (fi[i] != fp0[i]) ever_changed[i] = true;
    }
  }

  for (std::size_t i = 0; i < count; ++i) {
    const auto after = inc.igp.router_spf_counters(inc.routers[i]);
    const std::uint64_t full_delta = after.full - base[i].full;
    if (!ever_changed[i]) res.unaffected_full_runs += full_delta;
    res.incremental_runs += after.incremental - base[i].incremental;
    res.skipped += after.skipped - base[i].skipped;
    res.full_runs_incremental_mode += full_delta;
  }
  res.edges_relaxed_incremental = inc.igp.edges_relaxed() - er_inc0;
  return res;
}

}  // namespace

int main() {
  std::printf(
      "PR10 — control-plane churn: packed update groups, compact RIB, "
      "incremental SPF\n\n");
  auto yes = [](bool b) { return b ? "yes" : "NO"; };

  // ---- phase 1: 64-PE cold boot against the golden Loc-RIBs ---------------
  const std::size_t kPes = 64;
  const std::uint32_t kRoutes = 48;
  const ColdBootRun cold = cold_boot(kPes, 2, kRoutes);
  const GoldenCheck cold_g =
      check_golden("churn_cold_boot", cold.fingerprint, cold.messages);
  {
    stats::Table t{"session msgs", "wire bytes", "sched events", "wall s",
                   "loc-rib fp"};
    t.add_row({stats::Table::num(cold.messages), stats::Table::num(cold.bytes),
               stats::Table::num(cold.events),
               stats::Table::num(cold.wall_s, 3), cold.fingerprint});
    std::printf("E12a — cold boot, %zu PEs + 2 RRs, %u routes/PE:\n%s\n",
                kPes, kRoutes, t.render().c_str());
    std::printf("golden Loc-RIBs: %s; session msgs within golden ceiling: "
                "%s\n\n",
                yes(cold_g.matches), yes(cold_g.within_ceiling));
  }

  // ---- phase 2: 10^5-route cold boot + footprint --------------------------
  const ColdBootRun big = cold_boot(8, 1, 12500);
  const double b_per_route =
      big.rib_routes ? double(big.rib_bytes) / double(big.rib_routes) : 0.0;
  const std::uint64_t hwm_mb = vmhwm_kb() / 1024;
  std::printf(
      "E12b — cold boot, 8 PEs + 1 RR, 100000 routes:\n"
      "  wall %.2fs, %llu session msgs, %llu events, "
      "%zu routes/speaker (want 100000), adj-rib %.1f B/route (budget 96), "
      "VmHWM %llu MB\n\n",
      big.wall_s, static_cast<unsigned long long>(big.messages),
      static_cast<unsigned long long>(big.events), big.routes_per_speaker,
      b_per_route, static_cast<unsigned long long>(hwm_mb));
  const bool big_converged = big.routes_per_speaker == 100000;

  // ---- phase 3: same-tick flap storm --------------------------------------
  const FlapRun storm = flap_storm(16, 2, 32, 8, 10);
  const GoldenCheck storm_g =
      check_golden("churn_flap_storm", storm.fingerprint, storm.messages);
  std::printf(
      "E12c — flap storm (16 PEs, 10 cycles x 8 same-tick withdraw+replace "
      "per PE):\n  %llu msgs, %llu flaps damped in the flush window (want "
      "> 0), golden Loc-RIBs: %s, msgs within golden ceiling: %s\n\n",
      static_cast<unsigned long long>(storm.messages),
      static_cast<unsigned long long>(storm.superseded), yes(storm_g.matches),
      yes(storm_g.within_ceiling));

  // ---- phase 4: RR failover mid-convergence -------------------------------
  const FailoverRun fo = rr_failover(16, 64);
  const GoldenCheck fo_g =
      check_golden("churn_rr_failover", fo.fingerprint, fo.messages);
  std::printf(
      "E12d — RR failover at t=7ms (reflections in flight): %llu msgs, "
      "golden final state: %s (%zu routes at a surviving client), msgs "
      "within golden ceiling: %s\n\n",
      static_cast<unsigned long long>(fo.messages), yes(fo_g.matches),
      fo.routes_at_client, yes(fo_g.within_ceiling));

  // ---- phase 5: single-link cost flap, incremental vs cold reference ------
  const SpfResult spf = spf_flap_phase(48);
  std::printf(
      "E12e — 48-router ring+chord, chord cost 51->49->5->49:\n"
      "  incremental == cold-converged next hops: %s\n"
      "  full rebuilds at routing-unaffected routers: %llu (want 0)\n"
      "  incremental runs %llu, proven no-op skips %llu, full rebuilds "
      "%llu, edges relaxed %llu\n\n",
      yes(spf.identical),
      static_cast<unsigned long long>(spf.unaffected_full_runs),
      static_cast<unsigned long long>(spf.incremental_runs),
      static_cast<unsigned long long>(spf.skipped),
      static_cast<unsigned long long>(spf.full_runs_incremental_mode),
      static_cast<unsigned long long>(spf.edges_relaxed_incremental));

  const bool ok = cold_g.matches && cold_g.within_ceiling && big_converged &&
                  storm_g.matches && storm_g.within_ceiling && fo_g.matches &&
                  fo_g.within_ceiling && spf.identical &&
                  spf.unaffected_full_runs == 0 && storm.superseded > 0 &&
                  b_per_route <= 96.0;
  if (!ok) {
    std::fprintf(stderr, "CHURN PHASE FAILURES — see above\n");
    return 1;
  }
  return 0;
}
