#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "net/inline_vec.hpp"
#include "routing/control_plane.hpp"
#include "routing/link_state.hpp"

namespace mvpn::routing {

/// Link-state interior gateway protocol (OSPF-like) with traffic-
/// engineering extensions, running across the provider routers (PEs + Ps).
///
/// Mechanics modeled:
///  * each participating router originates a router LSA describing its
///    adjacencies (cost, capacity, reservable bandwidth) and floods it;
///  * receivers install strictly-newer LSAs, re-flood to other neighbors,
///    and schedule an SPF run after a hold-down delay;
///  * SPF builds each router's next-hop table toward every other router;
///  * the TE database tracks per-link-direction bandwidth reservations
///    (fed by RSVP-TE) and re-advertises reservable bandwidth, which CSPF
///    constrains on (the paper's §3.1/§5 traffic-engineering machinery).
///
/// SPF is incremental by default (INTERNALS.md §15): each LSA install is
/// diffed against the previous copy of that origin's LSA. TE-only changes
/// (reservable/capacity) patch the database without scheduling SPF at all;
/// cost/adjacency changes accumulate in a per-router dirty-edge list that
/// the next run classifies against the stored shortest-path solution —
/// provably non-affecting changes skip the run, decrease-only changes
/// re-run Dijkstra seeded from the affected region, and anything touching
/// the current shortest-path DAG falls back to a full rebuild. Cold
/// convergence always runs the full rebuild, so a fixture built directly at
/// a network's final costs is the reference an incremental history must
/// reproduce.
class Igp {
 public:
  struct NextHopEntry {
    ip::NodeId via = ip::kInvalidNode;
    ip::IfIndex iface = ip::kInvalidIf;
    std::uint32_t cost = 0;
  };

  /// Per-router SPF work accounting.
  struct SpfCounters {
    std::uint64_t full = 0;         ///< full Dijkstra rebuilds
    std::uint64_t incremental = 0;  ///< seeded partial runs
    std::uint64_t skipped = 0;      ///< scheduled runs proven no-ops
  };

  explicit Igp(ControlPlane& cp);

  /// Enroll a router; call before start().
  void add_router(ip::NodeId router);
  [[nodiscard]] bool is_member(ip::NodeId router) const;
  [[nodiscard]] const std::vector<ip::NodeId>& members() const noexcept {
    return members_;
  }

  /// Originate and flood the initial LSAs; SPFs follow automatically.
  void start();

  /// Notify that `link`'s state changed (failure/restore/TE update): both
  /// endpoints re-originate and flood.
  void notify_link_change(net::LinkId link);

  /// --- TE reservation database -----------------------------------------
  /// Reserve `bps` on the direction of `link` leaving `from`. Fails when
  /// reservable bandwidth is insufficient. On success, re-advertises.
  bool te_reserve(ip::NodeId from, net::LinkId link, double bps);
  void te_release(ip::NodeId from, net::LinkId link, double bps);
  [[nodiscard]] double te_reserved(ip::NodeId from, net::LinkId link) const;
  [[nodiscard]] double te_reservable(ip::NodeId from, net::LinkId link) const;
  /// Fraction of link capacity open to reservations (default 1.0).
  void set_te_subscription_factor(double f) noexcept { te_factor_ = f; }

  /// --- per-router queries (answered from that router's own LSDB) -------
  /// Primary next hop (lowest neighbor id among equal-cost candidates).
  [[nodiscard]] const NextHopEntry* next_hop(ip::NodeId router,
                                             ip::NodeId dest) const;
  /// All equal-cost next hops (ECMP set), sorted by neighbor id.
  [[nodiscard]] std::vector<NextHopEntry> next_hops_ecmp(
      ip::NodeId router, ip::NodeId dest) const;
  [[nodiscard]] ComputedPath path(ip::NodeId router, ip::NodeId dest) const;
  /// Constrained SPF for TE LSP placement.
  [[nodiscard]] ComputedPath cspf(ip::NodeId router, ip::NodeId dest,
                                  double bandwidth_bps,
                                  const std::vector<net::LinkId>& excluded =
                                      {}) const;
  [[nodiscard]] const LinkStateDb& lsdb(ip::NodeId router) const;

  /// True when every member's LSDB holds every member's newest LSA.
  [[nodiscard]] bool synchronized() const;
  /// Time of the last SPF run anywhere (convergence instant measurement).
  [[nodiscard]] sim::SimTime last_spf_at() const noexcept {
    return last_spf_at_;
  }
  /// Executed SPF runs (full + incremental; skipped no-ops not included).
  [[nodiscard]] std::uint64_t spf_runs() const noexcept { return spf_runs_; }
  [[nodiscard]] std::uint64_t spf_full_runs() const noexcept {
    return spf_full_runs_;
  }
  [[nodiscard]] std::uint64_t spf_incremental_runs() const noexcept {
    return spf_incremental_runs_;
  }
  /// Scheduled runs whose dirty set was proven not to change any path.
  [[nodiscard]] std::uint64_t spf_skipped() const noexcept {
    return spf_skipped_;
  }
  /// LSA installs (TE attribute refreshes) that never scheduled SPF.
  [[nodiscard]] std::uint64_t te_only_installs() const noexcept {
    return te_only_installs_;
  }
  /// Edge relaxations across all runs — the SPF-work metric the churn
  /// bench reports.
  [[nodiscard]] std::uint64_t edges_relaxed() const noexcept {
    return edges_relaxed_;
  }
  [[nodiscard]] SpfCounters router_spf_counters(ip::NodeId router) const;

  /// Subscribe to SPF completion at a router (LDP and the routers' FIB
  /// sync hook in from here).
  void on_spf(std::function<void(ip::NodeId router)> cb) {
    spf_callbacks_.push_back(std::move(cb));
  }

  void set_spf_delay(sim::SimTime d) noexcept { spf_delay_ = d; }

 private:
  /// Cost marker for an edge absent on one side of a diff.
  static constexpr std::uint32_t kInfCost = 0xFFFFFFFFu;

  /// Equal-cost predecessors of one node, ascending. Two inline slots
  /// cover the usual ECMP fan-in, so a first fill allocates nothing.
  using ParentSet = net::InlineVec<ip::NodeId, 2>;

  /// One adjacency change between two copies of an origin's LSA.
  struct DirtyEdge {
    ip::NodeId u = ip::kInvalidNode;  ///< LSA origin
    ip::NodeId v = ip::kInvalidNode;  ///< neighbor
    std::uint32_t old_cost = kInfCost;
    std::uint32_t new_cost = kInfCost;
  };

  /// Everything one member router knows and computed, in node-indexed
  /// vectors (node ids are dense; INTERNALS.md §15).
  struct RouterState {
    bool active = false;
    LinkStateDb lsdb;
    /// ECMP next-hop sets, back to back: destination d's set is
    /// `hops[hop_first[d], hop_last[d])`, ascending by neighbor id (the
    /// first is primary) and empty when d is unreachable. Every rebuild
    /// reuses the three vectors' storage.
    std::vector<NextHopEntry> hops;
    std::vector<std::uint32_t> hop_first;
    std::vector<std::uint32_t> hop_last;
    bool spf_scheduled = false;
    std::uint32_t lsa_seq = 0;

    /// --- incremental-SPF state (INTERNALS.md §15) ----------------------
    /// Shortest-path solution of the last executed run, per node id:
    /// distance (kInfCost when unreached) and the equal-cost predecessor
    /// set, ascending.
    std::vector<std::uint32_t> best;
    std::vector<ParentSet> parents;
    bool spf_valid = false;   ///< best/parents reflect some prior run
    std::vector<DirtyEdge> dirty;  ///< graph changes since that run
    bool dirty_full = false;  ///< a brand-new origin appeared: no diff base
    SpfCounters spf;
  };

  RouterState& state(ip::NodeId router);
  const RouterState& state(ip::NodeId router) const;
  std::shared_ptr<const Lsa> build_lsa(ip::NodeId router);
  void originate_and_flood(ip::NodeId router);
  void flood(ip::NodeId at, const std::shared_ptr<const Lsa>& lsa,
             ip::NodeId except);
  void receive_lsa(ip::NodeId at, const std::shared_ptr<const Lsa>& lsa,
                   ip::NodeId from);
  /// Install `lsa` into `st`, recording adjacency diffs vs the previous
  /// copy. Returns false when not newer (flood stops); sets `*spf_needed`
  /// when the change can alter shortest paths.
  bool install_classified(RouterState& st,
                          const std::shared_ptr<const Lsa>& lsa,
                          bool* spf_needed);
  void schedule_spf(ip::NodeId router);
  void run_spf(ip::NodeId router);
  /// Classify the dirty set against the stored solution: fill `seeds` with
  /// re-relaxation start nodes for affecting decreases (ascending, no
  /// duplicates) and flag whether any increase touches the current
  /// shortest-path DAG.
  void classify_dirty(const RouterState& st,
                      const std::vector<DirtyEdge>& dirty,
                      std::vector<ip::NodeId>* seeds,
                      bool* increase_affected) const;
  /// The Dijkstra loop of both runs: settle from `seeds` (at their stored
  /// distances) in (cost, node) order, relaxing two-way links and keeping
  /// every equal-cost parent; `complete_parents` adds the incremental
  /// run's reverse-parent completion.
  void dijkstra(RouterState& st, std::span<const ip::NodeId> seeds,
                bool complete_parents);
  void full_spf_run(ip::NodeId router, RouterState& st);
  void incremental_spf_run(RouterState& st,
                           const std::vector<ip::NodeId>& seeds);
  void rebuild_next_hops(ip::NodeId router, RouterState& st);
  /// `router`'s ECMP set toward `dest` (empty when unreachable).
  [[nodiscard]] std::span<const NextHopEntry> hop_set(
      const RouterState& st, ip::NodeId dest) const noexcept;

  ControlPlane& cp_;
  std::vector<ip::NodeId> members_;
  std::vector<RouterState> routers_;  ///< by node id
  std::map<std::pair<net::LinkId, ip::NodeId>, double> te_reserved_;
  double te_factor_ = 1.0;
  sim::SimTime spf_delay_ = 30 * sim::kMillisecond;
  sim::SimTime last_spf_at_ = 0;
  std::uint64_t spf_runs_ = 0;
  std::uint64_t spf_full_runs_ = 0;
  std::uint64_t spf_incremental_runs_ = 0;
  std::uint64_t spf_skipped_ = 0;
  std::uint64_t te_only_installs_ = 0;
  std::uint64_t edges_relaxed_ = 0;
  std::vector<std::function<void(ip::NodeId)>> spf_callbacks_;
  /// Scratch kept for its storage: dijkstra's candidate heap and
  /// rebuild_next_hops' settle order, both (cost << 32) | node keys.
  std::vector<std::uint64_t> spf_queue_;
  std::vector<std::uint64_t> settle_order_;
};

}  // namespace mvpn::routing
