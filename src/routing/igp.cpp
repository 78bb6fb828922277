#include "routing/igp.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <set>
#include <stdexcept>

namespace mvpn::routing {

namespace {

/// Min-heap candidate shared by the full and incremental Dijkstra runs.
struct Candidate {
  std::uint32_t cost;
  ip::NodeId node;
  bool operator>(const Candidate& o) const noexcept {
    if (cost != o.cost) return cost > o.cost;
    return node > o.node;
  }
};
using CandidateQueue =
    std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>>;

}  // namespace

Igp::Igp(ControlPlane& cp) : cp_(cp) {}

void Igp::add_router(ip::NodeId router) {
  if (routers_[router].active) return;
  routers_[router].active = true;
  members_.push_back(router);
}

bool Igp::is_member(ip::NodeId router) const {
  auto it = routers_.find(router);
  return it != routers_.end() && it->second.active;
}

Igp::RouterState& Igp::state(ip::NodeId router) {
  auto it = routers_.find(router);
  if (it == routers_.end() || !it->second.active) {
    throw std::invalid_argument("Igp: node is not a member router");
  }
  return it->second;
}

const Igp::RouterState& Igp::state(ip::NodeId router) const {
  auto it = routers_.find(router);
  if (it == routers_.end() || !it->second.active) {
    throw std::invalid_argument("Igp: node is not a member router");
  }
  return it->second;
}

void Igp::start() {
  for (ip::NodeId r : members_) originate_and_flood(r);
}

Lsa Igp::build_lsa(ip::NodeId router) {
  RouterState& st = state(router);
  Lsa lsa;
  lsa.origin = router;
  lsa.sequence = ++st.lsa_seq;
  for (const net::Adjacency& adj : cp_.topology().adjacencies(router)) {
    if (!is_member(adj.neighbor)) continue;  // IGP covers provider core only
    const net::Link& link = cp_.topology().link(adj.link);
    LsaLink l;
    l.neighbor = adj.neighbor;
    l.link = adj.link;
    l.cost = link.config().igp_cost;
    l.capacity_bps = link.config().bandwidth_bps;
    l.reservable_bps = te_reservable(router, adj.link);
    lsa.links.push_back(l);
  }
  return lsa;
}

bool Igp::install_classified(RouterState& st, const Lsa& lsa,
                             bool* spf_needed) {
  const Lsa* prev = st.lsdb.find(lsa.origin);
  const bool had_prev = prev != nullptr;
  std::vector<LsaLink> old_links;
  if (had_prev) old_links = prev->links;
  if (!st.lsdb.install(lsa)) return false;  // not newer

  if (!had_prev) {
    // First copy of this origin: no diff base — next run rebuilds fully.
    st.dirty_full = true;
    *spf_needed = true;
    return true;
  }

  // Diff adjacency sets keyed by (neighbor, link). Cost changes and
  // edge add/removals dirty the graph; pure TE attribute refreshes
  // (reservable/capacity) do not alter shortest paths and skip SPF
  // scheduling entirely.
  bool topo_change = false;
  std::map<std::pair<ip::NodeId, net::LinkId>, std::uint32_t> old_cost;
  for (const LsaLink& l : old_links) old_cost[{l.neighbor, l.link}] = l.cost;
  for (const LsaLink& l : lsa.links) {
    auto it = old_cost.find({l.neighbor, l.link});
    if (it == old_cost.end()) {
      st.dirty.push_back({lsa.origin, l.neighbor, kInfCost, l.cost});
      topo_change = true;
    } else {
      if (it->second != l.cost) {
        st.dirty.push_back({lsa.origin, l.neighbor, it->second, l.cost});
        topo_change = true;
      }
      old_cost.erase(it);
    }
  }
  for (const auto& [nl, cost] : old_cost) {
    st.dirty.push_back({lsa.origin, nl.first, cost, kInfCost});
    topo_change = true;
  }
  if (!topo_change) ++te_only_installs_;
  *spf_needed = topo_change;
  return true;
}

void Igp::originate_and_flood(ip::NodeId router) {
  const Lsa lsa = build_lsa(router);
  RouterState& st = state(router);
  bool spf_needed = false;
  if (!install_classified(st, lsa, &spf_needed)) return;
  if (spf_needed) schedule_spf(router);
  flood(router, lsa, ip::kInvalidNode);
}

void Igp::flood(ip::NodeId at, const Lsa& lsa, ip::NodeId except) {
  for (const net::Adjacency& adj : cp_.topology().adjacencies(at)) {
    if (adj.neighbor == except || !is_member(adj.neighbor)) continue;
    const ip::NodeId to = adj.neighbor;
    Lsa copy = lsa;
    cp_.send_adjacent(at, to, "igp.lsa", lsa.wire_bytes(),
                      [this, to, copy = std::move(copy), at] {
                        receive_lsa(to, copy, at);
                      });
  }
}

void Igp::receive_lsa(ip::NodeId at, Lsa lsa, ip::NodeId from) {
  RouterState& st = state(at);
  bool spf_needed = false;
  if (!install_classified(st, lsa, &spf_needed)) return;  // stop the flood
  if (spf_needed) schedule_spf(at);
  flood(at, lsa, from);
}

void Igp::schedule_spf(ip::NodeId router) {
  RouterState& st = state(router);
  if (st.spf_scheduled) return;
  st.spf_scheduled = true;
  cp_.topology().scheduler().schedule_in(spf_delay_,
                                         [this, router] { run_spf(router); });
}

void Igp::classify_dirty(const RouterState& st,
                         const std::vector<DirtyEdge>& dirty,
                         std::set<ip::NodeId>* seeds,
                         bool* increase_affected) const {
  auto dist = [&](ip::NodeId n) {
    auto it = st.best.find(n);
    return it == st.best.end() ? kInfCost : it->second;
  };
  auto is_parent = [&](ip::NodeId child, ip::NodeId parent) {
    auto it = st.parents.find(child);
    return it != st.parents.end() && it->second.count(parent) > 0;
  };
  constexpr std::uint64_t kInf64 = ~std::uint64_t{0};
  for (const DirtyEdge& e : dirty) {
    const std::uint32_t du = dist(e.u);
    const std::uint32_t dv = dist(e.v);
    if (e.new_cost < e.old_cost) {
      // Decrease (or edge add). The incremental-run safety argument needs
      // strictly positive costs; a zero-cost edge bails to a full run.
      if (e.new_cost == 0) {
        *increase_affected = true;
        continue;
      }
      if (du == kInfCost && dv == kInfCost) continue;  // detached island
      const std::uint64_t via_u =
          du == kInfCost ? kInf64 : std::uint64_t{du} + e.new_cost;
      const std::uint64_t via_v =
          dv == kInfCost ? kInf64 : std::uint64_t{dv} + e.new_cost;
      // <= (not <) so a new equal-cost parent still triggers a run — ECMP
      // sets are part of the solution.
      if (via_u <= dv || via_v <= du) {
        if (du != kInfCost) seeds->insert(e.u);
        if (dv != kInfCost) seeds->insert(e.v);
      }
    } else {
      // Increase or removal: affects paths only when the edge lies on the
      // current shortest-path DAG. A full-SPF invariant makes the parent
      // check redundant with the distance equality except for parallel
      // links, where it correctly disambiguates.
      bool on_dag = e.old_cost == 0;  // conservative, mirrors the above
      if (du != kInfCost && dv != kInfCost && e.old_cost != kInfCost) {
        if (std::uint64_t{du} + e.old_cost == dv && is_parent(e.v, e.u)) {
          on_dag = true;
        }
        if (std::uint64_t{dv} + e.old_cost == du && is_parent(e.u, e.v)) {
          on_dag = true;
        }
      }
      if (on_dag) *increase_affected = true;
    }
  }
}

void Igp::full_spf_run(ip::NodeId router, RouterState& st) {
  // Single-source Dijkstra over the router's LSDB with multi-parent
  // bookkeeping: every equal-cost predecessor is retained so the ECMP
  // first-hop set can be derived afterwards.
  std::map<ip::NodeId, std::uint32_t> best;
  std::map<ip::NodeId, std::set<ip::NodeId>> parents;
  CandidateQueue pq;
  pq.push(Candidate{0, router});
  best[router] = 0;

  while (!pq.empty()) {
    const Candidate c = pq.top();
    pq.pop();
    const auto cur = best.find(c.node);
    if (cur == best.end() || c.cost > cur->second) continue;  // stale
    const Lsa* lsa = st.lsdb.find(c.node);
    if (lsa == nullptr) continue;
    for (const LsaLink& l : lsa->links) {
      const Lsa* back = st.lsdb.find(l.neighbor);
      if (back == nullptr) continue;
      const bool two_way =
          std::any_of(back->links.begin(), back->links.end(),
                      [&](const LsaLink& bl) { return bl.link == l.link; });
      if (!two_way) continue;
      ++edges_relaxed_;
      const std::uint32_t ncost = c.cost + l.cost;
      auto it = best.find(l.neighbor);
      if (it == best.end() || ncost < it->second) {
        best[l.neighbor] = ncost;
        parents[l.neighbor] = {c.node};
        pq.push(Candidate{ncost, l.neighbor});
      } else if (ncost == it->second) {
        parents[l.neighbor].insert(c.node);  // equal-cost alternate
      }
    }
  }
  st.best = std::move(best);
  st.parents = std::move(parents);
}

void Igp::incremental_spf_run(RouterState& st,
                              const std::set<ip::NodeId>& seeds) {
  // Seeded re-relaxation: every path changed by a decrease-only dirty set
  // crosses one of the changed edges, so pushing the (still finitely
  // distanced) endpoints re-explores exactly the affected cone. Distances
  // only decrease; pops settle in nondecreasing cost order, which is what
  // makes the reverse-parent completion below sound (INTERNALS.md §15).
  auto& best = st.best;
  auto& parents = st.parents;
  CandidateQueue pq;
  for (ip::NodeId s : seeds) pq.push(Candidate{best.at(s), s});

  while (!pq.empty()) {
    const Candidate c = pq.top();
    pq.pop();
    const auto cur = best.find(c.node);
    if (cur == best.end() || c.cost > cur->second) continue;  // stale
    const Lsa* lsa = st.lsdb.find(c.node);
    if (lsa == nullptr) continue;
    for (const LsaLink& l : lsa->links) {
      const Lsa* back = st.lsdb.find(l.neighbor);
      if (back == nullptr) continue;
      const bool two_way =
          std::any_of(back->links.begin(), back->links.end(),
                      [&](const LsaLink& bl) { return bl.link == l.link; });
      if (!two_way) continue;
      ++edges_relaxed_;
      const std::uint32_t ncost = c.cost + l.cost;
      auto it = best.find(l.neighbor);
      if (it == best.end() || ncost < it->second) {
        best[l.neighbor] = ncost;
        parents[l.neighbor] = {c.node};
        pq.push(Candidate{ncost, l.neighbor});
      } else {
        if (ncost == it->second) {
          parents[l.neighbor].insert(c.node);  // equal-cost alternate
        }
        // Reverse-parent completion: when this pop improved c.node, a
        // settled unchanged neighbor that is now an equal-cost predecessor
        // would never forward-relax into us — pick it up here. Any such
        // neighbor's distance (c.cost - l.cost < c.cost) is final by the
        // nondecreasing-pop invariant, so the equality test is exact.
        if (l.cost > 0 && it->second + l.cost == c.cost) {
          parents[c.node].insert(l.neighbor);
        }
      }
    }
  }
}

void Igp::rebuild_next_hops(ip::NodeId router, RouterState& st) {
  st.next_hops.clear();
  static const std::set<ip::NodeId> kNoParents;
  auto parents_of = [&](ip::NodeId n) -> const std::set<ip::NodeId>& {
    auto it = st.parents.find(n);
    return it == st.parents.end() ? kNoParents : it->second;
  };

  // Memoized first-hop-set computation over the parent DAG.
  std::map<ip::NodeId, std::set<ip::NodeId>> first_hops;
  std::function<const std::set<ip::NodeId>&(ip::NodeId)> fh =
      [&](ip::NodeId dest) -> const std::set<ip::NodeId>& {
    auto memo = first_hops.find(dest);
    if (memo != first_hops.end()) return memo->second;
    std::set<ip::NodeId> hops;
    for (ip::NodeId p : parents_of(dest)) {
      if (p == router) {
        hops.insert(dest);
      } else {
        const auto& up = fh(p);
        hops.insert(up.begin(), up.end());
      }
    }
    return first_hops.emplace(dest, std::move(hops)).first->second;
  };

  for (const auto& [dest, cost] : st.best) {
    if (dest == router) continue;
    std::vector<NextHopEntry> entries;
    for (ip::NodeId hop : fh(dest)) {  // std::set: sorted by id
      NextHopEntry entry;
      entry.via = hop;
      entry.iface = cp_.topology().node(router).interface_to(hop);
      entry.cost = cost;
      entries.push_back(entry);
    }
    if (!entries.empty()) st.next_hops[dest] = std::move(entries);
  }
}

void Igp::run_spf(ip::NodeId router) {
  RouterState& st = state(router);
  st.spf_scheduled = false;
  std::vector<DirtyEdge> dirty = std::move(st.dirty);
  st.dirty.clear();
  const bool force_full = !st.spf_valid || st.dirty_full;
  st.dirty_full = false;

  std::set<ip::NodeId> seeds;
  bool increase_affected = false;
  if (!force_full) {
    classify_dirty(st, dirty, &seeds, &increase_affected);
    if (seeds.empty() && !increase_affected) {
      // Provably no path or ECMP-set change: keep the stored solution,
      // fire nothing. (Unaffected routers across the network land here —
      // the counter the churn bench asserts on.)
      ++st.spf.skipped;
      ++spf_skipped_;
      return;
    }
  }

  if (force_full || increase_affected) {
    // Increases/removals invalidate an unknown subtree — rebuilding is
    // both simpler and, for on-DAG changes, close to the work a
    // tear-down/re-descend incremental variant would do anyway.
    full_spf_run(router, st);
    ++st.spf.full;
    ++spf_full_runs_;
  } else {
    incremental_spf_run(st, seeds);
    ++st.spf.incremental;
    ++spf_incremental_runs_;
  }
  rebuild_next_hops(router, st);
  st.spf_valid = true;

  last_spf_at_ = cp_.now();
  ++spf_runs_;
  for (const auto& cb : spf_callbacks_) cb(router);
}

void Igp::notify_link_change(net::LinkId link) {
  const net::Link& l = cp_.topology().link(link);
  for (ip::NodeId end : {l.end_a().node, l.end_b().node}) {
    if (is_member(end)) originate_and_flood(end);
  }
}

bool Igp::te_reserve(ip::NodeId from, net::LinkId link, double bps) {
  if (te_reservable(from, link) + 1e-6 < bps) return false;
  te_reserved_[{link, from}] += bps;
  originate_and_flood(from);
  return true;
}

void Igp::te_release(ip::NodeId from, net::LinkId link, double bps) {
  auto it = te_reserved_.find({link, from});
  if (it == te_reserved_.end()) return;
  it->second = std::max(0.0, it->second - bps);
  originate_and_flood(from);
}

double Igp::te_reserved(ip::NodeId from, net::LinkId link) const {
  auto it = te_reserved_.find({link, from});
  return it == te_reserved_.end() ? 0.0 : it->second;
}

double Igp::te_reservable(ip::NodeId from, net::LinkId link) const {
  const net::Link& l = cp_.topology().link(link);
  return l.config().bandwidth_bps * te_factor_ - te_reserved(from, link);
}

const Igp::NextHopEntry* Igp::next_hop(ip::NodeId router,
                                       ip::NodeId dest) const {
  const RouterState& st = state(router);
  auto it = st.next_hops.find(dest);
  if (it == st.next_hops.end() || it->second.empty()) return nullptr;
  return &it->second.front();
}

std::vector<Igp::NextHopEntry> Igp::next_hops_ecmp(ip::NodeId router,
                                                   ip::NodeId dest) const {
  const RouterState& st = state(router);
  auto it = st.next_hops.find(dest);
  return it == st.next_hops.end() ? std::vector<NextHopEntry>{}
                                  : it->second;
}

Igp::SpfCounters Igp::router_spf_counters(ip::NodeId router) const {
  return state(router).spf;
}

ComputedPath Igp::path(ip::NodeId router, ip::NodeId dest) const {
  return shortest_path(state(router).lsdb, router, dest);
}

ComputedPath Igp::cspf(ip::NodeId router, ip::NodeId dest,
                       double bandwidth_bps,
                       const std::vector<net::LinkId>& excluded) const {
  return shortest_path(state(router).lsdb, router, dest, bandwidth_bps,
                       excluded);
}

const LinkStateDb& Igp::lsdb(ip::NodeId router) const {
  return state(router).lsdb;
}

bool Igp::synchronized() const {
  for (ip::NodeId a : members_) {
    const RouterState& st = routers_.at(a);
    for (ip::NodeId b : members_) {
      const RouterState& origin = routers_.at(b);
      const Lsa* have = st.lsdb.find(b);
      if (have == nullptr || have->sequence != origin.lsa_seq) return false;
    }
  }
  return true;
}

}  // namespace mvpn::routing
