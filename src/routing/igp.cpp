#include "routing/igp.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

namespace mvpn::routing {

namespace {

/// Add `n` to the ascending id set `set` (no-op when present).
template <typename Set>
void insert_sorted(Set& set, ip::NodeId n) {
  const auto it = std::lower_bound(set.begin(), set.end(), n);
  if (it != set.end() && *it == n) return;
  const auto pos = it - set.begin();
  set.push_back(n);
  std::rotate(set.begin() + pos, set.end() - 1, set.end());
}

/// Dijkstra candidate key: (cost << 32) | node, so the min-heap pops in
/// (cost, node) order.
std::uint64_t candidate(std::uint32_t cost, ip::NodeId node) noexcept {
  return (std::uint64_t{cost} << 32) | node;
}

}  // namespace

Igp::Igp(ControlPlane& cp) : cp_(cp) {}

void Igp::add_router(ip::NodeId router) {
  if (router >= routers_.size()) routers_.resize(router + 1);
  if (routers_[router].active) return;
  routers_[router].active = true;
  members_.push_back(router);
}

bool Igp::is_member(ip::NodeId router) const {
  return router < routers_.size() && routers_[router].active;
}

Igp::RouterState& Igp::state(ip::NodeId router) {
  if (!is_member(router)) {
    throw std::invalid_argument("Igp: node is not a member router");
  }
  return routers_[router];
}

const Igp::RouterState& Igp::state(ip::NodeId router) const {
  if (!is_member(router)) {
    throw std::invalid_argument("Igp: node is not a member router");
  }
  return routers_[router];
}

void Igp::start() {
  for (ip::NodeId r : members_) originate_and_flood(r);
}

std::shared_ptr<const Lsa> Igp::build_lsa(ip::NodeId router) {
  RouterState& st = state(router);
  auto lsa = std::make_shared<Lsa>();
  lsa->origin = router;
  lsa->sequence = ++st.lsa_seq;
  cp_.topology().for_each_adjacency(router, [&](const net::Adjacency& adj) {
    if (!is_member(adj.neighbor)) return;  // IGP covers provider core only
    const net::Link& link = cp_.topology().link(adj.link);
    LsaLink l;
    l.neighbor = adj.neighbor;
    l.link = adj.link;
    l.cost = link.config().igp_cost;
    l.capacity_bps = link.config().bandwidth_bps;
    l.reservable_bps = te_reservable(router, adj.link);
    lsa->links.push_back(l);
  });
  return lsa;
}

bool Igp::install_classified(RouterState& st,
                             const std::shared_ptr<const Lsa>& lsa,
                             bool* spf_needed) {
  std::shared_ptr<const Lsa> prev;
  if (!st.lsdb.install(lsa, &prev)) return false;  // not newer

  if (prev == nullptr) {
    // First copy of this origin: no diff base — next run rebuilds fully.
    st.dirty_full = true;
    *spf_needed = true;
    return true;
  }

  // Diff adjacency sets keyed by (neighbor, link). Cost changes and
  // edge add/removals dirty the graph; pure TE attribute refreshes
  // (reservable/capacity) do not alter shortest paths and skip SPF
  // scheduling entirely. Both lists are short and built in interface
  // order, so each new link is matched against the old list directly,
  // trying its own position first.
  const std::vector<LsaLink>& old_links = prev->links;
  std::vector<bool> matched(old_links.size(), false);
  const std::size_t dirty_before = st.dirty.size();
  for (std::size_t i = 0; i < lsa->links.size(); ++i) {
    const LsaLink& l = lsa->links[i];
    auto same = [&](std::size_t j) {
      return !matched[j] && old_links[j].neighbor == l.neighbor &&
             old_links[j].link == l.link;
    };
    std::size_t j = i;
    if (j >= old_links.size() || !same(j)) {
      j = 0;
      while (j < old_links.size() && !same(j)) ++j;
    }
    if (j == old_links.size()) {
      st.dirty.push_back({lsa->origin, l.neighbor, kInfCost, l.cost});
      continue;
    }
    matched[j] = true;
    if (old_links[j].cost != l.cost) {
      st.dirty.push_back({lsa->origin, l.neighbor, old_links[j].cost, l.cost});
    }
  }
  for (std::size_t j = 0; j < old_links.size(); ++j) {
    if (matched[j]) continue;
    st.dirty.push_back(
        {lsa->origin, old_links[j].neighbor, old_links[j].cost, kInfCost});
  }
  const bool topo_change = st.dirty.size() != dirty_before;
  if (!topo_change) ++te_only_installs_;
  *spf_needed = topo_change;
  return true;
}

void Igp::originate_and_flood(ip::NodeId router) {
  const std::shared_ptr<const Lsa> lsa = build_lsa(router);
  RouterState& st = state(router);
  bool spf_needed = false;
  if (!install_classified(st, lsa, &spf_needed)) return;
  if (spf_needed) schedule_spf(router);
  flood(router, lsa, ip::kInvalidNode);
}

void Igp::flood(ip::NodeId at, const std::shared_ptr<const Lsa>& lsa,
                ip::NodeId except) {
  cp_.topology().for_each_adjacency(at, [&](const net::Adjacency& adj) {
    if (adj.neighbor == except || !is_member(adj.neighbor)) return;
    const ip::NodeId to = adj.neighbor;
    auto deliver = [this, to, lsa, at] { receive_lsa(to, lsa, at); };
    static_assert(sim::InlineCallable::fits_inline<decltype(deliver)>);
    cp_.send_adjacent(at, to, "igp.lsa", lsa->wire_bytes(),
                      std::move(deliver));
  });
}

void Igp::receive_lsa(ip::NodeId at, const std::shared_ptr<const Lsa>& lsa,
                      ip::NodeId from) {
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
                         std::vector<ip::NodeId>* seeds,
                         bool* increase_affected) const {
  auto dist = [&](ip::NodeId n) {
    return n < st.best.size() ? st.best[n] : kInfCost;
  };
  auto is_parent = [&](ip::NodeId child, ip::NodeId parent) {
    if (child >= st.parents.size()) return false;
    const ParentSet& ps = st.parents[child];
    return std::binary_search(ps.begin(), ps.end(), parent);
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
        if (du != kInfCost) insert_sorted(*seeds, e.u);
        if (dv != kInfCost) insert_sorted(*seeds, e.v);
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

void Igp::dijkstra(RouterState& st, std::span<const ip::NodeId> seeds,
                   bool complete_parents) {
  auto& best = st.best;
  auto& parents = st.parents;
  // A min-heap in storage every run reuses.
  std::vector<std::uint64_t>& pq = spf_queue_;
  pq.clear();
  const auto push = [&pq](std::uint32_t cost, ip::NodeId node) {
    pq.push_back(candidate(cost, node));
    std::push_heap(pq.begin(), pq.end(), std::greater<>());
  };
  for (ip::NodeId s : seeds) push(best[s], s);

  while (!pq.empty()) {
    std::pop_heap(pq.begin(), pq.end(), std::greater<>());
    const auto cost = static_cast<std::uint32_t>(pq.back() >> 32);
    const auto node = static_cast<ip::NodeId>(pq.back() & 0xFFFFFFFFu);
    pq.pop_back();
    if (cost > best[node]) continue;  // stale
    const Lsa* lsa = st.lsdb.find(node);
    if (lsa == nullptr) continue;
    for (const LsaLink& l : lsa->links) {
      // Two-way connectivity check: the neighbor must advertise the link.
      const Lsa* back = st.lsdb.find(l.neighbor);
      if (back == nullptr) continue;
      const bool two_way =
          std::any_of(back->links.begin(), back->links.end(),
                      [&](const LsaLink& bl) { return bl.link == l.link; });
      if (!two_way) continue;
      ++edges_relaxed_;
      const std::uint32_t ncost = cost + l.cost;
      std::uint32_t& nb = best[l.neighbor];
      if (ncost < nb) {
        nb = ncost;
        parents[l.neighbor].clear();
        parents[l.neighbor].push_back(node);
        push(ncost, l.neighbor);
        continue;
      }
      if (ncost == nb) {
        insert_sorted(parents[l.neighbor], node);  // equal-cost alternate
      }
      // Reverse-parent completion: when this pop improved `node`, a
      // settled unchanged neighbor that is now an equal-cost predecessor
      // would never forward-relax into us — pick it up here. Any such
      // neighbor's distance (cost - l.cost < cost) is final by the
      // nondecreasing-pop invariant, so the equality test is exact.
      if (complete_parents && l.cost > 0 && nb + l.cost == cost) {
        insert_sorted(parents[node], l.neighbor);
      }
    }
  }
}

void Igp::full_spf_run(ip::NodeId router, RouterState& st) {
  // Single-source Dijkstra over the router's LSDB with multi-parent
  // bookkeeping: every equal-cost predecessor is retained so the ECMP
  // first-hop set can be derived afterwards.
  st.best.assign(routers_.size(), kInfCost);
  st.parents.resize(routers_.size());
  for (ParentSet& ps : st.parents) ps.clear();
  st.best[router] = 0;
  dijkstra(st, std::span<const ip::NodeId>(&router, 1),
           /*complete_parents=*/false);
}

void Igp::incremental_spf_run(RouterState& st,
                              const std::vector<ip::NodeId>& seeds) {
  // Seeded re-relaxation: every path changed by a decrease-only dirty set
  // crosses one of the changed edges, so pushing the (still finitely
  // distanced) endpoints re-explores exactly the affected cone. Distances
  // only decrease; pops settle in nondecreasing cost order, which is what
  // makes the reverse-parent completion sound (INTERNALS.md §15).
  st.best.resize(routers_.size(), kInfCost);
  st.parents.resize(routers_.size());
  dijkstra(st, seeds, /*complete_parents=*/true);
}

void Igp::rebuild_next_hops(ip::NodeId router, RouterState& st) {
  // First-hop sets over the parent DAG, settled in (distance, id) order:
  // costs are positive, so every parent is strictly closer than its child
  // and its set is final before any child merges it. Sets live back to
  // back in one arena, each sorted ascending by neighbor; a merged hop
  // keeps its interface (a function of the neighbor) and takes the
  // destination's cost.
  const std::size_t n = st.best.size();
  std::vector<std::uint64_t>& order = settle_order_;  // (distance << 32) | id
  order.clear();
  for (ip::NodeId v = 0; v < n; ++v) {
    if (v != router && st.best[v] != kInfCost) {
      order.push_back((std::uint64_t{st.best[v]} << 32) | v);
    }
  }
  std::sort(order.begin(), order.end());
  const net::Node& self = cp_.topology().node(router);
  std::vector<NextHopEntry>& hops = st.hops;
  hops.clear();
  st.hop_first.assign(n, 0);
  st.hop_last.assign(n, 0);
  const auto by_via = [](const NextHopEntry& a, const NextHopEntry& b) {
    return a.via < b.via;
  };
  const auto same_via = [](const NextHopEntry& a, const NextHopEntry& b) {
    return a.via == b.via;
  };
  for (const std::uint64_t key : order) {
    const auto dest = static_cast<ip::NodeId>(key & 0xFFFFFFFFu);
    const std::uint32_t cost = st.best[dest];
    const auto begin = static_cast<std::uint32_t>(hops.size());
    for (ip::NodeId p : st.parents[dest]) {
      if (p == router) {
        hops.push_back({dest, self.interface_to(dest), cost});
      } else {
        for (std::uint32_t i = st.hop_first[p]; i < st.hop_last[p]; ++i) {
          NextHopEntry hop = hops[i];  // copy: push_back may reallocate
          hop.cost = cost;
          hops.push_back(hop);
        }
      }
    }
    std::sort(hops.begin() + begin, hops.end(), by_via);
    hops.erase(std::unique(hops.begin() + begin, hops.end(), same_via),
               hops.end());
    st.hop_first[dest] = begin;
    st.hop_last[dest] = static_cast<std::uint32_t>(hops.size());
  }
}

std::span<const Igp::NextHopEntry> Igp::hop_set(const RouterState& st,
                                                ip::NodeId dest) const noexcept {
  if (dest >= st.hop_first.size()) return {};
  return std::span<const NextHopEntry>(st.hops).subspan(
      st.hop_first[dest], st.hop_last[dest] - st.hop_first[dest]);
}

void Igp::run_spf(ip::NodeId router) {
  RouterState& st = state(router);
  st.spf_scheduled = false;
  std::vector<DirtyEdge> dirty = std::move(st.dirty);
  st.dirty.clear();
  const bool force_full = !st.spf_valid || st.dirty_full;
  st.dirty_full = false;

  std::vector<ip::NodeId> seeds;
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
  const std::span<const NextHopEntry> set = hop_set(state(router), dest);
  return set.empty() ? nullptr : &set.front();
}

std::vector<Igp::NextHopEntry> Igp::next_hops_ecmp(ip::NodeId router,
                                                   ip::NodeId dest) const {
  const std::span<const NextHopEntry> set = hop_set(state(router), dest);
  return {set.begin(), set.end()};
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
    const RouterState& st = routers_[a];
    for (ip::NodeId b : members_) {
      const RouterState& origin = routers_[b];
      const Lsa* have = st.lsdb.find(b);
      if (have == nullptr || have->sequence != origin.lsa_seq) return false;
    }
  }
  return true;
}

}  // namespace mvpn::routing
