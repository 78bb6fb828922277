#include "routing/link_state.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>

namespace mvpn::routing {

bool LinkStateDb::install(std::shared_ptr<const Lsa> lsa,
                          std::shared_ptr<const Lsa>* replaced) {
  const ip::NodeId origin = lsa->origin;
  if (origin >= db_.size()) db_.resize(origin + 1);
  std::shared_ptr<const Lsa>& slot = db_[origin];
  if (slot != nullptr && slot->sequence >= lsa->sequence) return false;
  if (slot == nullptr) ++size_;
  if (replaced != nullptr) *replaced = std::move(slot);
  slot = std::move(lsa);
  return true;
}

ComputedPath shortest_path(const LinkStateDb& db, ip::NodeId from,
                           ip::NodeId to, double min_reservable,
                           const std::vector<net::LinkId>& excluded) {
  struct Candidate {
    std::uint32_t cost;
    std::uint32_t hops;
    ip::NodeId node;
    bool operator>(const Candidate& o) const noexcept {
      if (cost != o.cost) return cost > o.cost;
      if (hops != o.hops) return hops > o.hops;
      return node > o.node;
    }
  };

  std::map<ip::NodeId, std::pair<std::uint32_t, std::uint32_t>> best;
  std::map<ip::NodeId, ip::NodeId> parent;
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> pq;

  pq.push(Candidate{0, 0, from});
  best[from] = {0, 0};

  auto is_excluded = [&](net::LinkId l) {
    return std::find(excluded.begin(), excluded.end(), l) != excluded.end();
  };

  while (!pq.empty()) {
    const Candidate c = pq.top();
    pq.pop();
    auto found = best.find(c.node);
    if (found == best.end() || found->second.first < c.cost ||
        (found->second.first == c.cost && found->second.second < c.hops)) {
      continue;  // stale entry
    }
    if (c.node == to) break;

    const Lsa* lsa = db.find(c.node);
    if (lsa == nullptr) continue;
    for (const LsaLink& l : lsa->links) {
      if (l.reservable_bps + 1e-6 < min_reservable) continue;
      if (is_excluded(l.link)) continue;
      // Require the neighbor to advertise the reverse adjacency: two-way
      // connectivity check, as in real link-state protocols.
      const Lsa* back = db.find(l.neighbor);
      if (back == nullptr) continue;
      const bool two_way =
          std::any_of(back->links.begin(), back->links.end(),
                      [&](const LsaLink& bl) { return bl.link == l.link; });
      if (!two_way) continue;

      const std::uint32_t ncost = c.cost + l.cost;
      const std::uint32_t nhops = c.hops + 1;
      auto it = best.find(l.neighbor);
      if (it == best.end() || ncost < it->second.first ||
          (ncost == it->second.first && nhops < it->second.second)) {
        best[l.neighbor] = {ncost, nhops};
        parent[l.neighbor] = c.node;
        pq.push(Candidate{ncost, nhops, l.neighbor});
      }
    }
  }

  ComputedPath path;
  if (best.find(to) == best.end()) return path;
  path.cost = best[to].first;
  for (ip::NodeId n = to;; n = parent[n]) {
    path.nodes.push_back(n);
    if (n == from) break;
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

}  // namespace mvpn::routing
