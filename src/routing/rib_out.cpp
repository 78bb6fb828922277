#include "routing/rib_out.hpp"

#include <algorithm>
#include <set>
#include <tuple>

namespace mvpn::routing {

void RibOut::append(NodeState& ns, std::vector<ip::NodeId> peers,
                    Entry entry) {
  auto git = ns.group_of.find(peers);
  std::uint32_t gid;
  if (git != ns.group_of.end()) {
    gid = git->second;
  } else {
    gid = static_cast<std::uint32_t>(ns.groups.size());
    ns.group_of.emplace(peers, gid);
    ns.groups.push_back(Group{std::move(peers), {}});
  }
  Group& g = ns.groups[gid];
  const auto slot = static_cast<std::uint32_t>(g.queue.size());
  const NlriId nlri = entry.nlri;
  g.queue.push_back(std::move(entry));
  link(ns, nlri, gid, slot);
}

void RibOut::link(NodeState& ns, NlriId nlri, std::uint32_t gid,
                  std::uint32_t slot) {
  if (nlri >= ns.queued.size()) ns.queued.resize(nlri + 1, kNil);
  ns.refs.push_back(Ref{gid, slot, ns.queued[nlri]});
  ns.queued[nlri] = static_cast<std::uint32_t>(ns.refs.size() - 1);
}

bool RibOut::enqueue(ip::NodeId node, std::vector<ip::NodeId> peers,
                     NlriId nlri, const CompactRoute* route) {
  if (node >= nodes_.size()) nodes_.resize(node + 1);
  NodeState& ns = nodes_[node];
  ns.live = true;
  std::sort(peers.begin(), peers.end());
  ++nlri_enqueued_;

  // Supersede anything already queued for this key. Peers covered by the
  // new entry simply see the newer action; peers the new entry does NOT
  // cover keep the old payload via a residual-group re-queue, preserving
  // the disjointness invariant (residuals are subsets of pairwise-disjoint
  // old sets, all disjoint from the new set). An old entry none of whose
  // peers the new one covers (a withdraw to the peers a best path no
  // longer reaches, queued beside the advertisement to the rest) stands
  // as it is.
  if (nlri < ns.queued.size() && ns.queued[nlri] != kNil) {
    // The chain runs newest-first; supersede in queueing order.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> old_refs;
    for (std::uint32_t r = ns.queued[nlri]; r != kNil; r = ns.refs[r].older) {
      old_refs.emplace_back(ns.refs[r].gid, ns.refs[r].slot);
    }
    std::reverse(old_refs.begin(), old_refs.end());
    ns.queued[nlri] = kNil;
    for (const auto& [gid, slot] : old_refs) {
      Entry& old = ns.groups[gid].queue[slot];
      if (old.dead) continue;
      std::vector<ip::NodeId> residual;
      std::set_difference(ns.groups[gid].peers.begin(),
                          ns.groups[gid].peers.end(), peers.begin(),
                          peers.end(), std::back_inserter(residual));
      if (residual.size() == ns.groups[gid].peers.size()) {
        link(ns, nlri, gid, slot);
        continue;
      }
      old.dead = true;
      ++superseded_;
      if (!residual.empty()) {
        Entry carry{old.nlri, old.route, old.withdraw, false};
        append(ns, std::move(residual), std::move(carry));
      }
    }
  }

  Entry e;
  e.nlri = nlri;
  e.withdraw = route == nullptr;
  if (route != nullptr) e.route = *route;
  append(ns, std::move(peers), std::move(e));

  const bool need_arm = !ns.armed;
  ns.armed = true;
  return need_arm;
}

std::vector<RibOut::Message> RibOut::drain(ip::NodeId node,
                                           const RtSetPool& pool,
                                           const NlriTable& keys) {
  std::vector<Message> out;
  if (node >= nodes_.size() || !nodes_[node].live) return out;
  NodeState& ns = nodes_[node];
  ns.armed = false;
  ++flushes_;

  // Distinct attribute sets already priced into the current message. The
  // piggybacked label and next-hop node ride in the NLRI, not here.
  using AttrKey = std::tuple<std::uint32_t, std::uint32_t, ip::NodeId,
                             std::uint16_t>;

  for (Group& g : ns.groups) {
    if (g.queue.empty()) continue;
    auto peers = std::make_shared<const std::vector<ip::NodeId>>(g.peers);

    auto entries = std::make_shared<std::vector<Entry>>();
    std::set<AttrKey> attrs;
    std::size_t bytes = kBgpHeaderBytes;
    std::size_t reach = 0;
    std::size_t unreach = 0;

    auto cut = [&] {
      if (entries->empty()) return;
      Message m;
      m.peers = peers;
      m.entries = std::move(entries);
      m.wire_bytes = bytes;
      m.reach = reach;
      m.unreach = unreach;
      ++messages_packed_;
      nlri_packed_ += reach + unreach;
      wire_bytes_packed_ += bytes;
      out.push_back(std::move(m));
      entries = std::make_shared<std::vector<Entry>>();
      attrs.clear();
      bytes = kBgpHeaderBytes;
      reach = 0;
      unreach = 0;
    };

    for (Entry& e : g.queue) {
      ns.queued[e.nlri] = kNil;
      if (e.dead) continue;
      auto cost_of = [&]() -> std::size_t {
        std::size_t c = vpn_nlri_wire_bytes(keys.key(e.nlri));
        if (!e.withdraw) {
          const AttrKey a{e.route.next_hop, e.route.local_pref,
                          e.route.originator, e.route.rt_set};
          if (attrs.find(a) == attrs.end()) {
            c += 32 + 8 * pool.get(e.route.rt_set).size();
          }
        }
        return c;
      };
      if (!entries->empty() && bytes + cost_of() > kMaxMessageBytes) cut();
      bytes += cost_of();  // re-priced: a fresh message shares no attrs yet
      if (e.withdraw) {
        ++unreach;
      } else {
        ++reach;
        attrs.insert(AttrKey{e.route.next_hop, e.route.local_pref,
                             e.route.originator, e.route.rt_set});
      }
      entries->push_back(std::move(e));
    }
    cut();
    g.queue.clear();
  }
  ns.refs.clear();
  return out;
}

void RibOut::drop_node(ip::NodeId node) {
  if (node < nodes_.size()) nodes_[node] = NodeState{};
}

}  // namespace mvpn::routing
