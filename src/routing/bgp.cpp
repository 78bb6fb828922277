#include "routing/bgp.hpp"

#include <algorithm>
#include <stdexcept>

namespace mvpn::routing {

Bgp::Bgp(ControlPlane& cp, Mode mode) : cp_(cp), mode_(mode) {}

void Bgp::add_speaker(ip::NodeId pe) {
  if (started_) throw std::logic_error("Bgp: add_speaker after start");
  if (state_.count(pe) != 0) return;
  state_[pe];  // default-construct
  speakers_.push_back(pe);
}

void Bgp::add_route_reflector(ip::NodeId rr) {
  if (started_) throw std::logic_error("Bgp: add_route_reflector after start");
  if (mode_ != Mode::kRouteReflector) {
    throw std::logic_error("Bgp: reflectors require kRouteReflector mode");
  }
  auto& st = state_[rr];
  if (st.reflector) return;
  st.reflector = true;
  reflectors_.push_back(rr);
}

bool Bgp::is_reflector(ip::NodeId node) const {
  auto it = state_.find(node);
  return it != state_.end() && it->second.reflector;
}

void Bgp::add_session(ip::NodeId a, ip::NodeId b) {
  state_.at(a).peers.push_back(b);
  state_.at(b).peers.push_back(a);
  sessions_.emplace_back(a, b);
  // OPEN exchange, one message each way.
  cp_.send_session(a, b, "bgp.open", 29, [] {});
  cp_.send_session(b, a, "bgp.open", 29, [] {});
}

void Bgp::start() {
  if (started_) return;
  started_ = true;
  if (mode_ == Mode::kFullMesh) {
    for (std::size_t i = 0; i < speakers_.size(); ++i) {
      for (std::size_t j = i + 1; j < speakers_.size(); ++j) {
        add_session(speakers_[i], speakers_[j]);
      }
    }
    return;
  }
  if (reflectors_.empty()) {
    throw std::logic_error("Bgp: kRouteReflector mode with no reflectors");
  }
  // Clients session to every RR; RRs full-mesh among themselves.
  for (ip::NodeId pe : speakers_) {
    for (ip::NodeId rr : reflectors_) add_session(pe, rr);
  }
  for (std::size_t i = 0; i < reflectors_.size(); ++i) {
    for (std::size_t j = i + 1; j < reflectors_.size(); ++j) {
      add_session(reflectors_[i], reflectors_[j]);
    }
  }
}

bool Bgp::better(const VpnRoute& a, const VpnRoute& b) noexcept {
  if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;
  if (a.originator != b.originator) return a.originator < b.originator;
  return a.next_hop.value() < b.next_hop.value();
}

bool Bgp::better_compact(const CompactRoute& a, const CompactRoute& b) noexcept {
  if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;
  if (a.originator != b.originator) return a.originator < b.originator;
  return a.next_hop < b.next_hop;
}

std::vector<ip::NodeId> Bgp::advertise_targets(ip::NodeId node,
                                               ip::NodeId sender) const {
  const SpeakerState& st = state_.at(node);
  std::vector<ip::NodeId> out;
  if (sender == ip::kInvalidNode) {
    // Locally originated: advertise to every peer.
    out = st.peers;
    return out;
  }
  if (!st.reflector) return out;  // plain iBGP: never re-advertise
  const bool from_client = !is_reflector(sender);
  for (ip::NodeId peer : st.peers) {
    if (peer == sender) continue;
    const bool peer_is_client = !is_reflector(peer);
    // RR rules: client routes reflect everywhere else; non-client routes
    // reflect to clients only.
    if (from_client || peer_is_client) out.push_back(peer);
  }
  return out;
}

void Bgp::propagate(ip::NodeId node, ip::NodeId sender, const VpnRouteKey& key,
                    const VpnRoute* route) {
  std::vector<ip::NodeId> targets = advertise_targets(node, sender);
  if (targets.empty()) return;
  CompactRoute compact;
  const CompactRoute* payload = nullptr;
  if (route != nullptr) {
    compact = compress(*route, pool_);
    payload = &compact;
  }
  if (ribout_.enqueue(node, std::move(targets), key, payload)) {
    // Zero-delay flush: the packed message leaves at the tick the route
    // changed, so session-delay arrival instants — and therefore the whole
    // decision cascade — do not depend on how NLRI were grouped.
    cp_.topology().scheduler().schedule_in(0, [this, node] { flush(node); });
  }
}

void Bgp::flush(ip::NodeId node) {
  SpeakerState& st = state_.at(node);
  for (RibOut::Message& m : ribout_.drain(node, pool_)) {
    // Withdraw-only messages keep their own wire type so session-teardown
    // and convergence experiments can still count withdraws.
    const char* type = m.reach > 0 ? "bgp.update" : "bgp.withdraw";
    for (ip::NodeId peer : *m.peers) {
      // A peer that vanished between enqueue and flush (session teardown)
      // silently loses the queued update — its TCP session is gone.
      if (std::find(st.peers.begin(), st.peers.end(), peer) ==
          st.peers.end()) {
        continue;
      }
      cp_.send_session(node, peer, type, m.wire_bytes,
                       [this, node, peer, entries = m.entries] {
                         apply_packed(peer, node, *entries);
                       });
    }
  }
}

void Bgp::apply_packed(ip::NodeId at, ip::NodeId from,
                       const std::vector<RibOut::Entry>& entries) {
  for (const RibOut::Entry& e : entries) {
    if (e.withdraw) {
      receive_withdraw(at, from, e.key);
    } else {
      receive_update(at, from, materialize(e.key, e.route, pool_));
    }
  }
}

void Bgp::originate(ip::NodeId pe, VpnRoute route) {
  route.originator = pe;
  SpeakerState& st = state_.at(pe);
  const VpnRouteKey key{route.rd, route.prefix};
  st.adj_rib_in.upsert(key, ip::kInvalidNode, compress(route, pool_));
  decide(pe, key);
}

void Bgp::withdraw(ip::NodeId pe, const RouteDistinguisher& rd,
                   const ip::Prefix& prefix) {
  SpeakerState& st = state_.at(pe);
  const VpnRouteKey key{rd, prefix};
  if (!st.adj_rib_in.erase(key, ip::kInvalidNode)) return;
  decide(pe, key);
}

void Bgp::receive_update(ip::NodeId at, ip::NodeId from, VpnRoute route) {
  SpeakerState& st = state_.at(at);
  if (route.originator == at) return;  // originator loop guard
  const VpnRouteKey key{route.rd, route.prefix};
  st.adj_rib_in.upsert(key, from, compress(route, pool_));
  decide(at, key);
}

void Bgp::receive_withdraw(ip::NodeId at, ip::NodeId from, VpnRouteKey key) {
  SpeakerState& st = state_.at(at);
  if (!st.adj_rib_in.erase(key, from)) return;
  decide(at, key);
}

void Bgp::decide(ip::NodeId node, const VpnRouteKey& key) {
  SpeakerState& st = state_.at(node);
  const CompactRoute* new_best = nullptr;
  ip::NodeId new_sender = ip::kInvalidNode;
  st.adj_rib_in.for_each(key, [&](ip::NodeId sender, const CompactRoute& r) {
    // Chain order is insertion-dependent, so the tie-break the old
    // std::map sweep got implicitly — lowest sender wins a full attribute
    // tie — is explicit here.
    if (new_best == nullptr || better_compact(r, *new_best) ||
        (!better_compact(*new_best, r) && sender < new_sender)) {
      new_best = &r;
      new_sender = sender;
    }
  });

  auto loc_it = st.loc_rib.find(key);
  if (new_best == nullptr) {
    if (loc_it == st.loc_rib.end()) return;  // nothing changed
    // Best path lost: withdraw downstream, notify observers.
    const ip::NodeId old_sender = st.best_sender[key];
    st.loc_rib.erase(loc_it);
    st.best_sender.erase(key);
    VpnRoute gone;
    gone.rd = key.first;
    gone.prefix = key.second;
    for (const auto& cb : observers_) cb(node, gone, true);
    propagate(node, old_sender, key, nullptr);
    return;
  }

  VpnRoute best_route = materialize(key, *new_best, pool_);
  const bool changed =
      loc_it == st.loc_rib.end() ||
      loc_it->second.next_hop != best_route.next_hop ||
      loc_it->second.vpn_label != best_route.vpn_label ||
      loc_it->second.originator != best_route.originator ||
      loc_it->second.route_targets != best_route.route_targets;
  if (!changed) return;

  VpnRoute& stored = st.loc_rib[key] = std::move(best_route);
  st.best_sender[key] = new_sender;
  for (const auto& cb : observers_) cb(node, stored, false);
  propagate(node, new_sender, key, &stored);
}

void Bgp::fail_speaker(ip::NodeId pe) {
  // Drop sessions touching `pe`.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->first == pe || it->second == pe) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  // Updates the dead speaker staged but never flushed die with its
  // sessions.
  ribout_.drop_node(pe);
  for (auto& [node, st] : state_) {
    if (node == pe) continue;
    auto& peers = st.peers;
    peers.erase(std::remove(peers.begin(), peers.end(), pe), peers.end());
    // Flush Adj-RIB-In entries learned from the dead peer and re-decide
    // the affected keys (sorted, matching the legacy sweep order).
    for (const VpnRouteKey& key : st.adj_rib_in.erase_sender(pe)) {
      decide(node, key);
    }
  }
}

std::size_t Bgp::loc_rib_size(ip::NodeId node) const {
  return state_.at(node).loc_rib.size();
}

std::size_t Bgp::adj_rib_in_size(ip::NodeId node) const {
  return state_.at(node).adj_rib_in.route_count();
}

std::size_t Bgp::adj_rib_bytes() const {
  std::size_t n = pool_.bytes();
  for (const auto& [node, st] : state_) n += st.adj_rib_in.bytes();
  return n;
}

std::size_t Bgp::adj_rib_routes() const {
  std::size_t n = 0;
  for (const auto& [node, st] : state_) n += st.adj_rib_in.route_count();
  return n;
}

const VpnRoute* Bgp::best(ip::NodeId node, const VpnRouteKey& key) const {
  const SpeakerState& st = state_.at(node);
  auto it = st.loc_rib.find(key);
  return it == st.loc_rib.end() ? nullptr : &it->second;
}

std::vector<VpnRoute> Bgp::loc_rib(ip::NodeId node) const {
  std::vector<VpnRoute> out;
  const SpeakerState& st = state_.at(node);
  out.reserve(st.loc_rib.size());
  for (const auto& [key, route] : st.loc_rib) out.push_back(route);
  return out;
}

}  // namespace mvpn::routing
