#include "routing/bgp.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace mvpn::routing {

Bgp::Bgp(ControlPlane& cp, Mode mode) : cp_(cp), mode_(mode) {}

Bgp::SpeakerState& Bgp::speaker(ip::NodeId node) {
  return const_cast<SpeakerState&>(std::as_const(*this).speaker(node));
}

const Bgp::SpeakerState& Bgp::speaker(ip::NodeId node) const {
  if (node >= state_.size() || !state_[node].enrolled) {
    throw std::out_of_range("Bgp: node " + std::to_string(node) +
                            " is not a speaker");
  }
  return state_[node];
}

Bgp::SpeakerState& Bgp::enroll(ip::NodeId node) {
  if (node >= state_.size()) state_.resize(node + 1);
  state_[node].enrolled = true;
  return state_[node];
}

void Bgp::add_speaker(ip::NodeId pe) {
  if (started_) throw std::logic_error("Bgp: add_speaker after start");
  if (pe < state_.size() && state_[pe].enrolled) return;
  enroll(pe);
  speakers_.push_back(pe);
}

void Bgp::add_route_reflector(ip::NodeId rr) {
  if (started_) throw std::logic_error("Bgp: add_route_reflector after start");
  if (mode_ != Mode::kRouteReflector) {
    throw std::logic_error("Bgp: reflectors require kRouteReflector mode");
  }
  SpeakerState& st = enroll(rr);
  if (st.reflector) return;
  st.reflector = true;
  reflectors_.push_back(rr);
}

void Bgp::add_session(ip::NodeId a, ip::NodeId b) {
  state_[a].peers.push_back(b);
  state_[b].peers.push_back(a);
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

bool Bgp::better_compact(const CompactRoute& a, const CompactRoute& b) noexcept {
  if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;
  if (a.originator != b.originator) return a.originator < b.originator;
  return a.next_hop < b.next_hop;
}

std::vector<ip::NodeId> Bgp::advertise_targets(ip::NodeId node,
                                               ip::NodeId sender) const {
  const SpeakerState& st = state_[node];
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

void Bgp::propagate(ip::NodeId node, ip::NodeId sender, NlriId id,
                    const CompactRoute* route) {
  std::vector<ip::NodeId> targets = advertise_targets(node, sender);
  if (targets.empty()) return;
  if (ribout_.enqueue(node, std::move(targets), id, route)) {
    // Zero-delay flush: the packed message leaves at the tick the route
    // changed, so session-delay arrival instants — and therefore the whole
    // decision cascade — do not depend on how NLRI were grouped.
    cp_.topology().scheduler().schedule_in(0, [this, node] { flush(node); });
  }
}

void Bgp::flush(ip::NodeId node) {
  for (RibOut::Message& m : ribout_.drain(node, pool_, nlri_)) {
    // Withdraw-only messages keep their own wire type so session-teardown
    // and convergence experiments can still count withdraws.
    const char* type = m.reach > 0 ? "bgp.update" : "bgp.withdraw";
    for (ip::NodeId peer : *m.peers) {
      // A peer that failed between enqueue and flush (session teardown)
      // silently loses the queued update — its TCP session is gone. Group
      // peers were session peers at enqueue, and only fail_speaker ends a
      // session, so the flag is the whole liveness test.
      if (state_[peer].failed) continue;
      auto deliver = [this, node, peer, entries = m.entries] {
        apply_packed(peer, node, *entries);
      };
      static_assert(sim::InlineCallable::fits_inline<decltype(deliver)>);
      cp_.send_session(node, peer, type, m.wire_bytes, std::move(deliver));
    }
  }
}

void Bgp::apply_packed(ip::NodeId at, ip::NodeId from,
                       const std::vector<RibOut::Entry>& entries) {
  SpeakerState& st = state_[at];
  for (const RibOut::Entry& e : entries) {
    if (e.withdraw) {
      if (st.adj_rib_in.erase(e.nlri, from)) decide(at, e.nlri);
    } else if (e.route.originator != at) {  // originator loop guard
      st.adj_rib_in.upsert(e.nlri, from, e.route);
      decide(at, e.nlri);
    }
  }
}

void Bgp::originate(ip::NodeId pe, VpnRoute route) {
  route.originator = pe;
  SpeakerState& st = speaker(pe);
  const NlriId id = nlri_.intern({route.rd, route.prefix});
  st.adj_rib_in.upsert(id, ip::kInvalidNode, compress(route, pool_));
  decide(pe, id);
}

void Bgp::withdraw(ip::NodeId pe, const RouteDistinguisher& rd,
                   const ip::Prefix& prefix) {
  SpeakerState& st = speaker(pe);
  const NlriId id = nlri_.find({rd, prefix});
  if (id == kNoNlri || !st.adj_rib_in.erase(id, ip::kInvalidNode)) return;
  decide(pe, id);
}

void Bgp::notify(ip::NodeId node, const VpnRoute& route, bool withdrawn) {
  notifying_ = true;
  struct Reset {
    bool& flag;
    ~Reset() { flag = false; }
  } reset{notifying_};
  for (const auto& cb : observers_) cb(node, route, withdrawn);
}

void Bgp::decide(ip::NodeId node, NlriId id) {
  // notified_ is the route an observer is reading right now.
  if (notifying_) {
    throw std::logic_error("Bgp: best-path decision inside a route observer");
  }
  SpeakerState& st = state_[node];
  const CompactRoute* new_best = nullptr;
  ip::NodeId new_sender = ip::kInvalidNode;
  st.adj_rib_in.for_each(id, [&](ip::NodeId sender, const CompactRoute& r) {
    // Chain order is insertion-dependent, so the tie-break the old
    // std::map sweep got implicitly — lowest sender wins a full attribute
    // tie — is explicit here.
    if (new_best == nullptr || better_compact(r, *new_best) ||
        (!better_compact(*new_best, r) && sender < new_sender)) {
      new_best = &r;
      new_sender = sender;
    }
  });

  if (new_best == nullptr &&
      (id >= st.loc_rib.size() || !st.loc_rib[id].present)) {
    return;  // nothing changed
  }
  if (id >= st.loc_rib.size()) st.loc_rib.resize(nlri_.size());
  LocEntry& loc = st.loc_rib[id];
  const VpnRouteKey& key = nlri_.key(id);
  if (new_best == nullptr) {
    // Best path lost: withdraw downstream, notify observers.
    const ip::NodeId old_sender = loc.sender;
    loc = LocEntry{};
    --st.loc_rib_size;
    VpnRoute gone;
    gone.rd = key.first;
    gone.prefix = key.second;
    notify(node, gone, true);
    propagate(node, old_sender, id, nullptr);
    return;
  }

  // Any attribute difference is a change. A move to another sender with
  // identical attributes is not, and keeps the stored sender.
  if (loc.present && loc.compact == *new_best) return;
  if (!loc.present) ++st.loc_rib_size;
  const CompactRoute best = *new_best;
  loc.present = true;
  loc.sender = new_sender;
  loc.compact = best;
  materialize_into(key, best, pool_, notified_);
  notify(node, notified_, false);
  propagate(node, new_sender, id, &best);
}

void Bgp::fail_speaker(ip::NodeId pe) {
  // Before start there are no sessions, so nothing can have been learned
  // from `pe`.
  if (!started_) return;
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
  if (pe < state_.size()) state_[pe].failed = true;
  for (ip::NodeId node = 0; node < state_.size(); ++node) {
    SpeakerState& st = state_[node];
    if (!st.enrolled || node == pe) continue;
    auto& peers = st.peers;
    peers.erase(std::remove(peers.begin(), peers.end(), pe), peers.end());
    // Flush Adj-RIB-In entries learned from the dead peer and re-decide
    // the affected keys in (RD, prefix) order, so the resulting messages
    // do not depend on intern order.
    std::vector<NlriId> affected = st.adj_rib_in.erase_sender(pe);
    std::sort(affected.begin(), affected.end(), [this](NlriId a, NlriId b) {
      return nlri_.key(a) < nlri_.key(b);
    });
    for (NlriId id : affected) decide(node, id);
  }
}

std::size_t Bgp::loc_rib_size(ip::NodeId node) const {
  return speaker(node).loc_rib_size;
}

std::size_t Bgp::adj_rib_in_size(ip::NodeId node) const {
  return speaker(node).adj_rib_in.route_count();
}

std::size_t Bgp::adj_rib_bytes() const {
  std::size_t n = pool_.bytes() + nlri_.bytes();
  for (const SpeakerState& st : state_) n += st.adj_rib_in.bytes();
  return n;
}

std::size_t Bgp::adj_rib_routes() const {
  std::size_t n = 0;
  for (const SpeakerState& st : state_) n += st.adj_rib_in.route_count();
  return n;
}

std::optional<VpnRoute> Bgp::best(ip::NodeId node,
                                  const VpnRouteKey& key) const {
  const SpeakerState& st = speaker(node);
  const NlriId id = nlri_.find(key);
  if (id >= st.loc_rib.size() || !st.loc_rib[id].present) return std::nullopt;
  return materialize(key, st.loc_rib[id].compact, pool_);
}

std::vector<VpnRoute> Bgp::loc_rib(ip::NodeId node) const {
  const SpeakerState& st = speaker(node);
  std::vector<NlriId> ids;
  ids.reserve(st.loc_rib_size);
  for (NlriId id = 0; id < st.loc_rib.size(); ++id) {
    if (st.loc_rib[id].present) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [this](NlriId a, NlriId b) {
    return nlri_.key(a) < nlri_.key(b);
  });
  std::vector<VpnRoute> out;
  out.reserve(ids.size());
  for (NlriId id : ids) {
    out.push_back(materialize(nlri_.key(id), st.loc_rib[id].compact, pool_));
  }
  return out;
}

}  // namespace mvpn::routing
