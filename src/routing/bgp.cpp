#include "routing/bgp.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace mvpn::routing {

Bgp::Bgp(ControlPlane& cp, Mode mode) : cp_(cp), mode_(mode) {
  // Pool id 0 is the empty RT set: every speaker's membership until it
  // declares one.
  (void)pool_.intern({});
}

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

namespace {

/// RFC 4684 RT-membership NLRI: length octet + origin AS + route target.
constexpr std::size_t kRtcNlriBytes = 13;

/// The members of `a` not in `b`, in `a`'s order.
std::vector<ip::NodeId> minus(const std::vector<ip::NodeId>& a,
                              std::vector<ip::NodeId> b) {
  std::sort(b.begin(), b.end());
  std::vector<ip::NodeId> out;
  for (ip::NodeId x : a) {
    if (!std::binary_search(b.begin(), b.end(), x)) out.push_back(x);
  }
  return out;
}

}  // namespace

void Bgp::add_session(ip::NodeId a, ip::NodeId b) {
  state_[a].peers.push_back(Peer{b, state_[b].membership});
  state_[b].peers.push_back(Peer{a, state_[a].membership});
  sessions_.emplace_back(a, b);
  // OPEN exchange, one message each way, then each side's RT membership
  // (RFC 4684) before any VPN route: both sides know it from the start.
  cp_.send_session(a, b, "bgp.open", 29, [] {});
  cp_.send_session(b, a, "bgp.open", 29, [] {});
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    const std::size_t rts = pool_.get(state_[from].membership).size();
    if (rts == 0) continue;
    cp_.send_session(from, to, "bgp.rtc",
                     kBgpHeaderBytes + kRtcNlriBytes * rts, [] {});
  }
}

void Bgp::set_membership(ip::NodeId pe, std::vector<RouteTarget> rts) {
  SpeakerState& st = speaker(pe);
  std::sort(rts.begin(), rts.end());
  rts.erase(std::unique(rts.begin(), rts.end()), rts.end());
  const std::uint16_t set = pool_.intern(rts);
  if (set == st.membership) return;
  st.membership = set;
  if (!started_ || st.failed) return;
  for (const Peer& p : st.peers) {
    const ip::NodeId peer = p.node;
    auto deliver = [this, peer, pe, set] { apply_membership(peer, pe, set); };
    static_assert(sim::InlineCallable::fits_inline<decltype(deliver)>);
    cp_.send_session(pe, peer, "bgp.rtc",
                     kBgpHeaderBytes + kRtcNlriBytes * rts.size(),
                     std::move(deliver));
  }
}

void Bgp::apply_membership(ip::NodeId at, ip::NodeId from,
                           std::uint16_t set) {
  SpeakerState& st = state_[at];
  if (st.failed) return;
  auto peer = std::find_if(st.peers.begin(), st.peers.end(),
                           [from](const Peer& p) { return p.node == from; });
  if (peer == st.peers.end()) return;  // the session died in flight
  const std::vector<std::uint32_t> rows = rows_in_key_order(st);
  auto reaches = [&](std::uint32_t row) {
    const LocEntry& loc = st.loc_rib[row];
    const std::vector<ip::NodeId> t =
        advertise_targets(at, loc.sender, loc.compact);
    return std::find(t.begin(), t.end(), from) != t.end();
  };
  std::vector<bool> before;
  before.reserve(rows.size());
  for (std::uint32_t row : rows) before.push_back(reaches(row));
  peer->membership = set;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (reaches(rows[i]) == before[i]) continue;
    propagate(at, {from}, st.adj_rib_in.nlri_of(rows[i]),
              before[i] ? nullptr : &st.loc_rib[rows[i]].compact);
  }
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

std::vector<ip::NodeId> Bgp::advertise_targets(
    ip::NodeId node, ip::NodeId sender, const CompactRoute& route) const {
  const SpeakerState& st = state_[node];
  std::vector<ip::NodeId> out;
  const bool local = sender == ip::kInvalidNode;
  if (!local && !st.reflector) return out;  // plain iBGP: never re-advertise
  // RR rules: client routes reflect everywhere else; non-client routes
  // reflect to clients only.
  const bool clients_only = !local && is_reflector(sender);
  const std::vector<RouteTarget>& rts = pool_.get(route.rt_set);
  for (const Peer& p : st.peers) {
    // Never back to the sender, nor to the originator (whose loop guard
    // would drop it).
    if (p.node == sender || p.node == route.originator) continue;
    if (is_reflector(p.node)) {
      if (clients_only) continue;
    } else {
      // RT-constrained distribution (RFC 4684): a PE gets the route only
      // when it imports one of the route's targets. Reflectors take all.
      const std::vector<RouteTarget>& wants = pool_.get(p.membership);
      if (std::none_of(rts.begin(), rts.end(), [&](const RouteTarget& rt) {
            return std::binary_search(wants.begin(), wants.end(), rt);
          })) {
        continue;
      }
    }
    out.push_back(p.node);
  }
  return out;
}

void Bgp::propagate(ip::NodeId node, std::vector<ip::NodeId> targets,
                    NlriId id, const CompactRoute* route) {
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
  if (st.failed) return;  // a dead speaker goes silent
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
  const std::uint32_t row = st.adj_rib_in.row_of(id);
  if (row == AdjRibIn::kNil) return;  // never offered here
  const CompactRoute* new_best = nullptr;
  ip::NodeId new_sender = ip::kInvalidNode;
  bool new_direct = false;
  st.adj_rib_in.for_each(id, [&](ip::NodeId sender, const CompactRoute& r) {
    // Chain order is insertion-dependent, so every tie-break is explicit.
    // On a full attribute tie a direct offer (local, or from the
    // originator itself) beats a reflected copy — RFC 4456's shorter
    // CLUSTER_LIST under one level of reflection — then the lowest sender
    // wins.
    const bool direct = sender == ip::kInvalidNode || sender == r.originator;
    if (new_best == nullptr || better_compact(r, *new_best) ||
        (!better_compact(*new_best, r) &&
         (direct != new_direct ? direct : sender < new_sender))) {
      new_best = &r;
      new_sender = sender;
      new_direct = direct;
    }
  });

  if (row >= st.loc_rib.size()) {
    if (new_best == nullptr) return;  // nothing changed
    st.loc_rib.resize(st.adj_rib_in.row_count());
  }
  LocEntry& loc = st.loc_rib[row];
  if (new_best == nullptr && !loc.present) return;  // nothing changed
  if (new_best != nullptr && loc.present && loc.compact == *new_best &&
      loc.sender == new_sender) {
    return;
  }
  // The old targets come from the stored sender and route: whoever the
  // rule reached then holds the route now (membership changes resend the
  // difference as they arrive).
  std::vector<ip::NodeId> old_targets;
  if (loc.present) old_targets = advertise_targets(node, loc.sender, loc.compact);
  const VpnRouteKey& key = nlri_.key(id);
  if (new_best == nullptr) {
    // Best path lost: withdraw downstream, notify observers.
    loc = LocEntry{};
    --st.loc_rib_size;
    VpnRoute gone;
    gone.rd = key.first;
    gone.prefix = key.second;
    notify(node, gone, true);
    propagate(node, std::move(old_targets), id, nullptr);
    return;
  }

  const bool attrs_changed = !loc.present || !(loc.compact == *new_best);
  if (!loc.present) ++st.loc_rib_size;
  const CompactRoute best = *new_best;
  loc.present = true;
  loc.sender = new_sender;
  loc.compact = best;
  std::vector<ip::NodeId> new_targets =
      advertise_targets(node, new_sender, best);
  // A peer the new best no longer reaches must lose the old one
  // (RFC 4271 §9.2).
  propagate(node, minus(old_targets, new_targets), id, nullptr);
  if (attrs_changed) {
    materialize_into(key, best, pool_, notified_);
    notify(node, notified_, false);
    propagate(node, std::move(new_targets), id, &best);
  } else {
    // The same route from another sender: only peers it newly reaches
    // need it.
    propagate(node, minus(new_targets, old_targets), id, &best);
  }
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
    peers.erase(std::remove_if(peers.begin(), peers.end(),
                               [pe](const Peer& p) { return p.node == pe; }),
                peers.end());
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

std::size_t Bgp::rib_bytes(ip::NodeId node) const {
  const SpeakerState& st = speaker(node);
  return st.adj_rib_in.bytes() + st.loc_rib.capacity() * sizeof(LocEntry);
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
  if (id == kNoNlri) return std::nullopt;
  const std::uint32_t row = st.adj_rib_in.row_of(id);
  if (row >= st.loc_rib.size() || !st.loc_rib[row].present) {
    return std::nullopt;
  }
  return materialize(key, st.loc_rib[row].compact, pool_);
}

std::vector<std::uint32_t> Bgp::rows_in_key_order(
    const SpeakerState& st) const {
  std::vector<std::uint32_t> rows;
  rows.reserve(st.loc_rib_size);
  for (std::uint32_t row = 0; row < st.loc_rib.size(); ++row) {
    if (st.loc_rib[row].present) rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [&](std::uint32_t a, std::uint32_t b) {
    return nlri_.key(st.adj_rib_in.nlri_of(a)) <
           nlri_.key(st.adj_rib_in.nlri_of(b));
  });
  return rows;
}

std::vector<VpnRoute> Bgp::loc_rib(ip::NodeId node) const {
  const SpeakerState& st = speaker(node);
  std::vector<VpnRoute> out;
  out.reserve(st.loc_rib_size);
  for (std::uint32_t row : rows_in_key_order(st)) {
    out.push_back(materialize(nlri_.key(st.adj_rib_in.nlri_of(row)),
                              st.loc_rib[row].compact, pool_));
  }
  return out;
}

std::vector<std::pair<ip::NodeId, VpnRoute>> Bgp::adj_rib_in(
    ip::NodeId node) const {
  const SpeakerState& st = speaker(node);
  std::vector<std::pair<ip::NodeId, VpnRoute>> out;
  out.reserve(st.adj_rib_in.route_count());
  for (std::uint32_t row = 0; row < st.adj_rib_in.row_count(); ++row) {
    const NlriId id = st.adj_rib_in.nlri_of(row);
    st.adj_rib_in.for_each(id, [&](ip::NodeId sender, const CompactRoute& r) {
      out.emplace_back(sender, materialize(nlri_.key(id), r, pool_));
    });
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::tie(a.second.rd, a.second.prefix, a.first) <
           std::tie(b.second.rd, b.second.prefix, b.first);
  });
  return out;
}

}  // namespace mvpn::routing
