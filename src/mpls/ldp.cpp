#include "mpls/ldp.hpp"

#include <algorithm>
#include <utility>

namespace mvpn::mpls {

Ldp::Ldp(routing::ControlPlane& cp, routing::Igp& igp, MplsDomain& domain)
    : cp_(cp), igp_(igp), domain_(domain) {
  igp_.on_spf([this](ip::NodeId router) { on_spf(router); });
}

void Ldp::enable_router(ip::NodeId router) {
  if (router >= enabled_.size()) enabled_.resize(router + 1, false);
  enabled_[router] = true;
}

std::vector<Ldp::FecId>::const_iterator Ldp::lower_bound(
    const ip::Prefix& fec) const {
  return std::lower_bound(
      by_prefix_.begin(), by_prefix_.end(), fec,
      [this](FecId id, const ip::Prefix& p) { return fecs_[id] < p; });
}

Ldp::FecId Ldp::intern(const ip::Prefix& fec) {
  const auto it = lower_bound(fec);
  if (it != by_prefix_.end() && fecs_[*it] == fec) return *it;
  const auto id = static_cast<FecId>(fecs_.size());
  fecs_.push_back(fec);
  announced_.push_back(false);
  by_prefix_.insert(it, id);
  return id;
}

std::optional<Ldp::FecId> Ldp::fec_id(const ip::Prefix& fec) const {
  const auto it = lower_bound(fec);
  if (it == by_prefix_.end() || fecs_[*it] != fec) return std::nullopt;
  return *it;
}

Ldp::FecState& Ldp::fec_state(ip::NodeId router, FecId id) {
  if (router >= lib_.size()) lib_.resize(router + 1);
  RouterLib& lib = lib_[router];
  if (id < lib.fecs.size()) return lib.fecs[id];
  if (lib.fecs.empty()) {
    // Lay out the neighbour slots once: the enabled neighbours in
    // adjacency order, each once however many links reach it.
    cp_.topology().for_each_adjacency(router, [&](const net::Adjacency& adj) {
      if (enabled(adj.neighbor) &&
          std::find(lib.peers.begin(), lib.peers.end(), adj.neighbor) ==
              lib.peers.end()) {
        lib.peers.push_back(adj.neighbor);
      }
    });
  }
  lib.fecs.resize(fecs_.size());
  lib.remote.resize(fecs_.size() * lib.peers.size(), ip::kNoLabel);
  return lib.fecs[id];
}

const Ldp::FecState* Ldp::known(ip::NodeId router, FecId id) const {
  if (router >= lib_.size() || id >= lib_[router].fecs.size()) return nullptr;
  const FecState& st = lib_[router].fecs[id];
  return st.owner == ip::kInvalidNode ? nullptr : &st;
}

const std::uint32_t* Ldp::remote_label(ip::NodeId router, FecId id,
                                       ip::NodeId nb) const {
  const RouterLib& lib = lib_[router];
  const std::size_t n = lib.peers.size();
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (lib.peers[slot] != nb) continue;
    const std::uint32_t& label = lib.remote[id * n + slot];
    return label != ip::kNoLabel ? &label : nullptr;
  }
  return nullptr;
}

std::size_t Ldp::peer_slot(RouterLib& lib, ip::NodeId from) {
  const std::size_t n = lib.peers.size();
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (lib.peers[slot] == from) return slot;
  }
  std::vector<std::uint32_t> wider(lib.fecs.size() * (n + 1), ip::kNoLabel);
  for (std::size_t f = 0; f < lib.fecs.size(); ++f) {
    std::copy_n(lib.remote.begin() + static_cast<std::ptrdiff_t>(f * n), n,
                wider.begin() + static_cast<std::ptrdiff_t>(f * (n + 1)));
  }
  lib.remote.swap(wider);
  lib.peers.push_back(from);
  return n;
}

std::size_t Ldp::fec_count() const {
  return static_cast<std::size_t>(
      std::count(announced_.begin(), announced_.end(), true));
}

void Ldp::announce_egress(ip::NodeId egress, const ip::Prefix& fec) {
  ++generation_;
  const FecId id = intern(fec);
  announced_[id] = true;
  fec_state(egress, id).owner = egress;
  obs::FlightRecorder& rec = cp_.topology().recorder();
  if (rec.enabled(obs::Category::kSignaling)) {
    // Anchors the span analysis: mapping latency is measured from this
    // announcement to each router's kLdpMapping acceptance for the owner.
    rec.record({.node = egress,
                .a = net::kImplicitNullLabel,
                .b = egress,
                .type = obs::EventType::kLdpAnnounce});
  }
  // Egress requests PHP: advertise implicit-null.
  advertise(egress, id, egress, net::kImplicitNullLabel);
}

void Ldp::advertise(ip::NodeId router, FecId id, ip::NodeId owner,
                    std::uint32_t label) {
  cp_.topology().for_each_adjacency(router, [&](const net::Adjacency& adj) {
    const ip::NodeId nb = adj.neighbor;
    if (!enabled(nb)) return;  // LDP neighbors: enabled adjacent routers
    auto deliver = [this, nb, router, id, owner, label] {
      receive_mapping(nb, router, id, owner, label);
    };
    static_assert(sim::InlineCallable::fits_inline<decltype(deliver)>);
    cp_.send_adjacent(router, nb, "ldp.mapping", 30, std::move(deliver));
  });
}

void Ldp::learn_fec(ip::NodeId router, FecId id, ip::NodeId owner) {
  FecState& st = fec_state(router, id);
  if (st.owner != ip::kInvalidNode) return;  // already known
  st.owner = owner;
  if (router == owner) return;
  // Independent control: allocate and advertise immediately.
  st.local_label = domain_.state_of(router).allocator.allocate();
  advertise(router, id, owner, st.local_label);
}

void Ldp::receive_mapping(ip::NodeId at, ip::NodeId from, FecId id,
                          ip::NodeId owner, std::uint32_t label) {
  if (!enabled(at)) return;
  learn_fec(at, id, owner);
  RouterLib& lib = lib_[at];
  const std::size_t slot = peer_slot(lib, from);
  // Liberal retention: newest mapping wins.
  lib.remote[id * lib.peers.size() + slot] = label;
  ++generation_;
  obs::FlightRecorder& rec = cp_.topology().recorder();
  if (rec.enabled(obs::Category::kSignaling)) {
    rec.record({.node = at,
                .a = label,
                .b = owner,
                .type = obs::EventType::kLdpMapping,
                .aux = static_cast<std::uint8_t>(from & 0xFF)});
  }
  refresh_lfib(at, id);
}

void Ldp::refresh_lfib(ip::NodeId router, FecId id) {
  const FecState& st = lib_[router].fecs[id];
  if (router == st.owner || st.local_label == ip::kNoLabel) return;
  Lfib& lfib = domain_.state_of(router).lfib;

  const routing::Igp::NextHopEntry* nh = igp_.next_hop(router, st.owner);
  if (nh == nullptr) {
    lfib.remove(st.local_label);
    return;
  }
  const std::uint32_t* remote = remote_label(router, id, nh->via);
  if (remote == nullptr) {
    // Next hop has not given us a label yet; entry stays absent until the
    // mapping arrives (liberal retention will then satisfy it instantly).
    lfib.remove(st.local_label);
    return;
  }

  LfibEntry entry;
  entry.in_label = st.local_label;
  entry.next_hop = nh->via;
  entry.out_iface = nh->iface;
  entry.fec = fecs_[id];
  if (*remote == net::kImplicitNullLabel) {
    entry.op = LabelOp::kPop;  // penultimate hop: pop and forward
  } else {
    entry.op = LabelOp::kSwap;
    entry.out_label = *remote;
  }
  lfib.install(entry);
}

void Ldp::on_spf(ip::NodeId router) {
  // The IGP next hop feeds both the LFIB entries refreshed here and every
  // ftn() answer, so any SPF invalidates cached FTN resolutions.
  ++generation_;
  for (FecId id : by_prefix_) {
    if (known(router, id) != nullptr) refresh_lfib(router, id);
  }
}

void Ldp::withdraw_fec(const ip::Prefix& fec) {
  ++generation_;
  const std::optional<FecId> id = fec_id(fec);
  if (!id) return;
  for (ip::NodeId router = 0; router < lib_.size(); ++router) {
    const FecState* st = known(router, *id);
    if (st == nullptr) continue;
    if (st->local_label != ip::kNoLabel) {
      domain_.state_of(router).lfib.remove(st->local_label);
    }
    RouterLib& lib = lib_[router];
    lib.fecs[*id] = FecState{};
    const std::size_t n = lib.peers.size();
    std::fill_n(lib.remote.begin() + static_cast<std::ptrdiff_t>(*id * n), n,
                ip::kNoLabel);
  }
  announced_[*id] = false;
}

std::optional<Ldp::Ftn> Ldp::ftn(ip::NodeId router,
                                 const ip::Prefix& fec) const {
  const std::optional<FecId> id = fec_id(fec);
  if (!id) return std::nullopt;
  const FecState* st = known(router, *id);
  if (st == nullptr) return std::nullopt;

  const routing::Igp::NextHopEntry* nh = igp_.next_hop(router, st->owner);
  if (nh == nullptr) return std::nullopt;
  const std::uint32_t* remote = remote_label(router, *id, nh->via);
  if (remote == nullptr) return std::nullopt;

  Ftn f;
  f.next_hop = nh->via;
  f.out_iface = nh->iface;
  if (*remote == net::kImplicitNullLabel) {
    f.implicit_null = true;
  } else {
    f.out_label = *remote;
  }
  return f;
}

std::size_t Ldp::bindings_at(ip::NodeId router) const {
  if (router >= lib_.size()) return 0;
  const std::vector<std::uint32_t>& remote = lib_[router].remote;
  return static_cast<std::size_t>(
      std::count_if(remote.begin(), remote.end(),
                    [](std::uint32_t l) { return l != ip::kNoLabel; }));
}

}  // namespace mvpn::mpls
