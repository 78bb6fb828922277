#include "vpn/router.hpp"

#include <functional>
#include <stdexcept>

#include "obs/flow_stats.hpp"
#include "obs/latency.hpp"

namespace mvpn::vpn {

namespace {
/// Flow-accounting key: bit-identical to the fastpath FlowKey packing, so
/// the telemetry plane and the flow caches agree on flow identity.
[[nodiscard]] obs::FlowStatsTable::Key flow_acct_key(
    const net::Packet& p) noexcept {
  return obs::FlowStatsTable::make_key(p.ip.src.value(), p.ip.dst.value(),
                                       p.l4.src_port, p.l4.dst_port,
                                       p.ip.protocol);
}
}  // namespace

const char* to_string(Role r) noexcept {
  switch (r) {
    case Role::kCe: return "CE";
    case Role::kPe: return "PE";
    case Role::kP: return "P";
  }
  return "?";
}

Router::Router(net::Topology& topo, ip::NodeId id, std::string name, Role role)
    : net::Node(topo, id, std::move(name)), role_(role) {}

void Router::trace_drop(const net::Packet& p, obs::DropReason reason) noexcept {
  // Every router-level drop (TTL, no-route, label miss, police, ESP
  // reject) funnels through here before the trace gate, so the flow table
  // sees drops even when tracing is off.
  if (obs::FlowStatsTable* fs = topology().flow_stats()) [[unlikely]] {
    fs->record_drop(flow_acct_key(p), p.flow_id,
                    static_cast<std::uint32_t>(p.wire_size()),
                    static_cast<std::uint8_t>(reason));
  }
  obs::FlightRecorder& r = rec();
  if (!r.enabled(obs::Category::kVpn)) return;
  r.record({.packet_id = p.id,
            .node = id(),
            .bytes = static_cast<std::uint32_t>(p.wire_size()),
            .type = obs::EventType::kDrop,
            .reason = reason,
            .cls = p.trace_class()});
}

Vrf& Router::add_vrf(VrfConfig config) {
  if (role_ != Role::kPe) {
    throw std::logic_error("Router::add_vrf: VRFs exist on PE routers only");
  }
  vrfs_.push_back(std::make_unique<Vrf>(std::move(config)));
  bump_config_gen();
  return *vrfs_.back();
}

Vrf* Router::vrf_by_vpn(VpnId id) {
  for (auto& v : vrfs_) {
    if (v->vpn_id() == id) return v.get();
  }
  return nullptr;
}

const Vrf* Router::vrf_by_vpn(VpnId id) const {
  for (const auto& v : vrfs_) {
    if (v->vpn_id() == id) return v.get();
  }
  return nullptr;
}

Vrf* Router::vrf_of_interface(ip::IfIndex iface) {
  auto it = iface_vrf_.find(iface);
  if (it == iface_vrf_.end()) return nullptr;
  return vrf_by_vpn(it->second);
}

void Router::bind_interface_to_vrf(ip::IfIndex iface, VpnId id) {
  Vrf* vrf = vrf_by_vpn(id);
  if (vrf == nullptr) {
    throw std::invalid_argument("Router: no VRF for that VPN id");
  }
  iface_vrf_[iface] = id;
  vrf->attach_interface(iface);
  bump_config_gen();
}

void Router::add_policer(qos::Phb phb, double cir_bytes_s, double cbs,
                         double ebs) {
  policers_[phb] = std::make_unique<qos::Policer>(cir_bytes_s, cbs, ebs);
  bump_config_gen();
}

void Router::add_shaper(qos::Phb phb, double rate_bytes_s,
                        double burst_bytes) {
  shapers_[phb] = std::make_unique<qos::Shaper>(rate_bytes_s, burst_bytes);
  bump_config_gen();
}

void Router::add_outbound_sa(const ip::Prefix& dst_prefix,
                             std::shared_ptr<ipsec::EspSa> sa) {
  outbound_sas_.emplace_back(dst_prefix, std::move(sa));
  bump_config_gen();
}

void Router::add_inbound_sa(std::shared_ptr<ipsec::EspSa> sa) {
  inbound_sas_[sa->config().spi] = std::move(sa);
  bump_config_gen();
}

void Router::add_local_prefix(const ip::Prefix& prefix, VpnId vpn) {
  local_vpn_.insert(prefix, vpn);
  ip::RouteEntry entry;
  entry.prefix = prefix;
  entry.next_hop.local = true;
  entry.source = ip::RouteSource::kConnected;
  entry.admin_distance = 0;
  fib_.install(entry);
  // local_vpn_ feeds the delivery-context override, which cached kLocal
  // decisions bake in.
  bump_config_gen();
}

void Router::after_crypto(std::size_t bytes, sim::Scheduler::Handler then) {
  if (!crypto_cost_) {
    then();
    return;
  }
  // The crypto engine is a serial resource: packets queue for it, so a
  // gateway's throughput is genuinely bounded by cipher speed (the paper's
  // "security gear ... create bottlenecks" concern), not merely delayed.
  const auto cost =
      static_cast<sim::SimTime>(crypto_cost_->packet_cost_ns(bytes));
  sim::Scheduler& sched = topology().scheduler();
  const sim::SimTime start = std::max(sched.now(), crypto_busy_until_);
  crypto_busy_until_ = start + cost;
  sched.schedule_at(crypto_busy_until_, std::move(then));
}

bool Router::maybe_esp_encap(net::Packet& p) {
  if (p.esp) return false;
  for (auto& [prefix, sa] : outbound_sas_) {
    if (prefix.contains(p.ip.dst)) {
      sa->encapsulate(p);
      return true;
    }
  }
  return false;
}

void Router::inject(net::PacketPtr p) {
  qos::Phb phb = qos::Phb::kBe;
  qos::Policer* policer = nullptr;
  qos::Shaper* shaper = nullptr;

  // Flow fastpath: replay the flow's cached classification + meter binding
  // instead of re-running the rule match. The meters themselves stay in
  // the per-packet path — they are stateful token buckets.
  IngressEntry* e = nullptr;
  bool found = false;
  FlowKey key;
  if (flowcache_enabled_ && p->flow_id != 0 && !p->esp) {
    key = flow_key_of(*p);
    const auto probe = ingress_cache_.find(
        key.tag_key(), [&key](const IngressEntry& s) { return s.key == key; });
    e = probe.slot;
    found = probe.found;
  }
  bool replayed = false;
  if (found) {
    if (e->gen_sum == ingress_gen_sum()) {
      ++fc_stats_.hits;
      phb = e->phb;
      if (e->marked) {
        classifier_->count_hit(e->rule);
        p->ip.dscp = e->dscp;
      }
      policer = e->policer;
      shaper = e->shaper;
      replayed = true;
    } else {
      ++fc_stats_.invalidated;
      trace_fastpath(obs::EventType::kFastpathInvalidate, *p, p->flow_id, 0);
      ingress_cache_.release(e);
    }
  }

  if (!replayed) {
    phb = qos::phb_of_dscp(p->visible_dscp());
    bool marked = false;
    std::int32_t rule = qos::CbqClassifier::kUnmatched;
    if (classifier_) {
      const qos::CbqClassifier::Decision d =
          classifier_->decide(qos::visible_fields(*p));
      phb = d.phb;
      rule = d.rule;
      marked = true;
      const std::uint8_t dscp = qos::dscp_of(phb);
      if (p->esp) {
        p->esp->outer.dscp = dscp;
      } else {
        p->ip.dscp = dscp;
      }
      auto pol = policers_.find(phb);
      if (pol != policers_.end()) policer = pol->second.get();
    }
    auto sh = shapers_.find(phb);
    if (sh != shapers_.end()) shaper = sh->second.get();
    if (e != nullptr) {
      ++fc_stats_.misses;
      e->key = key;
      e->phb = phb;
      e->rule = rule;
      e->marked = marked;
      e->dscp = p->ip.dscp;
      e->policer = policer;
      e->shaper = shaper;
      ingress_cache_.commit(e, ingress_gen_sum());
      trace_fastpath(obs::EventType::kFastpathResolve, *p, p->flow_id, 0);
    }
  }

  if (policer != nullptr) {
    const qos::Color color =
        policer->check(topology().scheduler().now(), p->wire_size());
    if (obs::FlowStatsTable* fs = topology().flow_stats()) [[unlikely]] {
      fs->record_color(flow_acct_key(*p), p->flow_id,
                       static_cast<std::uint8_t>(color));
    }
    if (color == qos::Color::kRed) {
      counters_.policed.add();
      trace_drop(*p, obs::DropReason::kPoliced);
      return;  // drop out-of-contract traffic at the edge
    }
    if (color == qos::Color::kYellow) {
      // Remark to the next drop precedence within the AF class.
      const unsigned cls = qos::af_class(phb);
      if (cls >= 1 && cls <= 4 && qos::drop_precedence(phb) == 1) {
        static constexpr qos::Phb kAf2[] = {qos::Phb::kAf12, qos::Phb::kAf22,
                                            qos::Phb::kAf32, qos::Phb::kAf42};
        p->ip.dscp = qos::dscp_of(kAf2[cls - 1]);
      }
    }
  }
  // Edge shaping: hold out-of-contract packets until they conform.
  if (shaper != nullptr) {
    const sim::SimTime delay =
        shaper->reserve(topology().scheduler().now(), p->wire_size());
    if (delay > 0) {
      topology().scheduler().schedule_in(
          delay, [self = this, pkt = std::move(p)]() mutable {
            self->forward_ip(std::move(pkt), nullptr);
          });
      return;
    }
  }
  forward_ip(std::move(p), nullptr);
}

void Router::install_pvc(std::uint32_t vc_id, PvcSwitchEntry entry) {
  pvc_table_[vc_id] = entry;
  bump_config_gen();
}

void Router::add_pvc_route(const ip::Prefix& prefix, std::uint32_t vc_id) {
  pvc_routes_.insert(prefix, vc_id);
  has_pvc_ingress_ = true;
  bump_config_gen();
}

void Router::forward_pvc(net::PacketPtr p) {
  auto it = pvc_table_.find(p->pvc->vc_id);
  if (it == pvc_table_.end()) {
    counters_.label_miss.add();
    trace_drop(*p, obs::DropReason::kLabelMiss);
    return;
  }
  if (it->second.terminate) {
    p->pvc.reset();
    forward_ip(std::move(p), nullptr);
    return;
  }
  counters_.forwarded.add();
  send(std::move(p), it->second.out_iface);
}

void Router::receive(net::PacketPtr p, ip::IfIndex in_if) {
  ++p->hop_count;
  if (p->has_labels()) {
    forward_labeled(std::move(p));
    return;
  }
  if (p->pvc) {
    forward_pvc(std::move(p));
    return;
  }
  // ESP tunnel termination: the outer destination is one of our addresses
  // (the loopback, or an address inside a locally attached site — the
  // latter lets IPsec tunnels terminate on gateways reached *through* an
  // MPLS VPN, the combined security+QoS deployment).
  const bool esp_terminates_here =
      p->esp &&
      (p->esp->outer.dst == loopback() ||
       (inbound_sas_.count(p->esp->spi) != 0 &&
        local_vpn_.longest_match(p->esp->outer.dst) != nullptr));
  if (esp_terminates_here) {
    auto it = inbound_sas_.find(p->esp->spi);
    if (it == inbound_sas_.end() || !it->second->decapsulate(*p)) {
      counters_.esp_rejected.add();
      trace_drop(*p, obs::DropReason::kEspRejected);
      return;
    }
    const std::size_t bytes = p->wire_size();
    after_crypto(bytes, [self = this, pkt = std::move(p)]() mutable {
      self->forward_ip(std::move(pkt), nullptr);
    });
    return;
  }
  Vrf* vrf = vrf_of_interface(in_if);
  // A packet arriving on a VRF-bound (customer-facing) interface is the
  // VPN's offered load: exactly once per packet, at the ingress PE, with
  // full attribution. (The egress PE's pop-and-deliver path reaches
  // forward_ip via the transit path, never through here.)
  if (vrf != nullptr) {
    if (obs::FlowStatsTable* fs = topology().flow_stats()) [[unlikely]] {
      fs->record_offered(
          flow_acct_key(*p), p->flow_id,
          static_cast<std::uint32_t>(p->wire_size()), id(), vrf->vpn_id(),
          static_cast<std::uint8_t>(qos::phb_of_dscp(p->visible_dscp())));
    }
  }
  forward_ip(std::move(p), vrf);
}

void Router::forward_ip(net::PacketPtr p, Vrf* vrf) {
  // Outbound IPsec policy (CPE security gateway): encrypt, charge crypto
  // time, then route on the outer header.
  if (!p->esp && vrf == nullptr && !outbound_sas_.empty()) {
    // Local destinations are never tunneled.
    const ip::RouteEntry* direct = fib_.lookup(p->ip.dst);
    const bool local_dst = direct != nullptr && direct->next_hop.local;
    if (!local_dst && maybe_esp_encap(*p)) {
      const std::size_t bytes = p->wire_size();
      after_crypto(bytes, [self = this, pkt = std::move(p)]() mutable {
        self->forward_ip(std::move(pkt), nullptr);
      });
      return;
    }
  }

  // Overlay-VPN ingress: destinations mapped to a PVC are encapsulated and
  // circuit-switched instead of routed.
  if (!p->pvc && vrf == nullptr) {
    if (const std::uint32_t* vc = pvc_routes_.longest_match(p->ip.dst)) {
      p->pvc = net::PvcEncap{*vc};
      forward_pvc(std::move(p));
      return;
    }
  }

  // Flow fastpath: a valid entry replays the flow's terminal forwarding
  // decision without the LPM lookup or tunnel resolution. Security
  // gateways (outbound SAs) and overlay ingress (PVC routes) route
  // per-packet through stateful detours above, so they opt out wholesale.
  ForwardEntry* slot = nullptr;
  if (flowcache_enabled_ && p->flow_id != 0 && !p->esp && !p->pvc &&
      outbound_sas_.empty() && !has_pvc_ingress_) {
    const FlowKey key = flow_key_of(*p);
    const VpnId ctx = vrf != nullptr ? vrf->vpn_id() : kGlobalVpn;
    const auto probe =
        forward_cache_.find(key.tag_key(), [&](const ForwardEntry& s) {
          return s.key == key && s.ctx == ctx;
        });
    slot = probe.slot;
    if (probe.found) {
      if (slot->gen_sum == forward_gen_sum(vrf)) {
        ++fc_stats_.hits;
        replay_forward(*slot, std::move(p));
        return;
      }
      ++fc_stats_.invalidated;
      trace_fastpath(obs::EventType::kFastpathInvalidate, *p, p->flow_id,
                     static_cast<std::uint8_t>(slot->act));
    }
    // Armed for recording (a stale or evicted entry is freed first);
    // valid only once resolved.
    forward_cache_.release(slot);
    slot->key = key;
    slot->ctx = ctx;
  }

  // Core routers see only the outer header of encrypted traffic.
  const ip::Ipv4Address dst = p->esp ? p->esp->outer.dst : p->ip.dst;
  const ip::RouteTable& table = vrf != nullptr ? vrf->table() : fib_;
  const ip::RouteEntry* route = table.lookup(dst);
  if (route == nullptr) {
    counters_.no_route.add();
    trace_drop(*p, obs::DropReason::kNoRoute);
    return;
  }

  if (route->next_hop.local) {
    VpnId vpn = vrf != nullptr ? vrf->vpn_id() : kGlobalVpn;
    if (const VpnId* reg = local_vpn_.longest_match(dst)) vpn = *reg;
    record_forward(slot, *p, FlowAction::kLocal, vpn, 0, 0, false,
                   ip::kInvalidIf, vrf);
    deliver_local(std::move(p), vpn);
    return;
  }

  // TTL handling on the visible header.
  std::uint8_t& ttl = p->esp ? p->esp->outer.ttl : p->ip.ttl;
  if (ttl <= 1) {
    counters_.ttl_expired.add();
    trace_drop(*p, obs::DropReason::kTtlExpired);
    return;
  }
  --ttl;

  if (route->vpn_label != ip::kNoLabel &&
      route->egress_pe != ip::kInvalidNode) {
    impose_and_tunnel(std::move(p), *route,
                      vrf != nullptr ? vrf->vpn_id() : kGlobalVpn, slot, vrf);
    return;
  }

  counters_.forwarded.add();
  // ECMP: choose among equal-cost next hops by flow hash (5-tuple of the
  // visible headers) so one flow never straddles two paths.
  const qos::VisibleFields vf = qos::visible_fields(*p);
  const std::size_t flow_hash =
      std::hash<std::uint64_t>{}((std::uint64_t{vf.src.value()} << 32) ^
                                 vf.dst.value()) ^
      std::hash<std::uint32_t>{}((std::uint32_t{vf.src_port.value_or(0)}
                                  << 16) |
                                 vf.dst_port.value_or(0));
  const ip::IfIndex out = route->next_hop_for(flow_hash).iface;
  record_forward(slot, *p, FlowAction::kForward, kGlobalVpn, 0, 0, false,
                 out, vrf);
  send(std::move(p), out);
}

void Router::replay_forward(const ForwardEntry& e, net::PacketPtr p) {
  switch (e.act) {
    case FlowAction::kLocal:
      deliver_local(std::move(p), e.deliver_vpn);
      return;
    case FlowAction::kForward:
    case FlowAction::kImpose: {
      // Fastpath packets are never ESP, so the visible header is p->ip.
      std::uint8_t& ttl = p->ip.ttl;
      if (ttl <= 1) {
        counters_.ttl_expired.add();
        trace_drop(*p, obs::DropReason::kTtlExpired);
        return;
      }
      --ttl;
      if (e.act == FlowAction::kForward) {
        counters_.forwarded.add();
        send(std::move(p), e.out_iface);
        return;
      }
      // kImpose. EXP is re-derived per packet: the edge meter may have
      // remarked this packet's DSCP to a higher drop precedence.
      const std::uint8_t exp = exp_map_.exp_for_dscp(p->ip.dscp);
      p->push_label(net::MplsShim{e.vpn_label, exp, 64});
      if (e.push_tunnel) {
        p->push_label(net::MplsShim{e.tunnel_label, exp, 64});
      }
      if (rec().enabled(obs::Category::kMpls)) {
        rec().record({.packet_id = p->id,
                      .node = id(),
                      .a = e.vpn_label,
                      .b = e.push_tunnel ? e.tunnel_label : 0,
                      .bytes = static_cast<std::uint32_t>(p->wire_size()),
                      .type = obs::EventType::kLabelPush,
                      .cls = exp});
      }
      counters_.forwarded.add();
      send(std::move(p), e.out_iface);
      return;
    }
  }
}

void Router::record_forward(ForwardEntry* slot, const net::Packet& p,
                            FlowAction act, VpnId deliver_vpn,
                            std::uint32_t vpn_label,
                            std::uint32_t tunnel_label, bool push_tunnel,
                            ip::IfIndex out_iface, const Vrf* vrf) {
  if (slot == nullptr) return;
  ++fc_stats_.misses;
  slot->act = act;
  slot->deliver_vpn = deliver_vpn;
  slot->vpn_label = vpn_label;
  slot->tunnel_label = tunnel_label;
  slot->push_tunnel = push_tunnel;
  slot->out_iface = out_iface;
  forward_cache_.commit(slot, forward_gen_sum(vrf));
  trace_fastpath(obs::EventType::kFastpathResolve, p, p.flow_id,
                 static_cast<std::uint8_t>(act));
}

void Router::trace_fastpath(obs::EventType type, const net::Packet& p,
                            std::uint32_t a, std::uint8_t action) noexcept {
  obs::FlightRecorder& r = rec();
  if (!r.enabled(obs::Category::kFastpath)) return;
  r.record({.packet_id = p.id,
            .node = id(),
            .a = a,
            .bytes = static_cast<std::uint32_t>(p.wire_size()),
            .type = type,
            .cls = p.trace_class(),
            .aux = action});
}

void Router::impose_and_tunnel(net::PacketPtr p, const ip::RouteEntry& route,
                               VpnId vpn, ForwardEntry* cache_slot,
                               const Vrf* vrf) {
  const std::uint8_t exp = exp_map_.exp_for_dscp(p->visible_dscp());
  const TunnelBinding tb = tunnel_to(route.egress_pe, vpn);
  if (!tb.found) {
    counters_.no_tunnel.add();
    trace_drop(*p, obs::DropReason::kNoTunnel);
    return;
  }
  record_forward(cache_slot, *p, FlowAction::kImpose, kGlobalVpn,
                 route.vpn_label, tb.label, tb.push_label, tb.out_iface, vrf);
  p->push_label(net::MplsShim{route.vpn_label, exp, 64});
  if (tb.push_label) {
    p->push_label(net::MplsShim{tb.label, exp, 64});
  }
  if (rec().enabled(obs::Category::kMpls)) {
    rec().record({.packet_id = p->id,
                  .node = id(),
                  .a = route.vpn_label,
                  .b = tb.push_label ? tb.label : 0,
                  .bytes = static_cast<std::uint32_t>(p->wire_size()),
                  .type = obs::EventType::kLabelPush,
                  .cls = exp});
  }
  counters_.forwarded.add();
  send(std::move(p), tb.out_iface);
}

Router::TunnelBinding Router::tunnel_to(ip::NodeId egress_pe,
                                        VpnId vpn) const {
  TunnelBinding tb;
  // Prefer a bound traffic-engineered LSP: VPN-scoped first, then global.
  if (rsvp_ != nullptr) {
    for (const VpnId scope : {vpn, kGlobalVpn}) {
      auto it = te_bindings_.find({egress_pe, scope});
      if (it == te_bindings_.end()) continue;
      const mpls::RsvpTe::Lsp& lsp = rsvp_->lsp(it->second);
      if (lsp.state == mpls::RsvpTe::LspState::kUp) {
        tb.found = true;
        tb.push_label = !lsp.head_implicit_null;
        tb.label = lsp.head_label;
        tb.out_iface = lsp.head_iface;
        return tb;
      }
    }
  }
  // Fall back to the LDP LSP toward the egress PE loopback.
  if (ldp_ != nullptr) {
    const ip::Prefix fec =
        ip::Prefix::host(topology().node(egress_pe).loopback());
    if (auto ftn = ldp_->ftn(id(), fec)) {
      tb.found = true;
      tb.push_label = !ftn->implicit_null;
      tb.label = ftn->out_label;
      tb.out_iface = ftn->out_iface;
      return tb;
    }
  }
  return tb;
}

void Router::forward_labeled(net::PacketPtr p) {
  if (lsr_ == nullptr) {
    counters_.label_miss.add();
    trace_drop(*p, obs::DropReason::kLabelMiss);
    return;
  }
  const std::uint32_t in_label = p->top_label().label;

  // Transit fastpath: keyed by incoming label, validated against the LFIB
  // generation. Mostly saves the egress vrf_by_vpn scan — the LFIB itself
  // is already a flat array — but keeps the invalidation story uniform
  // across ingress and transit.
  TransitEntry* t = nullptr;
  if (flowcache_enabled_) {
    const auto probe = transit_cache_.find(
        in_label,
        [in_label](const TransitEntry& s) { return s.in_label == in_label; });
    t = probe.slot;
    if (probe.found) {
      if (t->gen_sum == transit_gen_sum()) {
        ++fc_stats_.hits;
        execute_transit(std::move(p), in_label, t->op, t->out_label,
                        t->out_iface, t->vrf);
        return;
      }
      ++fc_stats_.invalidated;
      trace_fastpath(obs::EventType::kFastpathInvalidate, *p, in_label,
                     static_cast<std::uint8_t>(t->op));
      transit_cache_.release(t);
    }
  }

  const mpls::LfibEntry* entry = lsr_->lfib.lookup(in_label);
  if (entry == nullptr) {
    counters_.label_miss.add();
    trace_drop(*p, obs::DropReason::kLabelMiss);
    return;
  }
  Vrf* vrf = nullptr;
  if (entry->op == mpls::LabelOp::kPopDeliver) {
    vrf = vrf_by_vpn(entry->vrf_id);
    if (vrf == nullptr) {
      p->pop_label();
      counters_.label_miss.add();
      trace_drop(*p, obs::DropReason::kLabelMiss);
      return;
    }
  }
  if (t != nullptr) {
    ++fc_stats_.misses;
    t->in_label = in_label;
    t->op = entry->op;
    t->out_label = entry->out_label;
    t->out_iface = entry->out_iface;
    t->vrf = vrf;
    transit_cache_.commit(t, transit_gen_sum());
    trace_fastpath(obs::EventType::kFastpathResolve, *p, in_label,
                   static_cast<std::uint8_t>(entry->op));
  }
  execute_transit(std::move(p), in_label, entry->op, entry->out_label,
                  entry->out_iface, vrf);
}

void Router::execute_transit(net::PacketPtr p, std::uint32_t in_label,
                             mpls::LabelOp op, std::uint32_t out_label,
                             ip::IfIndex out_iface, Vrf* vrf) {
  const bool trace_mpls = rec().enabled(obs::Category::kMpls);
  switch (op) {
    case mpls::LabelOp::kSwap:
      p->swap_label(out_label);
      if (p->top_label().ttl == 0) {
        counters_.ttl_expired.add();
        trace_drop(*p, obs::DropReason::kTtlExpired);
        return;
      }
      if (trace_mpls) {
        rec().record({.packet_id = p->id,
                      .node = id(),
                      .a = in_label,
                      .b = out_label,
                      .bytes = static_cast<std::uint32_t>(p->wire_size()),
                      .type = obs::EventType::kLabelSwap,
                      .cls = p->trace_class()});
      }
      counters_.forwarded.add();
      send(std::move(p), out_iface);
      return;
    case mpls::LabelOp::kPop:
      p->pop_label();
      if (trace_mpls) {
        // Penultimate-hop pop: the label is stripped one hop early.
        rec().record({.packet_id = p->id,
                      .node = id(),
                      .a = in_label,
                      .bytes = static_cast<std::uint32_t>(p->wire_size()),
                      .type = obs::EventType::kLabelPop,
                      .cls = p->trace_class()});
      }
      counters_.forwarded.add();
      send(std::move(p), out_iface);
      return;
    case mpls::LabelOp::kPopDeliver: {
      p->pop_label();
      if (rec().enabled(obs::Category::kVpn)) {
        rec().record({.packet_id = p->id,
                      .node = id(),
                      .a = in_label,
                      .b = vrf->vpn_id(),
                      .bytes = static_cast<std::uint32_t>(p->wire_size()),
                      .type = obs::EventType::kVrfDeliver,
                      .cls = p->trace_class()});
      }
      forward_ip(std::move(p), vrf);
      return;
    }
  }
}

void Router::deliver_local(net::PacketPtr p, VpnId vpn) {
  counters_.delivered.add();
  // Close the delay anatomy: everything since the last link stamp (ESP
  // decrypt charge, VRF lookup time) is egress processing. After this,
  // queue + tx + prop + proc == now - created_at, exactly.
  const sim::SimTime deliver_now = topology().scheduler().now();
  const sim::SimTime tail = deliver_now - p->delay.anchor(p->created_at);
  if (tail > 0) {
    p->delay.proc += tail;
    if (obs::LatencyCollector* lc = topology().latency_collector()) {
      lc->record_processing(id(), tail);
    }
  }
  p->delay.last = deliver_now;
  // OAM probes (127/8 destinations) go to the OAM hooks, not the sink.
  if (!oam_taps_.empty() && (p->ip.dst.value() >> 24) == 127) {
    oam_taps_.invoke(*p);
    return;
  }
  if (obs::FlowStatsTable* fs = topology().flow_stats()) [[unlikely]] {
    fs->record_delivered(flow_acct_key(*p), p->flow_id,
                         static_cast<std::uint32_t>(p->wire_size()),
                         deliver_now - p->created_at);
  }
  if (rec().enabled(obs::Category::kVpn)) {
    rec().record({.packet_id = p->id,
                  .node = id(),
                  .a = vpn,
                  .bytes = static_cast<std::uint32_t>(p->wire_size()),
                  .type = obs::EventType::kLocalDeliver,
                  .cls = p->trace_class()});
  }
  if (!delivery_taps_.empty()) delivery_taps_.invoke(*p, vpn);
  if (sink_) sink_(*p, vpn);
}

}  // namespace mvpn::vpn
