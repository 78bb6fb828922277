#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ranges>
#include <string>
#include <vector>

#include "ip/prefix_trie.hpp"
#include "ipsec/esp.hpp"
#include "mpls/domain.hpp"
#include "mpls/ldp.hpp"
#include "mpls/rsvp_te.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "qos/classifier.hpp"
#include "qos/dscp.hpp"
#include "qos/meter.hpp"
#include "vpn/flow_table.hpp"
#include "vpn/vrf.hpp"

namespace mvpn::vpn {

/// Device role in the paper's deployment picture (Fig. 4): customer edge,
/// provider edge, provider core.
enum class Role : std::uint8_t { kCe, kPe, kP };

[[nodiscard]] const char* to_string(Role r) noexcept;

/// The integrated data plane: one router class whose behaviour depends on
/// configured state, exactly like a real LSR.
///
///  * labeled packets hit the LFIB: swap (core), pop (penultimate hop) or
///    pop-deliver into a VRF (egress PE VPN label);
///  * unlabeled packets from a VRF-attached interface are looked up in the
///    VRF; routes imported from MP-BGP carry a VPN label and egress PE, so
///    the ingress PE pushes [tunnel-label, vpn-label] and forwards into
///    the LSP (paper §4.3, Fig. 4);
///  * other IP packets use the global table;
///  * the CE edge applies CBQ classification, DiffServ marking and
///    policing; the PE edge maps DSCP to MPLS EXP (paper §5);
///  * ESP tunnel endpoints encapsulate/decapsulate with real replay
///    protection and charge crypto processing time.
class Router : public net::Node {
 public:
  Router(net::Topology& topo, ip::NodeId id, std::string name, Role role);

  [[nodiscard]] Role role() const noexcept { return role_; }

  /// --- tables -----------------------------------------------------------
  [[nodiscard]] ip::RouteTable& fib() noexcept { return fib_; }
  [[nodiscard]] const ip::RouteTable& fib() const noexcept { return fib_; }

  /// Attach the router's MPLS state (PE/P only; owned by the MplsDomain).
  void set_lsr_state(mpls::LsrState* lsr) noexcept {
    lsr_ = lsr;
    bump_config_gen();
  }
  [[nodiscard]] mpls::LsrState* lsr_state() noexcept { return lsr_; }

  /// Wire the label-distribution views used for tunnel imposition.
  void set_ldp(const mpls::Ldp* ldp) noexcept {
    ldp_ = ldp;
    bump_config_gen();
  }
  void set_rsvp(const mpls::RsvpTe* rsvp) noexcept {
    rsvp_ = rsvp;
    bump_config_gen();
  }
  /// Prefer this TE LSP for traffic tunneled toward `egress_pe`. With
  /// `scope` = kGlobalVpn the binding applies to every VRF; otherwise only
  /// that VPN's traffic rides the LSP (per-VRF TE pinning).
  void bind_lsp(ip::NodeId egress_pe, mpls::LspId lsp,
                VpnId scope = kGlobalVpn) {
    te_bindings_[{egress_pe, scope}] = lsp;
    bump_config_gen();
  }
  void unbind_lsp(ip::NodeId egress_pe, VpnId scope = kGlobalVpn) {
    te_bindings_.erase({egress_pe, scope});
    bump_config_gen();
  }

  /// --- VRFs (PE only) -----------------------------------------------------
  Vrf& add_vrf(VrfConfig config);
  [[nodiscard]] Vrf* vrf_by_vpn(VpnId id);
  [[nodiscard]] const Vrf* vrf_by_vpn(VpnId id) const;
  [[nodiscard]] Vrf* vrf_of_interface(ip::IfIndex iface);
  void bind_interface_to_vrf(ip::IfIndex iface, VpnId id);
  [[nodiscard]] std::size_t vrf_count() const noexcept { return vrfs_.size(); }
  /// Every VRF in creation order, as a view over the router's own storage
  /// (nothing is copied or allocated).
  [[nodiscard]] auto vrfs() noexcept {
    return vrfs_ | std::views::transform(
                       [](const std::unique_ptr<Vrf>& v) { return v.get(); });
  }
  [[nodiscard]] auto vrfs() const noexcept {
    return vrfs_ | std::views::transform([](const std::unique_ptr<Vrf>& v) {
             return static_cast<const Vrf*>(v.get());
           });
  }

  /// --- edge QoS (CE/CPE role, paper §5) ----------------------------------
  void set_classifier(std::unique_ptr<qos::CbqClassifier> c) {
    classifier_ = std::move(c);
    bump_config_gen();
  }
  [[nodiscard]] qos::CbqClassifier* classifier() noexcept {
    return classifier_.get();
  }
  /// Police a PHB with CIR/CBS/EBS; yellow remarks to higher drop
  /// precedence, red drops.
  void add_policer(qos::Phb phb, double cir_bytes_s, double cbs, double ebs);
  /// Shape a PHB to `rate_bytes_s`: out-of-contract packets are *held*
  /// at the edge until they conform instead of being dropped.
  void add_shaper(qos::Phb phb, double rate_bytes_s, double burst_bytes);
  void set_dscp_exp_map(qos::DscpExpMap map) {
    exp_map_ = map;
    bump_config_gen();
  }
  [[nodiscard]] const qos::DscpExpMap& dscp_exp_map() const noexcept {
    return exp_map_;
  }

  /// --- IPsec endpoints -----------------------------------------------------
  /// Outbound SA for traffic destined into `dst_prefix` (encrypt-before-
  /// route at a CPE security gateway).
  void add_outbound_sa(const ip::Prefix& dst_prefix,
                       std::shared_ptr<ipsec::EspSa> sa);
  /// Inbound SA by SPI (decapsulation at the tunnel endpoint).
  void add_inbound_sa(std::shared_ptr<ipsec::EspSa> sa);
  void set_crypto_cost(ipsec::CryptoCostModel model) noexcept {
    crypto_cost_ = model;
  }

  /// --- overlay PVC switching (the baseline of experiment E1) --------------
  /// Virtual-circuit switching entry: packets carrying `vc_id` leave via
  /// `out_iface`; terminating entries strip the encapsulation instead.
  struct PvcSwitchEntry {
    ip::IfIndex out_iface = ip::kInvalidIf;
    bool terminate = false;
  };
  void install_pvc(std::uint32_t vc_id, PvcSwitchEntry entry);
  /// Map a destination prefix to a PVC at the ingress CE.
  void add_pvc_route(const ip::Prefix& prefix, std::uint32_t vc_id);
  [[nodiscard]] std::size_t pvc_switch_entries() const noexcept {
    return pvc_table_.size();
  }

  /// --- local delivery ------------------------------------------------------
  /// Sink for packets that terminate here. `vpn` is the VRF context the
  /// packet was delivered through (kGlobalVpn when none). The sink is the
  /// terminal consumer (one per router — the measurement sink); passive
  /// observers belong on the delivery-tap hook list below.
  using LocalSink =
      std::function<void(const net::Packet& p, VpnId vpn)>;
  void set_local_sink(LocalSink sink) { sink_ = std::move(sink); }

  /// Passive observers of local delivery, invoked before the sink. Each
  /// registration gets its own removal handle, so diagnostics (trace_route)
  /// and user taps coexist without stealing the sink from each other.
  using DeliveryTap = std::function<void(const net::Packet& p, VpnId vpn)>;
  using DeliveryTapId = obs::HookList<const net::Packet&, VpnId>::Id;
  DeliveryTapId add_delivery_tap(DeliveryTap tap) {
    return delivery_taps_.add(std::move(tap));
  }
  bool remove_delivery_tap(DeliveryTapId id) {
    return delivery_taps_.remove(id);
  }

  /// Delivery hooks for OAM probes (destinations in 127.0.0.0/8, as MPLS
  /// LSP ping uses): keeps operational traffic out of the measurement
  /// sinks. Hook-list based so several LspOam monitors can share one tail
  /// router. When no OAM tap is registered, 127/8 traffic falls through to
  /// the local sink (legacy behaviour).
  using OamTap = std::function<void(const net::Packet& p)>;
  using OamTapId = obs::HookList<const net::Packet&>::Id;
  OamTapId add_oam_tap(OamTap tap) { return oam_taps_.add(std::move(tap)); }
  bool remove_oam_tap(OamTapId id) { return oam_taps_.remove(id); }

  /// Declare a locally attached site prefix (delivered to the sink).
  void add_local_prefix(const ip::Prefix& prefix, VpnId vpn = kGlobalVpn);

  /// Entry point for attached traffic sources: applies the CE edge policy
  /// (classify/mark/police) and forwards.
  void inject(net::PacketPtr p);

  /// net::Node data plane.
  void receive(net::PacketPtr p, ip::IfIndex in_if) override;

  /// --- flow fastpath cache (VPP-style, generation-stamped) ----------------
  /// The first packet of a flow runs the full resolution (classifier scan,
  /// meter binding, VRF LPM, tunnel selection / LFIB switch) and records
  /// the outcome; later packets of the flow replay it from a demand-sized
  /// FlowTable. Validity is a sum of monotonic generation counters (router
  /// config + the tables the decision read), so any control-plane mutation
  /// makes stale entries self-invalidate on next touch — the same protocol
  /// as the PR-1 LPM cache. Forwarding behaviour is byte-identical with
  /// the cache on or off; only kFastpath trace events and these stats
  /// differ.
  void set_flowcache_enabled(bool on) noexcept { flowcache_enabled_ = on; }
  [[nodiscard]] bool flowcache_enabled() const noexcept {
    return flowcache_enabled_;
  }
  struct FlowCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;       ///< resolutions recorded into a slot
    std::uint64_t invalidated = 0;  ///< stale-generation entries re-resolved
    std::uint64_t slots = 0;  ///< entries allocated across the three tables
  };
  [[nodiscard]] FlowCacheStats flowcache_stats() const noexcept {
    FlowCacheStats s = fc_stats_;
    s.slots = ingress_cache_.capacity() + forward_cache_.capacity() +
              transit_cache_.capacity();
    return s;
  }

  /// --- counters ------------------------------------------------------------
  struct Counters {
    stats::Counter forwarded{"forwarded"};
    stats::Counter delivered{"delivered"};
    stats::Counter no_route{"no_route"};
    stats::Counter ttl_expired{"ttl_expired"};
    stats::Counter label_miss{"label_miss"};
    stats::Counter no_tunnel{"no_tunnel"};
    stats::Counter policed{"policed"};
    stats::Counter esp_rejected{"esp_rejected"};
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

 private:
  /// --- flow fastpath cache internals --------------------------------------
  /// Full 5-tuple key. Entries are homed and matched by it, so flows
  /// that share a visible 5-tuple share one entry, while bidirectional
  /// flows (TCP data vs. ACKs share a flow id with swapped
  /// addresses/ports) keep one entry per direction and never replay each
  /// other's decision. meta's low bit marks the key as populated so an
  /// empty slot can never match.
  struct FlowKey {
    std::uint64_t addrs = 0;  ///< src << 32 | dst
    std::uint64_t meta = 0;   ///< sport<<48 | dport<<32 | proto<<8 | 1
    [[nodiscard]] bool operator==(const FlowKey& o) const noexcept {
      return addrs == o.addrs && meta == o.meta;
    }
    /// What FlowTable homes and tags by: equal keys fold equally.
    [[nodiscard]] std::uint64_t tag_key() const noexcept {
      return addrs ^ meta;
    }
  };
  [[nodiscard]] static FlowKey flow_key_of(const net::Packet& p) noexcept {
    return FlowKey{
        (std::uint64_t{p.ip.src.value()} << 32) | p.ip.dst.value(),
        (std::uint64_t{p.l4.src_port} << 48) |
            (std::uint64_t{p.l4.dst_port} << 32) |
            (std::uint64_t{p.ip.protocol} << 8) | 1u};
  }
  /// Table caps (powers of two): a table grows from FlowTable::kStartSlots
  /// on demand and evicts once it reaches its cap. A table needs about
  /// as many slots as its router sees distinct keys, so most stay far
  /// below the cap (INTERNALS §10).
  static constexpr std::size_t kFlowSlotCap = 1024;
  static constexpr std::size_t kTransitSlotCap = 256;

  /// Ingress-edge decision (inject): classification outcome + meter binding.
  struct IngressEntry {
    FlowKey key;
    std::uint64_t gen_sum = 0;  ///< 0 = empty
    qos::Policer* policer = nullptr;  ///< still exercised per packet
    qos::Shaper* shaper = nullptr;    ///< still exercised per packet
    std::int32_t rule = qos::CbqClassifier::kUnmatched;
    qos::Phb phb = qos::Phb::kBe;
    bool marked = false;  ///< a classifier ran: replay the DSCP write
    std::uint8_t dscp = 0;
    [[nodiscard]] std::uint64_t tag_key() const noexcept {
      return key.tag_key();
    }
  };
  static_assert(sizeof(IngressEntry) == 48);

  enum class FlowAction : std::uint8_t { kLocal, kForward, kImpose };

  /// Forwarding decision (forward_ip): terminal action for the flow.
  struct ForwardEntry {
    FlowKey key;
    std::uint64_t gen_sum = 0;
    VpnId ctx = kGlobalVpn;  ///< VRF context the lookup ran in
    VpnId deliver_vpn = kGlobalVpn;  ///< kLocal
    std::uint32_t vpn_label = 0;     ///< kImpose
    std::uint32_t tunnel_label = 0;  ///< kImpose
    ip::IfIndex out_iface = ip::kInvalidIf;
    FlowAction act = FlowAction::kForward;
    bool push_tunnel = false;        ///< kImpose
    [[nodiscard]] std::uint64_t tag_key() const noexcept {
      return key.tag_key();
    }
  };
  static_assert(sizeof(ForwardEntry) == 48);

  /// LSR transit decision, keyed by incoming label. The LFIB op is
  /// EXP-invariant (EXP rides the shim untouched through swap/pop), so the
  /// (in-label, exp) key of the design degenerates to the label alone.
  struct TransitEntry {
    std::uint32_t in_label = 0;
    std::uint64_t gen_sum = 0;  ///< 0 = empty
    mpls::LabelOp op = mpls::LabelOp::kSwap;
    std::uint32_t out_label = 0;
    ip::IfIndex out_iface = ip::kInvalidIf;
    Vrf* vrf = nullptr;  ///< kPopDeliver target (stable: VRFs never die)
    [[nodiscard]] std::uint64_t tag_key() const noexcept { return in_label; }
  };
  static_assert(sizeof(TransitEntry) == 40);

  /// Generation sums: every table a decision read, plus the router-local
  /// config generation. All addends are monotonic, so a sum can never
  /// repeat a past value (no ABA).
  [[nodiscard]] std::uint64_t ingress_gen_sum() const noexcept {
    return local_gen_ + (classifier_ ? classifier_->generation() : 0);
  }
  [[nodiscard]] std::uint64_t forward_gen_sum(const Vrf* vrf) const noexcept {
    return local_gen_ +
           (vrf != nullptr ? vrf->table().generation() : fib_.generation()) +
           (ldp_ != nullptr ? ldp_->generation() : 0) +
           (rsvp_ != nullptr ? rsvp_->generation() : 0);
  }
  [[nodiscard]] std::uint64_t transit_gen_sum() const noexcept {
    return local_gen_ + lsr_->lfib.generation();
  }
  void bump_config_gen() noexcept { ++local_gen_; }

  void replay_forward(const ForwardEntry& e, net::PacketPtr p);
  void record_forward(ForwardEntry* slot, const net::Packet& p,
                      FlowAction act, VpnId deliver_vpn,
                      std::uint32_t vpn_label, std::uint32_t tunnel_label,
                      bool push_tunnel, ip::IfIndex out_iface,
                      const Vrf* vrf);
  void execute_transit(net::PacketPtr p, std::uint32_t in_label,
                       mpls::LabelOp op, std::uint32_t out_label,
                       ip::IfIndex out_iface, Vrf* vrf);
  void trace_fastpath(obs::EventType type, const net::Packet& p,
                      std::uint32_t a, std::uint8_t action) noexcept;

  void forward_ip(net::PacketPtr p, Vrf* vrf);
  void forward_labeled(net::PacketPtr p);
  void forward_pvc(net::PacketPtr p);
  void impose_and_tunnel(net::PacketPtr p, const ip::RouteEntry& route,
                         VpnId vpn, ForwardEntry* cache_slot, const Vrf* vrf);
  /// Resolve the tunnel toward an egress PE: scoped TE binding first, then
  /// the global TE binding, then LDP.
  struct TunnelBinding {
    bool found = false;
    bool push_label = false;
    std::uint32_t label = 0;
    ip::IfIndex out_iface = ip::kInvalidIf;
  };
  [[nodiscard]] TunnelBinding tunnel_to(ip::NodeId egress_pe, VpnId vpn) const;
  void deliver_local(net::PacketPtr p, VpnId vpn);
  bool maybe_esp_encap(net::Packet& p);
  /// Charge crypto time then run `then`.
  void after_crypto(std::size_t bytes, sim::Scheduler::Handler then);

  Role role_;
  ip::RouteTable fib_;
  mpls::LsrState* lsr_ = nullptr;
  const mpls::Ldp* ldp_ = nullptr;
  const mpls::RsvpTe* rsvp_ = nullptr;
  std::map<std::pair<ip::NodeId, VpnId>, mpls::LspId> te_bindings_;

  std::vector<std::unique_ptr<Vrf>> vrfs_;
  std::map<ip::IfIndex, VpnId> iface_vrf_;

  std::unique_ptr<qos::CbqClassifier> classifier_;
  std::map<qos::Phb, std::unique_ptr<qos::Policer>> policers_;
  std::map<qos::Phb, std::unique_ptr<qos::Shaper>> shapers_;
  qos::DscpExpMap exp_map_;

  std::vector<std::pair<ip::Prefix, std::shared_ptr<ipsec::EspSa>>>
      outbound_sas_;
  std::map<std::uint32_t, std::shared_ptr<ipsec::EspSa>> inbound_sas_;
  std::optional<ipsec::CryptoCostModel> crypto_cost_;
  sim::SimTime crypto_busy_until_ = 0;

  /// Trace shorthand: the topology's flight recorder.
  [[nodiscard]] obs::FlightRecorder& rec() noexcept {
    return topology().recorder();
  }
  void trace_drop(const net::Packet& p, obs::DropReason reason) noexcept;

  LocalSink sink_;
  obs::HookList<const net::Packet&, VpnId> delivery_taps_;
  obs::HookList<const net::Packet&> oam_taps_;
  ip::PrefixTrie<VpnId> local_vpn_;
  std::map<std::uint32_t, PvcSwitchEntry> pvc_table_;
  ip::PrefixTrie<std::uint32_t> pvc_routes_;
  Counters counters_;

  bool flowcache_enabled_ = true;
  bool has_pvc_ingress_ = false;  ///< PVC ingress routes disable the cache
  std::uint64_t local_gen_ = 1;   ///< bumped by every config mutator
  FlowCacheStats fc_stats_;  ///< slots is filled in by flowcache_stats()
  /// Allocated on the first eligible packet and grown per new flow, so idle
  /// routers (and cache-off runs) pay nothing.
  FlowTable<IngressEntry, kFlowSlotCap> ingress_cache_;
  FlowTable<ForwardEntry, kFlowSlotCap> forward_cache_;
  FlowTable<TransitEntry, kTransitSlotCap> transit_cache_;
};

}  // namespace mvpn::vpn
