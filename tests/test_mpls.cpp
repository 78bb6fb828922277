#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "backbone/fixtures.hpp"
#include "backbone/topogen.hpp"
#include "golden.hpp"
#include "mpls/domain.hpp"
#include "mpls/ldp.hpp"
#include "mpls/lfib.hpp"
#include "mpls/rsvp_te.hpp"
#include "routing/igp.hpp"
#include "vpn/router.hpp"

namespace mvpn::mpls {
namespace {

using vpn::Role;
using vpn::Router;

TEST(LabelAllocator, DenseFromFirstDynamic) {
  LabelAllocator alloc;
  EXPECT_EQ(alloc.allocate(), net::kFirstDynamicLabel);
  EXPECT_EQ(alloc.allocate(), net::kFirstDynamicLabel + 1);
  EXPECT_EQ(alloc.allocated_count(), 2u);
}

TEST(Lfib, InstallLookupRemove) {
  Lfib lfib;
  LfibEntry e;
  e.in_label = 100;
  e.op = LabelOp::kSwap;
  e.out_label = 200;
  e.next_hop = 7;
  e.out_iface = 1;
  lfib.install(e);
  ASSERT_NE(lfib.lookup(100), nullptr);
  EXPECT_EQ(lfib.lookup(100)->out_label, 200u);
  EXPECT_EQ(lfib.lookup(99), nullptr);
  EXPECT_EQ(lfib.lookup(3), nullptr);  // reserved range never matches
  EXPECT_EQ(lfib.size(), 1u);
  EXPECT_TRUE(lfib.remove(100));
  EXPECT_FALSE(lfib.remove(100));
  EXPECT_EQ(lfib.lookup(100), nullptr);
}

TEST(Lfib, ReplaceKeepsSize) {
  Lfib lfib;
  LfibEntry e;
  e.in_label = 50;
  lfib.install(e);
  e.out_label = 9;
  lfib.install(e);
  EXPECT_EQ(lfib.size(), 1u);
  EXPECT_EQ(lfib.entries().size(), 1u);
}

TEST(Lfib, RejectsReservedLabels) {
  Lfib lfib;
  LfibEntry e;
  e.in_label = net::kImplicitNullLabel;
  EXPECT_THROW(lfib.install(e), std::invalid_argument);
}

TEST(MplsDomain, AggregatesState) {
  MplsDomain domain;
  (void)domain.state_of(1).allocator.allocate();
  (void)domain.state_of(2).allocator.allocate();
  LfibEntry e;
  e.in_label = 16;
  domain.state_of(1).lfib.install(e);
  EXPECT_EQ(domain.total_labels(), 2u);
  EXPECT_EQ(domain.total_lfib_entries(), 1u);
  EXPECT_EQ(domain.find(3), nullptr);
  EXPECT_NE(domain.find(1), nullptr);
}

TEST(MplsDomain, StateStaysPutAsHigherIdsArrive) {
  MplsDomain domain;
  LsrState* first = &domain.state_of(2);
  for (ip::NodeId n = 3; n < 500; ++n) (void)domain.state_of(n);
  EXPECT_EQ(&domain.state_of(2), first);  // routers keep this pointer
  EXPECT_EQ(domain.find(2), first);
  EXPECT_EQ(domain.find(0), nullptr);     // below the highest id, never made
  EXPECT_EQ(domain.find(1000), nullptr);  // past every id
}

// ---------------------------------------------------------------------------

struct MplsFixture {
  net::Topology topo;
  routing::ControlPlane cp{topo};
  routing::Igp igp{cp};
  MplsDomain domain;
  Ldp ldp{cp, igp, domain};
  RsvpTe rsvp{cp, igp, domain};
  std::vector<Router*> routers;

  Router& add(const std::string& name) {
    auto& r = topo.add_node<Router>(name, Role::kP);
    routers.push_back(&r);
    igp.add_router(r.id());
    ldp.enable_router(r.id());
    r.set_lsr_state(&domain.state_of(r.id()));
    return r;
  }
  net::LinkId link(Router& a, Router& b, std::uint32_t cost = 1,
                   double bw = 10e6) {
    net::LinkConfig cfg;
    cfg.igp_cost = cost;
    cfg.bandwidth_bps = bw;
    return topo.connect(a.id(), b.id(), cfg);
  }
  void converge() {
    igp.start();
    topo.scheduler().run();
  }
};

TEST(Ldp, DistributesLabelsAlongChain) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b);
  f.link(b, c);
  f.converge();

  const ip::Prefix fec = ip::Prefix::host(c.loopback());
  f.ldp.announce_egress(c.id(), fec);
  f.topo.scheduler().run();

  // Ingress a: must have an FTN toward c via b with b's label.
  const auto ftn = f.ldp.ftn(a.id(), fec);
  ASSERT_TRUE(ftn.has_value());
  EXPECT_EQ(ftn->next_hop, b.id());
  EXPECT_FALSE(ftn->implicit_null);

  // Transit b: swap entry exists and pops toward c (PHP — c advertised
  // implicit null).
  const LfibEntry* at_b = f.domain.state_of(b.id()).lfib.lookup(
      ftn->out_label);
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_b->op, LabelOp::kPop);
  EXPECT_EQ(at_b->next_hop, c.id());

  // b itself, adjacent to the egress, sees implicit-null in its FTN.
  const auto ftn_b = f.ldp.ftn(b.id(), fec);
  ASSERT_TRUE(ftn_b.has_value());
  EXPECT_TRUE(ftn_b->implicit_null);

  EXPECT_GT(f.ldp.bindings_at(a.id()), 0u);
  EXPECT_EQ(f.ldp.fec_count(), 1u);
}

// A router's LIB lays out one slot per enabled LDP neighbour when it first
// learns a FEC. A neighbour enabled after that gets a slot of its own, and
// the mappings already held move with the widened rows.
TEST(Ldp, NeighbourEnabledLaterGetsASlotAndKeepsEarlierMappings) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.topo.add_node<Router>("c", Role::kP);  // IGP now, LDP later
  f.igp.add_router(c.id());
  c.set_lsr_state(&f.domain.state_of(c.id()));
  f.link(a, b);
  f.link(b, c);
  f.converge();

  const ip::Prefix fec_a = ip::Prefix::host(a.loopback());
  f.ldp.announce_egress(a.id(), fec_a);
  f.topo.scheduler().run();
  EXPECT_EQ(f.ldp.bindings_at(b.id()), 1u);  // a's implicit null

  f.ldp.enable_router(c.id());
  const ip::Prefix fec_c = ip::Prefix::host(c.loopback());
  f.ldp.announce_egress(c.id(), fec_c);
  f.topo.scheduler().run();

  const auto b_to_a = f.ldp.ftn(b.id(), fec_a);
  ASSERT_TRUE(b_to_a.has_value());
  EXPECT_EQ(b_to_a->next_hop, a.id());
  EXPECT_TRUE(b_to_a->implicit_null);
  const auto b_to_c = f.ldp.ftn(b.id(), fec_c);
  ASSERT_TRUE(b_to_c.has_value());
  EXPECT_EQ(b_to_c->next_hop, c.id());
  EXPECT_TRUE(b_to_c->implicit_null);
  const auto a_to_c = f.ldp.ftn(a.id(), fec_c);
  ASSERT_TRUE(a_to_c.has_value());
  EXPECT_EQ(a_to_c->next_hop, b.id());
  EXPECT_FALSE(a_to_c->implicit_null);
  // fec_a from a; fec_c from c and, liberally retained, from a.
  EXPECT_EQ(f.ldp.bindings_at(b.id()), 3u);
}

TEST(Ldp, LongerChainSwapsInTheMiddle) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  auto& d = f.add("d");
  f.link(a, b);
  f.link(b, c);
  f.link(c, d);
  f.converge();
  const ip::Prefix fec = ip::Prefix::host(d.loopback());
  f.ldp.announce_egress(d.id(), fec);
  f.topo.scheduler().run();

  const auto ftn = f.ldp.ftn(a.id(), fec);
  ASSERT_TRUE(ftn.has_value());
  const LfibEntry* at_b =
      f.domain.state_of(b.id()).lfib.lookup(ftn->out_label);
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_b->op, LabelOp::kSwap);  // b swaps to c's label
  const LfibEntry* at_c =
      f.domain.state_of(c.id()).lfib.lookup(at_b->out_label);
  ASSERT_NE(at_c, nullptr);
  EXPECT_EQ(at_c->op, LabelOp::kPop);  // penultimate hop pops
}

TEST(Ldp, RepointsAfterIgpChange) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId ab = f.link(a, b, 1);
  f.link(b, c, 1);
  f.link(a, c, 5);
  f.converge();
  const ip::Prefix fec = ip::Prefix::host(c.loopback());
  f.ldp.announce_egress(c.id(), fec);
  f.topo.scheduler().run();
  ASSERT_EQ(f.ldp.ftn(a.id(), fec)->next_hop, b.id());

  f.topo.link(ab).set_up(false);
  f.igp.notify_link_change(ab);
  f.topo.scheduler().run();
  // Liberal retention: the mapping from c was already in a's LIB, so the
  // new FTN via the direct a-c link is available without new signaling.
  const auto ftn = f.ldp.ftn(a.id(), fec);
  ASSERT_TRUE(ftn.has_value());
  EXPECT_EQ(ftn->next_hop, c.id());
  EXPECT_TRUE(ftn->implicit_null);
}

TEST(RsvpTe, SignalsLspAndInstallsLabels) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1, 10e6);
  f.link(b, c, 1, 10e6);
  f.converge();

  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = c.id();
  cfg.bandwidth_bps = 4e6;
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();

  const RsvpTe::Lsp& lsp = f.rsvp.lsp(id);
  EXPECT_EQ(lsp.state, RsvpTe::LspState::kUp);
  EXPECT_EQ(lsp.path,
            (std::vector<ip::NodeId>{a.id(), b.id(), c.id()}));
  EXPECT_FALSE(lsp.head_implicit_null);
  EXPECT_EQ(lsp.head_next_hop, b.id());
  // Bandwidth is held on both hops.
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(a.id(), 0), 4e6);
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(b.id(), 1), 4e6);
  // b has a pop entry for the LSP label (PHP from the tail).
  const LfibEntry* at_b =
      f.domain.state_of(b.id()).lfib.lookup(lsp.head_label);
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_b->op, LabelOp::kPop);
  EXPECT_GT(f.cp.message_count("rsvp.path"), 0u);
  EXPECT_GT(f.cp.message_count("rsvp.resv"), 0u);
}

TEST(RsvpTe, OneHopLspIsImplicitNull) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  f.link(a, b);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = b.id();
  cfg.bandwidth_bps = 1e6;
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(id).state, RsvpTe::LspState::kUp);
  EXPECT_TRUE(f.rsvp.lsp(id).head_implicit_null);
}

TEST(RsvpTe, AdmissionControlRejectsOverSubscription) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  f.link(a, b, 1, 10e6);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = b.id();
  cfg.bandwidth_bps = 7e6;
  const LspId first = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(first).state, RsvpTe::LspState::kUp);

  const LspId second = f.rsvp.signal(cfg);  // another 7 Mb/s does not fit
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(second).state, RsvpTe::LspState::kFailed);
  // The first LSP's reservation is intact.
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(a.id(), 0), 7e6);
}

TEST(RsvpTe, PicksDetourWhenDirectIsFull) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1, 10e6);  // direct
  f.link(a, c, 1, 10e6);  // detour
  f.link(c, b, 1, 10e6);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = b.id();
  cfg.bandwidth_bps = 6e6;
  const LspId first = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  const LspId second = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(first).state, RsvpTe::LspState::kUp);
  EXPECT_EQ(f.rsvp.lsp(first).path.size(), 2u);
  EXPECT_EQ(f.rsvp.lsp(second).state, RsvpTe::LspState::kUp);
  EXPECT_EQ(f.rsvp.lsp(second).path.size(), 3u);  // via c
}

TEST(RsvpTe, TearDownReleasesEverything) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1, 10e6);
  f.link(b, c, 1, 10e6);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = c.id();
  cfg.bandwidth_bps = 4e6;
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  const std::size_t lfib_before = f.domain.total_lfib_entries();
  EXPECT_GT(lfib_before, 0u);

  f.rsvp.tear_down(id);
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(id).state, RsvpTe::LspState::kTornDown);
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(a.id(), 0), 0.0);
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(b.id(), 1), 0.0);
  EXPECT_LT(f.domain.total_lfib_entries(), lfib_before);
}

TEST(RsvpTe, ReroutesAroundFailedLink) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId direct = f.link(a, b, 1, 10e6);
  f.link(a, c, 1, 10e6);
  f.link(c, b, 1, 10e6);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = b.id();
  cfg.bandwidth_bps = 2e6;
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  ASSERT_EQ(f.rsvp.lsp(id).path.size(), 2u);

  f.topo.link(direct).set_up(false);
  f.igp.notify_link_change(direct);
  f.rsvp.notify_link_failure(direct);
  f.topo.scheduler().run();

  const RsvpTe::Lsp& lsp = f.rsvp.lsp(id);
  EXPECT_EQ(lsp.state, RsvpTe::LspState::kUp);
  EXPECT_EQ(lsp.path, (std::vector<ip::NodeId>{a.id(), c.id(), b.id()}));
  EXPECT_EQ(lsp.reroutes, 1u);
  // The failed link holds no stale reservation.
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(a.id(), direct), 0.0);
}

TEST(RsvpTe, ExplicitRouteIshonored) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1, 10e6);
  f.link(a, c, 1, 10e6);
  f.link(c, b, 1, 10e6);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = b.id();
  cfg.bandwidth_bps = 1e6;
  cfg.explicit_route = {a.id(), c.id(), b.id()};  // force the detour
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(id).state, RsvpTe::LspState::kUp);
  EXPECT_EQ(f.rsvp.lsp(id).path.size(), 3u);
}

TEST(Ldp, MultipleFecsIndependentLabels) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b);
  f.link(b, c);
  f.converge();
  const ip::Prefix fec_b = ip::Prefix::host(b.loopback());
  const ip::Prefix fec_c = ip::Prefix::host(c.loopback());
  f.ldp.announce_egress(b.id(), fec_b);
  f.ldp.announce_egress(c.id(), fec_c);
  f.topo.scheduler().run();
  EXPECT_EQ(f.ldp.fec_count(), 2u);
  const auto ftn_b = f.ldp.ftn(a.id(), fec_b);
  const auto ftn_c = f.ldp.ftn(a.id(), fec_c);
  ASSERT_TRUE(ftn_b.has_value());
  ASSERT_TRUE(ftn_c.has_value());
  // b is adjacent (PHP); c needs a real label, distinct per FEC.
  EXPECT_TRUE(ftn_b->implicit_null);
  EXPECT_FALSE(ftn_c->implicit_null);
}

TEST(Ldp, UnknownFecHasNoFtn) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  f.link(a, b);
  f.converge();
  EXPECT_FALSE(
      f.ldp.ftn(a.id(), ip::Prefix::must_parse("9.9.9.9/32")).has_value());
  EXPECT_EQ(f.ldp.bindings_at(a.id()), 0u);
}

// --- Dense LIB edge cases (FEC ids, per-router rows) ----------------------

/// Follow `fec`'s label-switched path from `ingress` through the LFIBs;
/// returns the node that receives the packet unlabeled (kInvalidNode when
/// the path breaks).
ip::NodeId lsp_tail(MplsFixture& f, ip::NodeId ingress, const ip::Prefix& fec) {
  const auto ftn = f.ldp.ftn(ingress, fec);
  if (!ftn) return ip::kInvalidNode;
  ip::NodeId at = ftn->next_hop;
  if (ftn->implicit_null) return at;
  std::uint32_t label = ftn->out_label;
  for (std::size_t hops = 0; hops < f.routers.size(); ++hops) {
    const LfibEntry* e = f.domain.state_of(at).lfib.lookup(label);
    if (e == nullptr) return ip::kInvalidNode;
    at = e->next_hop;
    if (e->op == LabelOp::kPop) return at;
    label = e->out_label;
  }
  return ip::kInvalidNode;
}

TEST(Ldp, FecAnnouncedAfterConvergenceResolvesAtEveryLsr) {
  // The second FEC's id lies past every router's existing LIB row.
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  auto& d = f.add("d");
  f.link(a, b);
  f.link(b, c);
  f.link(c, d);
  f.link(d, a, 3);
  f.converge();
  const ip::Prefix first = ip::Prefix::host(b.loopback());
  f.ldp.announce_egress(b.id(), first);
  f.topo.scheduler().run();
  const ip::Prefix late = ip::Prefix::host(d.loopback());
  f.ldp.announce_egress(d.id(), late);
  f.topo.scheduler().run();

  EXPECT_EQ(f.ldp.fec_count(), 2u);
  for (const Router* r : f.routers) {
    if (r != &d) {
      EXPECT_EQ(lsp_tail(f, r->id(), late), d.id()) << r->name();
    }
    if (r != &b) {
      EXPECT_EQ(lsp_tail(f, r->id(), first), b.id()) << r->name();
    }
  }
}

TEST(Ldp, WithdrawThenReannounceRestoresFtns) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b);
  f.link(b, c);
  f.converge();
  const ip::Prefix fec = ip::Prefix::host(c.loopback());
  f.ldp.announce_egress(c.id(), fec);
  f.topo.scheduler().run();
  const auto before = f.ldp.ftn(a.id(), fec);
  ASSERT_TRUE(before.has_value());

  f.ldp.withdraw_fec(fec);
  EXPECT_FALSE(f.ldp.ftn(a.id(), fec).has_value());
  EXPECT_FALSE(f.ldp.ftn(b.id(), fec).has_value());
  EXPECT_EQ(f.ldp.fec_count(), 0u);
  EXPECT_EQ(f.ldp.bindings_at(a.id()), 0u);
  EXPECT_EQ(f.domain.state_of(b.id()).lfib.lookup(before->out_label),
            nullptr);

  f.ldp.announce_egress(c.id(), fec);
  f.topo.scheduler().run();
  EXPECT_EQ(f.ldp.fec_count(), 1u);
  const auto after = f.ldp.ftn(a.id(), fec);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->next_hop, b.id());
  EXPECT_FALSE(after->implicit_null);
  EXPECT_EQ(lsp_tail(f, a.id(), fec), c.id());
  // Independent control allocates a fresh label on re-learning.
  EXPECT_NE(after->out_label, before->out_label);
}

TEST(Ldp, QueriesOutsideTheDenseRangeAreEmpty) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  f.link(a, b);
  // An IGP member that does not speak LDP, and a CE that runs neither.
  auto& igp_only = f.topo.add_node<Router>("igp_only", Role::kP);
  f.igp.add_router(igp_only.id());
  f.link(b, igp_only);
  auto& ce = f.topo.add_node<Router>("ce", Role::kCe);
  f.link(a, ce);
  f.converge();
  const ip::Prefix fec = ip::Prefix::host(b.loopback());
  f.ldp.announce_egress(b.id(), fec);
  f.topo.scheduler().run();
  ASSERT_TRUE(f.ldp.ftn(a.id(), fec).has_value());

  const auto beyond = static_cast<ip::NodeId>(f.topo.node_count() + 7);
  EXPECT_FALSE(
      f.ldp.ftn(a.id(), ip::Prefix::must_parse("9.9.9.9/32")).has_value());
  EXPECT_FALSE(f.ldp.ftn(ce.id(), fec).has_value());
  EXPECT_FALSE(f.ldp.ftn(igp_only.id(), fec).has_value());
  EXPECT_FALSE(f.ldp.ftn(beyond, fec).has_value());
  EXPECT_EQ(f.ldp.bindings_at(ce.id()), 0u);
  EXPECT_EQ(f.ldp.bindings_at(beyond), 0u);
  f.ldp.withdraw_fec(ip::Prefix::must_parse("9.9.9.9/32"));  // never known
  EXPECT_EQ(f.ldp.fec_count(), 1u);

  EXPECT_EQ(f.igp.next_hop(a.id(), beyond), nullptr);
  EXPECT_TRUE(f.igp.next_hops_ecmp(a.id(), beyond).empty());
  EXPECT_EQ(f.igp.next_hop(a.id(), ce.id()), nullptr);
  EXPECT_TRUE(f.igp.next_hops_ecmp(a.id(), ce.id()).empty());
  ASSERT_NE(f.igp.next_hop(a.id(), igp_only.id()), nullptr);
  EXPECT_EQ(f.igp.next_hop(a.id(), igp_only.id())->via, b.id());
}

TEST(RsvpTe, ExplicitRouteThroughDownLinkFails) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId ab = f.link(a, b);
  f.link(b, c);
  f.converge();
  f.topo.link(ab).set_up(false);
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = c.id();
  cfg.bandwidth_bps = 1e6;
  cfg.explicit_route = {a.id(), b.id(), c.id()};
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  // The PATH message is lost on the dead link; the LSP never comes up and
  // holds only the reservation made before the break (released on
  // teardown).
  EXPECT_NE(f.rsvp.lsp(id).state, RsvpTe::LspState::kUp);
  f.rsvp.tear_down(id);
  f.topo.scheduler().run();
  EXPECT_DOUBLE_EQ(f.igp.te_reserved(a.id(), ab), 0.0);
}

TEST(RsvpTe, NonAdjacentExplicitRouteFails) {
  MplsFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b);
  f.link(b, c);
  f.converge();
  TeLspConfig cfg;
  cfg.head = a.id();
  cfg.tail = c.id();
  cfg.bandwidth_bps = 1e6;
  cfg.explicit_route = {a.id(), c.id()};  // a and c are not adjacent
  const LspId id = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  EXPECT_EQ(f.rsvp.lsp(id).state, RsvpTe::LspState::kFailed);
}

TEST(RsvpTe, UnknownLspThrows) {
  MplsFixture f;
  EXPECT_THROW(f.rsvp.lsp(42), std::out_of_range);
}


// --- Control-plane goldens (tests/golden/control_plane.txt) ---------------

/// A generated backbone (topogen spec: p, pe, ce) with its VPNs and sites,
/// started and converged the way the scenario layer and perfbench build it.
std::unique_ptr<backbone::MplsBackbone> converged_topogen(
    const std::string& spec) {
  backbone::TopogenParams params;
  std::string err;
  EXPECT_TRUE(backbone::parse_topogen_spec(spec, params, &err)) << err;
  const backbone::GeneratedPlan plan = backbone::generate_plan(params);
  auto bb = std::make_unique<backbone::MplsBackbone>(plan.backbone);
  std::vector<vpn::VpnId> vpns;
  for (const std::string& name : plan.vpns) {
    vpns.push_back(bb->service.create_vpn(name));
  }
  for (const backbone::PlanSite& s : plan.sites) {
    bb->add_site(vpns[s.vpn], s.pe, s.prefix);
  }
  bb->start_and_converge();
  return bb;
}

/// FNV-1a over every IGP member's ECMP next-hop table (router, dest, via,
/// iface, cost), every LSR's LFIB entries, and the FTN of every PE toward
/// every PE loopback, each folded in node order.
std::string control_plane_fingerprint(backbone::MplsBackbone& bb) {
  golden::Fnv f;
  std::vector<ip::NodeId> members = bb.igp.members();
  std::sort(members.begin(), members.end());
  const auto nodes = static_cast<ip::NodeId>(bb.topo.node_count());
  for (ip::NodeId router : members) {
    for (ip::NodeId dest = 0; dest < nodes; ++dest) {
      for (const routing::Igp::NextHopEntry& e :
           bb.igp.next_hops_ecmp(router, dest)) {
        f.mix(router);
        f.mix(dest);
        f.mix(e.via);
        f.mix(e.iface);
        f.mix(e.cost);
      }
    }
  }
  for (ip::NodeId router : members) {
    const LsrState* lsr = bb.domain.find(router);
    if (lsr == nullptr) continue;
    for (const LfibEntry& e : lsr->lfib.entries()) {
      f.mix(router);
      f.mix(e.in_label);
      f.mix(static_cast<std::uint64_t>(e.op));
      f.mix(e.out_label);
      f.mix(e.next_hop);
      f.mix(e.out_iface);
      f.mix(e.vrf_id);
      f.mix((std::uint64_t{e.fec.address().value()} << 8) | e.fec.length());
    }
  }
  for (const Router* ingress : bb.pes()) {
    for (const Router* egress : bb.pes()) {
      const auto ftn =
          bb.ldp.ftn(ingress->id(), ip::Prefix::host(egress->loopback()));
      f.mix(ingress->id());
      f.mix(egress->id());
      if (!ftn) {
        f.mix(~std::uint64_t{0});
        continue;
      }
      f.mix(ftn->out_label);
      f.mix(ftn->next_hop);
      f.mix(ftn->out_iface);
      f.mix(ftn->implicit_null ? 1 : 0);
    }
  }
  return f.hex();
}

/// The control_plane.txt row for `bb`'s current state: fingerprint, then
/// igp.lsa and ldp.mapping messages and the SPF full / incremental /
/// skipped / edges-relaxed counters.
std::vector<std::string> control_plane_row(backbone::MplsBackbone& bb) {
  return {control_plane_fingerprint(bb),
          std::to_string(bb.cp.message_count("igp.lsa")),
          std::to_string(bb.cp.message_count("ldp.mapping")),
          std::to_string(bb.igp.spf_full_runs()),
          std::to_string(bb.igp.spf_incremental_runs()),
          std::to_string(bb.igp.spf_skipped()),
          std::to_string(bb.igp.edges_relaxed())};
}

std::string joined(const std::vector<std::string>& fields) {
  std::string out;
  for (const std::string& f : fields) out += (out.empty() ? "" : " ") + f;
  return out;
}

TEST(ControlPlaneGolden, ColdBootMatchesRecordedRows) {
  for (const auto& [key, spec] :
       {std::pair<std::string, std::string>{"topogen_p4_pe8_ce2",
                                            "p=4 pe=8 ce=2"},
        {"topogen_p16_pe64_ce2", "p=16 pe=64 ce=2"}}) {
    const auto bb = converged_topogen(spec);
    EXPECT_EQ(joined(control_plane_row(*bb)),
              joined(golden::row("control_plane.txt", key)))
        << key;
  }
}

TEST(ControlPlaneGolden, CoreLinkFailureAndRestoreMatchRecordedRows) {
  // Fail the P0-P1 core link, converge, then restore it: the failed state
  // has its own row, and the restored network must answer every next-hop,
  // LFIB and FTN query exactly as the cold boot did.
  const auto bb = converged_topogen("p=16 pe=64 ce=2");
  const std::string cold = control_plane_fingerprint(*bb);
  net::LinkId core = net::kInvalidLink;
  for (const net::Adjacency& adj : bb->topo.adjacencies(bb->p(0).id())) {
    if (adj.neighbor == bb->p(1).id()) core = adj.link;
  }
  ASSERT_NE(core, net::kInvalidLink);

  bb->topo.link(core).set_up(false);
  bb->igp.notify_link_change(core);
  bb->topo.scheduler().run();
  EXPECT_EQ(joined(control_plane_row(*bb)),
            joined(golden::row("control_plane.txt",
                               "topogen_p16_pe64_ce2_p0p1_down")));

  bb->topo.link(core).set_up(true);
  bb->igp.notify_link_change(core);
  bb->topo.scheduler().run();
  const std::vector<std::string> restored = control_plane_row(*bb);
  EXPECT_EQ(restored[0], cold);
  const std::vector<std::string> cold_row =
      golden::row("control_plane.txt", "topogen_p16_pe64_ce2");
  ASSERT_FALSE(cold_row.empty());
  EXPECT_EQ(cold, cold_row[0]);
  // The restore's own message and SPF work (incremental runs) is pinned too.
  EXPECT_EQ(joined(restored),
            joined(golden::row("control_plane.txt",
                               "topogen_p16_pe64_ce2_p0p1_restored")));
}


// --- VPN route goldens (tests/golden/vpn_routes.txt) ----------------------

/// The vpn_routes.txt row for `bb`'s current state: the Loc-RIB
/// fingerprint over every BGP speaker and reflector in node order, the
/// VRF fingerprint over every PE's VRF tables in VPN order, the
/// bgp.update / bgp.withdraw message and byte counts, and the RibOut
/// nlri_enqueued / superseded / messages_packed / flushes / group_count
/// counters, then the Adj-RIB-In offers held across speakers.
std::vector<std::string> vpn_routes_row(backbone::MplsBackbone& bb) {
  const routing::Bgp& bgp = bb.bgp;
  golden::Fnv rib;
  const std::vector<ip::NodeId>& speakers = bgp.speakers();
  for (ip::NodeId n = 0; n < bb.topo.node_count(); ++n) {
    if (bgp.is_reflector(n) ||
        std::find(speakers.begin(), speakers.end(), n) != speakers.end()) {
      golden::mix_loc_rib(rib, n, bgp.loc_rib(n));
    }
  }
  golden::Fnv vrfs;
  for (vpn::Router* pe : bb.pes()) {
    const auto view = pe->vrfs();
    std::vector<vpn::Vrf*> tables(view.begin(), view.end());
    std::sort(tables.begin(), tables.end(),
              [](const vpn::Vrf* a, const vpn::Vrf* b) {
                return a->vpn_id() < b->vpn_id();
              });
    for (const vpn::Vrf* vrf : tables) {
      vrfs.mix(pe->id());
      vrfs.mix(vrf->vpn_id());
      for (const ip::RouteEntry& e : vrf->table().entries()) {
        vrfs.mix((std::uint64_t{e.prefix.address().value()} << 8) |
                 e.prefix.length());
        vrfs.mix(static_cast<std::uint64_t>(e.source));
        vrfs.mix(e.vpn_label);
        vrfs.mix(e.egress_pe);
      }
    }
  }
  const routing::RibOut& out = bgp.rib_out();
  return {rib.hex(),
          vrfs.hex(),
          std::to_string(bb.cp.message_count("bgp.update")),
          std::to_string(bb.cp.byte_count("bgp.update")),
          std::to_string(bb.cp.message_count("bgp.withdraw")),
          std::to_string(bb.cp.byte_count("bgp.withdraw")),
          std::to_string(out.nlri_enqueued()),
          std::to_string(out.superseded()),
          std::to_string(out.messages_packed()),
          std::to_string(out.flushes()),
          std::to_string(out.group_count()),
          std::to_string(bgp.adj_rib_routes())};
}

TEST(VpnRoutesGolden, ColdBootMatchesRecordedRows) {
  for (const auto& [key, spec] :
       {std::pair<std::string, std::string>{"topogen_p4_pe8_ce2",
                                            "p=4 pe=8 ce=2"},
        {"topogen_p16_pe64_ce2", "p=16 pe=64 ce=2"}}) {
    const auto bb = converged_topogen(spec);
    EXPECT_EQ(joined(vpn_routes_row(*bb)),
              joined(golden::row("vpn_routes.txt", key)))
        << key;
  }
}

TEST(VpnRoutesGolden, PeAndReflectorFailuresMatchRecordedRows) {
  // A PE failure drops its sessions and attachment links; a reflector
  // failure leaves every client on the surviving reflector. Both re-decide
  // every key the dead speaker had offered.
  for (const auto& [key, spec] :
       {std::pair<std::string, std::string>{"topogen_p4_pe8_ce2_pe0_failed",
                                            "p=4 pe=8 ce=2"},
        {"topogen_p16_pe64_ce2_pe0_failed", "p=16 pe=64 ce=2"}}) {
    const auto bb = converged_topogen(spec);
    bb->service.fail_pe(bb->pe(0));
    bb->topo.scheduler().run();
    EXPECT_EQ(joined(vpn_routes_row(*bb)),
              joined(golden::row("vpn_routes.txt", key)))
        << key;
    // Every surviving PE has dropped every route via PE0: the reflectors
    // withdraw each other's copies instead of keeping them as best.
    for (vpn::Router* pe : bb->pes()) {
      if (pe == &bb->pe(0)) continue;
      for (const vpn::Vrf* vrf : pe->vrfs()) {
        for (const ip::RouteEntry& e : vrf->table().entries()) {
          EXPECT_NE(e.egress_pe, bb->pe(0).id()) << key << " " << pe->name();
        }
      }
    }
  }
  {
    const auto bb = converged_topogen("p=16 pe=64 ce=2");
    ip::NodeId rr0 = ip::kInvalidNode;
    for (ip::NodeId n = 0; n < bb->topo.node_count(); ++n) {
      if (bb->bgp.is_reflector(n)) {
        rr0 = n;
        break;
      }
    }
    ASSERT_NE(rr0, ip::kInvalidNode);
    bb->bgp.fail_speaker(rr0);
    bb->topo.scheduler().run();
    EXPECT_EQ(joined(vpn_routes_row(*bb)),
              joined(golden::row("vpn_routes.txt",
                                 "topogen_p16_pe64_ce2_rr0_failed")));
  }
}

}  // namespace
}  // namespace mvpn::mpls
