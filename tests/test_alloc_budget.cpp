// Heap-allocation budgets: a control-plane cold boot, and a scenario
// whose counts exceed their caps.
//
// This executable replaces the global allocation functions with counting
// versions, which is why it is its own test binary: no other suite runs
// under the replacement.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "backbone/fixtures.hpp"
#include "backbone/scenario_config.hpp"
#include "backbone/topogen.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mvpn {
namespace {

// The budget below would pass on a count of zero if the replacement
// allocator were not in effect.
TEST(AllocBudget, CountingAllocatorSeesNew) {
  const std::uint64_t before = g_allocations.load();
  auto boxed = std::make_unique<std::uint64_t>(7);
  std::vector<int> grown(64, 1);
  EXPECT_EQ(*boxed + grown.size(), 71u);
  EXPECT_GE(g_allocations.load() - before, 2u);
}

TEST(AllocBudget, ColdBootStaysUnderHalfAnAllocationPerMessage) {
  // The 16P/64PE generated backbone of control_plane.txt's
  // topogen_p16_pe64_ce2 row (2 route reflectors, seed 1). Only
  // start_and_converge is counted: IGP flooding, LDP distribution and the
  // MP-BGP exchange with its VRF imports.
  backbone::TopogenParams params;
  std::string err;
  ASSERT_TRUE(
      backbone::parse_topogen_spec("p=16 pe=64 ce=2 seed=1", params, &err))
      << err;
  const backbone::GeneratedPlan plan = backbone::generate_plan(params);
  backbone::MplsBackbone bb(plan.backbone);
  std::vector<vpn::VpnId> vpns;
  for (const std::string& name : plan.vpns) {
    vpns.push_back(bb.service.create_vpn(name));
  }
  for (const backbone::PlanSite& s : plan.sites) {
    bb.add_site(vpns[s.vpn], s.pe, s.prefix);
  }

  const std::uint64_t before = g_allocations.load();
  bb.start_and_converge();
  const std::uint64_t allocations = g_allocations.load() - before;
  const std::uint64_t messages = bb.cp.total_messages();
  ASSERT_GT(messages, 0u);
  const double per_message =
      static_cast<double>(allocations) / static_cast<double>(messages);
  std::printf("cold boot: %llu allocations, %llu messages, %.3f per message\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(messages), per_message);
  // Measured (RelWithDebInfo, and the same in the ASan build): 10,662
  // allocations for 46,904 messages, 0.227 per message. It was 15,568
  // (0.332) while each router's LDP LIB held one remote-label vector per
  // FEC, and 103,876 (2.215) before message closures became inline
  // scheduler events and best-path changes, LDP label sets and SPF next
  // hops stopped allocating.
  EXPECT_LE(per_message, 0.5);
}

TEST(AllocBudget, UntracedTopologyHoldsNoTraceRing) {
  const std::uint64_t before = g_bytes.load();
  net::Topology topo(1);
  const std::uint64_t built = g_bytes.load() - before;
  std::printf("empty topology: %llu bytes\n",
              static_cast<unsigned long long>(built));
  // The flight recorder's 65,536-event ring (2.5 MiB) waits for enable().
  EXPECT_LT(built, 256u * 1024);

  // The first enable() allocates the ring, once; re-enabling and
  // recording past wraparound allocate nothing more.
  obs::FlightRecorder& rec = topo.recorder();
  const std::uint64_t allocations = g_allocations.load();
  const std::uint64_t bytes = g_bytes.load();
  rec.enable();
  EXPECT_EQ(g_allocations.load() - allocations, 1u);
  EXPECT_EQ(g_bytes.load() - bytes, rec.capacity() * sizeof(obs::TraceEvent));
  rec.disable();
  rec.enable();
  for (std::size_t i = 0; i < 2 * rec.capacity(); ++i) {
    rec.record({.type = obs::EventType::kEnqueue});
  }
  EXPECT_EQ(g_allocations.load() - allocations, 1u);
  EXPECT_EQ(rec.overwritten(), rec.capacity());
}

TEST(AllocBudget, OverCapCountsFailBeforeSizingAnything) {
  // Each count one over its cap: parse fails having allocated only its
  // line buffers, nothing sized from the count (flows=2000001 would
  // reserve hundreds of megabytes of plan).
  for (const char* text :
       {"backbone p=1025 pe=1\n", "backbone p=1 pe=2049\n",
        "backbone p=1 pe=1 bgp=rr rr=65\n", "topology generated p=1025\n",
        "topology generated pe=2049\n", "topology generated ce=65\n",
        "topology generated pod=2049\n",
        "topology generated flows=2000001\n"}) {
    backbone::ScenarioError err;
    const std::uint64_t before = g_bytes.load();
    EXPECT_FALSE(backbone::Scenario::parse(text, &err).has_value()) << text;
    EXPECT_LT(g_bytes.load() - before, 16u * 1024) << text;
  }
}

}  // namespace
}  // namespace mvpn
