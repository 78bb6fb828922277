// Experiment E2 — paper §3 / Fig. 4 (label forwarding vs deep inspection).
//
// Claim under test: "The labels enable routers and switches to forward
// traffic based on information in the labels instead of having to inspect
// the various fields deep within each and every packet. The less time
// devices spend inspecting traffic, the more time they have to forward it."
//
// We measure, in ns/packet on identical tables:
//   * LFIB label-index lookup (the MPLS data plane),
//   * unibit-trie longest-prefix match (a simple IP FIB),
//   * DIR-24-8 compressed-table LPM (an optimized late-90s IP FIB),
//   * a linear 5-tuple CBQ classifier (the "deep inspection" extreme).
// Table sizes span 1k–64k routes/labels.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "ip/dir24_fib.hpp"
#include "ip/prefix_trie.hpp"
#include "mpls/lfib.hpp"
#include "net/packet.hpp"
#include "qos/classifier.hpp"
#include "sim/rng.hpp"
#include "stats/table.hpp"
#include "vpn/flow_table.hpp"

namespace {

using namespace mvpn;

/// Deterministic backbone-like route table: mixture of /16, /20, /24 with
/// a few longer prefixes, as a provider FIB of the era would contain.
std::vector<std::pair<ip::Prefix, std::uint16_t>> make_routes(std::size_t n,
                                                              sim::Rng& rng) {
  std::vector<std::pair<ip::Prefix, std::uint16_t>> routes;
  routes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double roll = rng.uniform();
    std::uint8_t len;
    if (roll < 0.15) {
      len = 16;
    } else if (roll < 0.40) {
      len = 20;
    } else if (roll < 0.92) {
      len = 24;
    } else {
      len = static_cast<std::uint8_t>(rng.uniform_int(25, 30));
    }
    const ip::Prefix p(ip::Ipv4Address(static_cast<std::uint32_t>(
                           rng.next_u64())),
                       len);
    routes.emplace_back(p, static_cast<std::uint16_t>(i % 4096));
  }
  return routes;
}

std::vector<ip::Ipv4Address> make_probe_addresses(
    const std::vector<std::pair<ip::Prefix, std::uint16_t>>& routes,
    std::size_t n, sim::Rng& rng) {
  // Probe inside covered space so lookups mostly hit, as in a real core.
  std::vector<ip::Ipv4Address> probes;
  probes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& p =
        routes[static_cast<std::size_t>(rng.uniform_int(
                   0, static_cast<std::int64_t>(routes.size()) - 1))]
            .first;
    const std::uint32_t host =
        static_cast<std::uint32_t>(rng.next_u64()) & ~p.mask();
    probes.emplace_back(p.address().value() | host);
  }
  return probes;
}

void BM_LfibLabelLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mpls::Lfib lfib;
  mpls::LabelAllocator alloc;
  std::vector<std::uint32_t> labels;
  labels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    mpls::LfibEntry e;
    e.in_label = alloc.allocate();
    e.op = mpls::LabelOp::kSwap;
    e.out_label = e.in_label + 1;
    lfib.install(e);
    labels.push_back(e.in_label);
  }
  sim::Rng rng(7);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint32_t label =
        labels[static_cast<std::size_t>(rng.next_u64()) % labels.size()];
    benchmark::DoNotOptimize(lfib.lookup(label));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

void BM_TrieLpmLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(7);
  const auto routes = make_routes(n, rng);
  ip::PrefixTrie<std::uint16_t> trie;
  for (const auto& [p, nh] : routes) trie.insert(p, nh);
  const auto probes = make_probe_addresses(routes, 4096, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.longest_match(probes[i & 4095]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

void BM_Dir24Lookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(7);
  const auto routes = make_routes(n, rng);
  ip::Dir24Fib fib;
  fib.build(routes);
  const auto probes = make_probe_addresses(routes, 4096, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fib.lookup(probes[i & 4095]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

void BM_FiveTupleClassifier(benchmark::State& state) {
  // Deep inspection: a CBQ-style rule list of the given size, first-match.
  const auto n_rules = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(7);
  qos::CbqClassifier classifier;
  for (std::size_t i = 0; i < n_rules; ++i) {
    qos::MatchRule r;
    r.src = ip::Prefix(
        ip::Ipv4Address(static_cast<std::uint32_t>(rng.next_u64())), 16);
    r.dst_port = qos::PortRange{
        static_cast<std::uint16_t>(1024 + (i % 60) * 1000 / 60),
        static_cast<std::uint16_t>(1024 + (i % 60 + 1) * 1000 / 60)};
    r.mark = qos::Phb::kAf21;
    classifier.add_rule(r);
  }
  net::Packet p;
  p.ip.src = ip::Ipv4Address::must_parse("10.1.2.3");
  p.ip.dst = ip::Ipv4Address::must_parse("10.4.5.6");
  p.l4.dst_port = 80;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.classify(p));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

void BM_MplsSwapOperation(benchmark::State& state) {
  // The full per-packet MPLS transit operation: LFIB index + label swap.
  mpls::Lfib lfib;
  mpls::LabelAllocator alloc;
  for (int i = 0; i < 1024; ++i) {
    mpls::LfibEntry e;
    e.in_label = alloc.allocate();
    e.op = mpls::LabelOp::kSwap;
    e.out_label = 16 + ((e.in_label + 1) & 1023);
    lfib.install(e);
  }
  net::Packet p;
  p.push_label(net::MplsShim{16, 5, 64});
  for (auto _ : state) {
    const mpls::LfibEntry* e = lfib.lookup(p.top_label().label);
    p.swap_label(e->out_label);
    p.labels.back().ttl = 64;  // keep the loop running forever
    benchmark::DoNotOptimize(p);
  }
}

void BM_FlowFastpathProbe(benchmark::State& state) {
  // The fastpath front-end the routers put before every structure above
  // (see Router::IngressEntry / ForwardEntry): the router's own FlowTable
  // probe — home slot and tag hashed from the packed 5-tuple, 16-slot tag
  // window, key compare — then the generation-sum check. The argument is
  // the number of live flows; the cost is independent of the *backing
  // table* population — that is the point of the cache.
  struct Slot {
    std::uint64_t addrs = 0;
    std::uint64_t meta = 0;
    std::uint64_t gen_sum = 0;
    std::uint32_t out_iface = 0;
    [[nodiscard]] std::uint64_t tag_key() const noexcept {
      return addrs ^ meta;
    }
  };
  constexpr std::uint64_t kMeta = (std::uint64_t{10000} << 48) |
                                  (std::uint64_t{20000} << 32) | (17u << 8) |
                                  1u;
  const auto addrs_of = [](std::uint32_t id) {
    return (std::uint64_t{0x0A010001u + id} << 32) | (0x0A020001u + id);
  };
  const auto n_flows = static_cast<std::size_t>(state.range(0));
  mvpn::vpn::FlowTable<Slot, 1024> table;
  std::vector<std::uint32_t> flow_ids(n_flows);
  const std::uint64_t live_gen = 5;  // what the tables currently sum to
  for (std::size_t f = 0; f < n_flows; ++f) {
    const auto id = static_cast<std::uint32_t>(f + 1);
    flow_ids[f] = id;
    const std::uint64_t addrs = addrs_of(id);
    Slot* s = table
                  .find(addrs ^ kMeta,
                        [addrs](const Slot& e) {
                          return e.addrs == addrs && e.meta == kMeta;
                        })
                  .slot;
    *s = Slot{addrs, kMeta, 0, id & 7u};
    table.commit(s, live_gen);
  }
  std::size_t i = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const std::uint32_t id = flow_ids[i % n_flows];
    const std::uint64_t addrs = addrs_of(id);
    const auto probe = table.find(addrs ^ kMeta, [addrs](const Slot& e) {
      return e.addrs == addrs && e.meta == kMeta;
    });
    if (probe.found && probe.slot->gen_sum == live_gen) {
      sink += probe.slot->out_iface;  // replay the cached decision
    }
    benchmark::DoNotOptimize(sink);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

}  // namespace

BENCHMARK(BM_LfibLabelLookup)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);
BENCHMARK(BM_TrieLpmLookup)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);
BENCHMARK(BM_Dir24Lookup)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);
BENCHMARK(BM_FiveTupleClassifier)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_MplsSwapOperation);
BENCHMARK(BM_FlowFastpathProbe)->Arg(64)->Arg(512);

namespace {

/// The speed story above is half the trade; this prints the memory half
/// (why DIR-24-8's speed was not free in 2000, and why label tables are
/// cheap at any size).
void print_memory_table() {
  mvpn::stats::Table t{"structure", "routes/labels", "memory"};
  for (const std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 16}) {
    sim::Rng rng(7);
    const auto routes = make_routes(n, rng);
    ip::Dir24Fib fib;
    fib.build(routes);
    t.add_row({"DIR-24-8", std::to_string(n),
               std::to_string(fib.memory_bytes() / (1024 * 1024)) + " MiB (" +
                   std::to_string(fib.long_block_count()) + " ext blocks)"});
    // LFIB: one slot per label.
    t.add_row({"LFIB", std::to_string(n),
               std::to_string(n * sizeof(mpls::LfibEntry) / 1024) + " KiB"});
  }
  std::printf("\n--- memory cost of the lookup structures ---\n%s",
              t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_memory_table();
  return 0;
}
