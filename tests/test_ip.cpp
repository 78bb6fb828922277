#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "ip/address.hpp"
#include "ip/dir24_fib.hpp"
#include "ip/prefix_trie.hpp"
#include "ip/route_table.hpp"
#include "sim/rng.hpp"

namespace mvpn::ip {

/// Test-only access to RouteTable's generation, to reach the cache-stamp
/// wrap without 2^32 mutations.
struct RouteTableTestAccess {
  static void set_generation(RouteTable& t, std::uint64_t g) {
    t.generation_ = g;
  }
};

namespace {

TEST(Ipv4Address, ParseAndFormat) {
  const auto a = Ipv4Address::parse("10.1.2.3");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value(), 0x0A010203u);
  EXPECT_EQ(a->to_string(), "10.1.2.3");
  EXPECT_EQ(Ipv4Address(255, 255, 255, 255).to_string(), "255.255.255.255");
  EXPECT_EQ(Ipv4Address(0, 0, 0, 0).to_string(), "0.0.0.0");
}

TEST(Ipv4Address, RejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("10.1.2").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.3.4").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.256").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.x").has_value());
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10..2.3").has_value());
  EXPECT_THROW(Ipv4Address::must_parse("bogus"), std::invalid_argument);
}

TEST(Ipv4Address, Ordering) {
  EXPECT_LT(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2));
  EXPECT_EQ(Ipv4Address(10, 0, 0, 1), Ipv4Address(0x0A000001));
}

TEST(Prefix, ParseCanonicalizesHostBits) {
  const auto p = Prefix::parse("10.1.2.3/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->address().to_string(), "10.1.0.0");
  EXPECT_EQ(p->length(), 16);
  EXPECT_EQ(p->to_string(), "10.1.0.0/16");
}

TEST(Prefix, RejectsMalformed) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/-1").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0/8").has_value());
}

TEST(Prefix, Containment) {
  const Prefix p = Prefix::must_parse("10.1.0.0/16");
  EXPECT_TRUE(p.contains(Ipv4Address::must_parse("10.1.255.255")));
  EXPECT_FALSE(p.contains(Ipv4Address::must_parse("10.2.0.0")));
  EXPECT_TRUE(p.contains(Prefix::must_parse("10.1.2.0/24")));
  EXPECT_FALSE(p.contains(Prefix::must_parse("10.0.0.0/8")));
  const Prefix all = Prefix::must_parse("0.0.0.0/0");
  EXPECT_TRUE(all.contains(Ipv4Address::must_parse("192.168.1.1")));
}

TEST(Prefix, MaskValues) {
  EXPECT_EQ(Prefix::must_parse("0.0.0.0/0").mask(), 0u);
  EXPECT_EQ(Prefix::must_parse("10.0.0.0/8").mask(), 0xFF000000u);
  EXPECT_EQ(Prefix::must_parse("1.2.3.4/32").mask(), 0xFFFFFFFFu);
}

TEST(PrefixTrie, ExactAndLongestMatch) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::must_parse("10.0.0.0/8"), 8);
  trie.insert(Prefix::must_parse("10.1.0.0/16"), 16);
  trie.insert(Prefix::must_parse("10.1.2.0/24"), 24);

  EXPECT_EQ(*trie.longest_match(Ipv4Address::must_parse("10.1.2.3")), 24);
  EXPECT_EQ(*trie.longest_match(Ipv4Address::must_parse("10.1.9.9")), 16);
  EXPECT_EQ(*trie.longest_match(Ipv4Address::must_parse("10.9.9.9")), 8);
  EXPECT_EQ(trie.longest_match(Ipv4Address::must_parse("11.0.0.1")), nullptr);
  EXPECT_EQ(*trie.exact_match(Prefix::must_parse("10.1.0.0/16")), 16);
  EXPECT_EQ(trie.exact_match(Prefix::must_parse("10.2.0.0/16")), nullptr);
}

TEST(PrefixTrie, DefaultRouteMatchesEverything) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::must_parse("0.0.0.0/0"), 1);
  EXPECT_EQ(*trie.longest_match(Ipv4Address::must_parse("200.200.200.200")),
            1);
}

TEST(PrefixTrie, EraseAndReplace) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.insert(Prefix::must_parse("10.0.0.0/8"), 1));
  EXPECT_FALSE(trie.insert(Prefix::must_parse("10.0.0.0/8"), 2));  // replace
  EXPECT_EQ(*trie.exact_match(Prefix::must_parse("10.0.0.0/8")), 2);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_TRUE(trie.erase(Prefix::must_parse("10.0.0.0/8")));
  EXPECT_FALSE(trie.erase(Prefix::must_parse("10.0.0.0/8")));
  EXPECT_TRUE(trie.empty());
}

TEST(PrefixTrie, ReportsMatchedPrefix) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::must_parse("10.0.0.0/8"), 8);
  trie.insert(Prefix::must_parse("10.128.0.0/9"), 9);
  const Prefix* matched = nullptr;
  const int* v =
      trie.longest_match(Ipv4Address::must_parse("10.200.0.1"), matched);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 9);
  EXPECT_EQ(matched->to_string(), "10.128.0.0/9");
}

TEST(PrefixTrie, HostRoutesWork) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::host(Ipv4Address::must_parse("1.2.3.4")), 42);
  EXPECT_EQ(*trie.longest_match(Ipv4Address::must_parse("1.2.3.4")), 42);
  EXPECT_EQ(trie.longest_match(Ipv4Address::must_parse("1.2.3.5")), nullptr);
}

TEST(PrefixTrie, ForEachVisitsAll) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::must_parse("10.0.0.0/8"), 1);
  trie.insert(Prefix::must_parse("192.168.0.0/16"), 2);
  int sum = 0;
  trie.for_each([&](const Prefix&, const int& v) { sum += v; });
  EXPECT_EQ(sum, 3);
}

TEST(RouteTable, AdminDistancePreference) {
  RouteTable table;
  RouteEntry igp;
  igp.prefix = Prefix::must_parse("10.0.0.0/8");
  igp.source = RouteSource::kIgp;
  igp.admin_distance = 110;
  igp.next_hop.node = 1;
  igp.next_hop.iface = 0;
  EXPECT_TRUE(table.install(igp));

  RouteEntry bgp = igp;
  bgp.source = RouteSource::kBgp;
  bgp.admin_distance = 200;
  bgp.next_hop.node = 2;
  EXPECT_FALSE(table.install(bgp));  // worse AD loses
  EXPECT_EQ(table.lookup(Ipv4Address::must_parse("10.1.1.1"))->next_hop.node,
            1u);

  RouteEntry connected = igp;
  connected.source = RouteSource::kConnected;
  connected.admin_distance = 0;
  connected.next_hop.node = 3;
  EXPECT_TRUE(table.install(connected));  // better AD wins
  EXPECT_EQ(table.lookup(Ipv4Address::must_parse("10.1.1.1"))->next_hop.node,
            3u);
}

TEST(RouteTable, MetricBreaksTies) {
  RouteTable table;
  RouteEntry a;
  a.prefix = Prefix::must_parse("10.0.0.0/8");
  a.admin_distance = 110;
  a.metric = 20;
  a.next_hop.node = 1;
  a.next_hop.iface = 0;
  table.install(a);
  RouteEntry b = a;
  b.metric = 10;
  b.next_hop.node = 2;
  EXPECT_TRUE(table.install(b));
  EXPECT_EQ(table.lookup(Ipv4Address::must_parse("10.1.1.1"))->next_hop.node,
            2u);
}

TEST(RouteTable, ReplaceAndRemove) {
  RouteTable table;
  RouteEntry e;
  e.prefix = Prefix::must_parse("10.0.0.0/8");
  e.admin_distance = 200;
  table.install(e);
  RouteEntry better = e;
  better.admin_distance = 250;  // would lose under install
  better.metric = 7;
  table.replace(better);
  EXPECT_EQ(table.find(e.prefix)->metric, 7u);
  EXPECT_TRUE(table.remove(e.prefix));
  EXPECT_EQ(table.lookup(Ipv4Address::must_parse("10.1.1.1")), nullptr);
}

// The lookup cache must never serve a stale result: installing a more
// specific route after a lookup has been cached must change the answer.
TEST(RouteTable, LookupCacheInvalidatedByMutation) {
  RouteTable table;
  RouteEntry cover;
  cover.prefix = Prefix::must_parse("10.0.0.0/8");
  cover.next_hop.node = 1;
  cover.next_hop.iface = 0;
  table.install(cover);

  const Ipv4Address addr = Ipv4Address::must_parse("10.1.2.3");
  EXPECT_EQ(table.lookup(addr)->next_hop.node, 1u);  // now cached
  EXPECT_EQ(table.lookup(addr)->next_hop.node, 1u);  // cache hit

  RouteEntry specific;
  specific.prefix = Prefix::must_parse("10.1.0.0/16");
  specific.next_hop.node = 2;
  specific.next_hop.iface = 0;
  const std::uint64_t gen_before = table.generation();
  table.install(specific);
  EXPECT_GT(table.generation(), gen_before);
  EXPECT_EQ(table.lookup(addr)->next_hop.node, 2u);  // longer match wins

  table.remove(specific.prefix);
  EXPECT_EQ(table.lookup(addr)->next_hop.node, 1u);  // back to the cover

  table.clear();
  EXPECT_EQ(table.lookup(addr), nullptr);  // negative result, re-resolved
  table.install(cover);
  EXPECT_EQ(table.lookup(addr)->next_hop.node, 1u);
}

// Cache slots stamp the low 32 bits of the generation. A slot filled
// before that word wraps must never answer after it, even once the word
// comes round to the slot's stamp again.
TEST(RouteTable, LookupCacheClearedWhenStampWraps) {
  RouteTable table;
  RouteEntry cover;
  cover.prefix = Prefix::must_parse("10.0.0.0/8");
  cover.next_hop.node = 1;
  cover.next_hop.iface = 0;
  table.install(cover);

  const Ipv4Address addr = Ipv4Address::must_parse("10.1.2.3");
  RouteTableTestAccess::set_generation(table, 5);
  EXPECT_EQ(table.lookup(addr)->next_hop.node, 1u);  // slot stamped 5

  // The next mutation wraps the low word; stamp 0 (empty slots) is skipped.
  RouteTableTestAccess::set_generation(table, 0xFFFFFFFFu);
  RouteEntry specific;
  specific.prefix = Prefix::must_parse("10.1.0.0/16");
  specific.next_hop.node = 2;
  specific.next_hop.iface = 0;
  table.install(specific);
  EXPECT_EQ(table.generation(), 0x100000001u);

  // Four mutations later the low word is 5 again: the slot filled before
  // the wrap would match here had the wrap not cleared it.
  RouteTableTestAccess::set_generation(table, 0x100000005u);
  EXPECT_EQ(table.lookup(addr)->next_hop.node, 2u);
  EXPECT_EQ(table.lookup(addr)->next_hop.node, 2u);  // refilled, a hit
}

TEST(RouteTable, EntriesSnapshot) {
  RouteTable table;
  for (int i = 0; i < 5; ++i) {
    RouteEntry e;
    e.prefix = Prefix(Ipv4Address(10, std::uint8_t(i), 0, 0), 16);
    table.install(e);
  }
  EXPECT_EQ(table.size(), 5u);
  EXPECT_EQ(table.entries().size(), 5u);
}

TEST(Dir24Fib, BasicLookup) {
  Dir24Fib fib;
  fib.build({{Prefix::must_parse("10.0.0.0/8"), 1},
             {Prefix::must_parse("10.1.0.0/16"), 2},
             {Prefix::must_parse("10.1.2.0/24"), 3}});
  EXPECT_EQ(fib.lookup(Ipv4Address::must_parse("10.1.2.3")).value(), 3);
  EXPECT_EQ(fib.lookup(Ipv4Address::must_parse("10.1.3.3")).value(), 2);
  EXPECT_EQ(fib.lookup(Ipv4Address::must_parse("10.200.0.1")).value(), 1);
  EXPECT_FALSE(fib.lookup(Ipv4Address::must_parse("11.0.0.1")).has_value());
}

TEST(Dir24Fib, LongPrefixesUseExtensionTable) {
  Dir24Fib fib;
  fib.build({{Prefix::must_parse("10.1.2.0/24"), 1},
             {Prefix::must_parse("10.1.2.128/25"), 2},
             {Prefix::must_parse("10.1.2.4/32"), 3}});
  EXPECT_GE(fib.long_block_count(), 1u);
  EXPECT_EQ(fib.lookup(Ipv4Address::must_parse("10.1.2.4")).value(), 3);
  EXPECT_EQ(fib.lookup(Ipv4Address::must_parse("10.1.2.5")).value(), 1);
  EXPECT_EQ(fib.lookup(Ipv4Address::must_parse("10.1.2.200")).value(), 2);
}

TEST(Dir24Fib, Slash32WithoutCoverMisses) {
  Dir24Fib fib;
  fib.build({{Prefix::must_parse("10.1.2.4/32"), 7}});
  EXPECT_EQ(fib.lookup(Ipv4Address::must_parse("10.1.2.4")).value(), 7);
  EXPECT_FALSE(fib.lookup(Ipv4Address::must_parse("10.1.2.5")).has_value());
}

TEST(Dir24Fib, AgreesWithTrieOnRandomTables) {
  sim::Rng rng(4242);
  PrefixTrie<std::uint16_t> trie;
  std::vector<std::pair<Prefix, std::uint16_t>> routes;
  for (std::uint16_t i = 0; i < 500; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.uniform_int(8, 28));
    const auto addr = static_cast<std::uint32_t>(rng.next_u64());
    const Prefix p(Ipv4Address(addr), len);
    routes.emplace_back(p, i);
    trie.insert(p, i);  // trie replace mirrors dir24 "later wins for same"
  }
  Dir24Fib fib;
  fib.build(routes);
  for (int i = 0; i < 20000; ++i) {
    const Ipv4Address a(static_cast<std::uint32_t>(rng.next_u64()));
    const std::uint16_t* expect = trie.longest_match(a);
    const auto got = fib.lookup(a);
    if (expect == nullptr) {
      EXPECT_FALSE(got.has_value()) << a.to_string();
    } else {
      ASSERT_TRUE(got.has_value()) << a.to_string();
      EXPECT_EQ(*got, *expect) << a.to_string();
    }
  }
}

TEST(Dir24Fib, RejectsHugeNextHopIndex) {
  Dir24Fib fib;
  EXPECT_THROW(fib.build({{Prefix::must_parse("10.0.0.0/8"), 0x7FFF}}),
               std::invalid_argument);
}

TEST(Dir24Fib, RebuildWithFewerRoutesDropsOldState) {
  Dir24Fib fib;
  fib.build({{Prefix::must_parse("10.0.0.0/8"), 1},
             {Prefix::must_parse("20.1.2.0/24"), 2},
             {Prefix::must_parse("30.1.2.128/25"), 3}});
  EXPECT_GE(fib.long_block_count(), 1u);

  // Rebuild with a strict subset: every route from the first build that is
  // not in the second must miss, including the >/24 extension-table one.
  fib.build({{Prefix::must_parse("10.0.0.0/8"), 4}});
  EXPECT_EQ(fib.lookup(Ipv4Address::must_parse("10.9.9.9")).value(), 4);
  EXPECT_FALSE(fib.lookup(Ipv4Address::must_parse("20.1.2.3")).has_value());
  EXPECT_FALSE(fib.lookup(Ipv4Address::must_parse("30.1.2.200")).has_value());
  EXPECT_EQ(fib.long_block_count(), 0u);

  // Rebuild to empty: everything misses.
  fib.build({});
  EXPECT_FALSE(fib.lookup(Ipv4Address::must_parse("10.9.9.9")).has_value());
}

TEST(Dir24Fib, FailedBuildLeavesPreviousTableIntact) {
  Dir24Fib fib;
  fib.build({{Prefix::must_parse("10.0.0.0/8"), 1},
             {Prefix::must_parse("10.1.2.4/32"), 2}});
  // Validation happens before any painting, so a bad dump must not clobber
  // the table built above — even when the bad entry sorts after paintable
  // ones.
  EXPECT_THROW(fib.build({{Prefix::must_parse("40.0.0.0/8"), 5},
                          {Prefix::must_parse("50.0.0.0/8"), 0x7FFF}}),
               std::invalid_argument);
  EXPECT_EQ(fib.lookup(Ipv4Address::must_parse("10.1.2.4")).value(), 2);
  EXPECT_EQ(fib.lookup(Ipv4Address::must_parse("10.200.0.1")).value(), 1);
  EXPECT_FALSE(fib.lookup(Ipv4Address::must_parse("40.0.0.1")).has_value());
}

TEST(PrefixTrie, ForEachMutableEdits) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::must_parse("10.0.0.0/8"), 1);
  trie.insert(Prefix::must_parse("11.0.0.0/8"), 2);
  trie.for_each_mutable([](const Prefix&, int& v) { v *= 10; });
  EXPECT_EQ(*trie.exact_match(Prefix::must_parse("10.0.0.0/8")), 10);
  EXPECT_EQ(*trie.exact_match(Prefix::must_parse("11.0.0.0/8")), 20);
}

TEST(Hashing, AddressAndPrefixUsableInUnorderedContainers) {
  std::unordered_map<Ipv4Address, int> by_addr;
  by_addr[Ipv4Address::must_parse("10.0.0.1")] = 7;
  EXPECT_EQ(by_addr.at(Ipv4Address(10, 0, 0, 1)), 7);
  std::unordered_map<Prefix, int> by_prefix;
  by_prefix[Prefix::must_parse("10.0.0.0/8")] = 9;
  EXPECT_EQ(by_prefix.at(Prefix::must_parse("10.1.2.3/8")), 9);  // canonical
}

TEST(NextHop, Validity) {
  NextHop nh;
  EXPECT_FALSE(nh.valid());
  nh.local = true;
  EXPECT_TRUE(nh.valid());
  NextHop via;
  via.node = 1;
  EXPECT_FALSE(via.valid());  // missing interface
  via.iface = 0;
  EXPECT_TRUE(via.valid());
}

TEST(RouteEntry, EcmpNextHopSelection) {
  RouteEntry e;
  e.next_hop = NextHop{1, 10, false};
  EXPECT_EQ(e.next_hop_for(12345).node, 1u);  // no ECMP set → primary
  e.ecmp = {NextHop{1, 10, false}, NextHop{2, 11, false}};
  EXPECT_EQ(e.next_hop_for(0).node, 1u);
  EXPECT_EQ(e.next_hop_for(1).node, 2u);
  EXPECT_EQ(e.next_hop_for(7).node, 2u);  // 7 % 2
}

TEST(RouteSource, Names) {
  EXPECT_EQ(to_string(RouteSource::kConnected), "connected");
  EXPECT_EQ(to_string(RouteSource::kVpn), "vpn");
  EXPECT_EQ(default_admin_distance(RouteSource::kConnected), 0);
  EXPECT_EQ(default_admin_distance(RouteSource::kIgp), 110);
}

}  // namespace
}  // namespace mvpn::ip
