#include "backbone/partition.hpp"

#include <algorithm>
#include <functional>
#include <istream>
#include <limits>
#include <memory>
#include <numeric>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "vpn/router.hpp"

namespace mvpn::backbone {

namespace {

constexpr std::uint32_t kUnassigned = std::numeric_limits<std::uint32_t>::max();

/// Small union-find with component sizes (path halving, union by size).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  }

  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  [[nodiscard]] std::uint32_t size_of(std::uint32_t x) {
    return size_[find(x)];
  }

  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

}  // namespace

std::unique_ptr<net::ShardRuntime> make_shard_runtime(net::Topology& topo,
                                                      ShardPlan plan) {
  if (!plan.parallel() || plan.lookahead <= 0) {
    plan.shard_count = 1;
    plan.node_shard.assign(topo.node_count(), 0);
  }
  return std::make_unique<net::ShardRuntime>(
      topo, std::move(plan.node_shard), plan.shard_count, plan.lookahead);
}

void attach_sync_profiler(net::ShardRuntime& runtime,
                          const net::Topology& topo,
                          obs::SyncProfiler& profiler) {
  auto by_shard = std::make_shared<std::vector<std::vector<const vpn::Router*>>>(
      runtime.shard_count());
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    const auto id = static_cast<ip::NodeId>(i);
    if (const auto* r = dynamic_cast<const vpn::Router*>(&topo.node(id))) {
      (*by_shard)[runtime.shard_of(id)].push_back(r);
    }
  }
  profiler.set_cache_sampler([by_shard](std::uint32_t shard,
                                        std::uint64_t& hits,
                                        std::uint64_t& misses) {
    for (const vpn::Router* r : (*by_shard)[shard]) {
      const vpn::Router::FlowCacheStats fc = r->flowcache_stats();
      hits += fc.hits;
      misses += fc.misses;
    }
  });
  runtime.set_profiler(&profiler);
}

std::unique_ptr<obs::FlowExporter> attach_flow_exporter(
    net::ShardRuntime& runtime) {
  std::vector<const sim::Scheduler*> clocks;
  for (std::uint32_t s = 0; s < runtime.shard_count(); ++s) {
    clocks.push_back(&runtime.shard_scheduler(s));
  }
  auto exporter = std::make_unique<obs::FlowExporter>(clocks);
  runtime.set_flow_stats(exporter->tables());
  // Every lane clock starts at the topology's current instant.
  const sim::SimTime period = obs::FlowExporter::kIdleTimeout;
  runtime.add_periodic_action(
      clocks.front()->now() + period, period,
      [e = exporter.get()](sim::SimTime at) { e->scan(at); });
  return exporter;
}

ShardPlan compute_shard_plan(const net::Topology& topo, std::uint32_t shards) {
  return compute_shard_plan(topo, shards, {});
}

ShardPlan compute_shard_plan(const net::Topology& topo, std::uint32_t shards,
                             const std::vector<std::uint64_t>& node_weight) {
  const auto n = static_cast<std::uint32_t>(topo.node_count());
  ShardPlan plan;
  if (shards < 1) shards = 1;
  if (n == 0) {
    plan.shard_count = 1;
    return plan;
  }
  if (shards > n) shards = n;
  plan.node_shard.assign(n, 0);
  if (shards == 1) {
    plan.shard_count = 1;
    return plan;
  }

  // Per-node balance weights: all-1 (node counting — the historical plan)
  // unless a measured flow profile supplies real load. Zero weights clamp
  // to 1 so idle nodes still count as occupancy, and so the unweighted
  // call is exactly the all-1 case.
  std::vector<std::uint64_t> w(n, 1);
  for (std::size_t v = 0; v < node_weight.size() && v < w.size(); ++v) {
    w[v] = std::max<std::uint64_t>(node_weight[v], 1);
  }

  // Balance target: the engine's wall clock follows the busiest shard, so
  // no shard should exceed its fair share by more than rounding — but an
  // indivisible heaviest node must still fit somewhere.
  const std::uint64_t total_w = std::accumulate(w.begin(), w.end(),
                                                std::uint64_t{0});
  const std::uint64_t cap = std::max((total_w + shards - 1) / shards,
                                     *std::max_element(w.begin(), w.end()));

  // Step 1 — pick the cut-delay threshold D. Only links with delay >= D may
  // cross shards (lookahead = min cut delay >= D), so every component of
  // the sub-D "fast" graph must live inside one shard. Try thresholds from
  // the slowest distinct delay down and keep the largest one whose fast
  // clusters all fit under the cap; the smallest distinct delay always
  // works (its fast graph is empty — every cluster is a single node).
  std::vector<sim::SimTime> thresholds;
  thresholds.reserve(topo.link_count());
  for (net::LinkId id = 0; id < topo.link_count(); ++id) {
    thresholds.push_back(topo.link(id).config().prop_delay);
  }
  std::sort(thresholds.begin(), thresholds.end(), std::greater<>());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());

  std::vector<std::uint32_t> cluster_of(n);
  std::uint32_t clusters = n;
  {
    bool found = false;
    for (sim::SimTime d : thresholds) {
      UnionFind uf(n);
      for (net::LinkId id = 0; id < topo.link_count(); ++id) {
        const net::Link& l = topo.link(id);
        if (l.config().prop_delay < d) {
          uf.unite(l.end_a().node, l.end_b().node);
        }
      }
      std::vector<std::uint64_t> root_w(n, 0);
      for (std::uint32_t v = 0; v < n; ++v) root_w[uf.find(v)] += w[v];
      const std::uint64_t largest =
          *std::max_element(root_w.begin(), root_w.end());
      if (largest > cap) continue;
      // Number clusters by first appearance (node-id order): deterministic.
      std::vector<std::uint32_t> root_cluster(n, kUnassigned);
      std::uint32_t next = 0;
      for (std::uint32_t v = 0; v < n; ++v) {
        const std::uint32_t r = uf.find(v);
        if (root_cluster[r] == kUnassigned) root_cluster[r] = next++;
        cluster_of[v] = root_cluster[r];
      }
      clusters = next;
      found = true;
      break;
    }
    if (!found) {
      // No links at all: every node is its own cluster.
      std::iota(cluster_of.begin(), cluster_of.end(), std::uint32_t{0});
      clusters = n;
    }
  }

  std::vector<std::uint64_t> weight(clusters, 0);
  for (std::uint32_t v = 0; v < n; ++v) weight[cluster_of[v]] += w[v];
  std::vector<std::set<std::uint32_t>> adj(clusters);
  for (net::LinkId id = 0; id < topo.link_count(); ++id) {
    const net::Link& l = topo.link(id);
    const std::uint32_t a = cluster_of[l.end_a().node];
    const std::uint32_t b = cluster_of[l.end_b().node];
    if (a != b) {
      adj[a].insert(b);
      adj[b].insert(a);
    }
  }

  // Step 2 — grow up to `shards` capacity-bounded regions over the cluster
  // graph. Each region seeds at the lowest-numbered unassigned cluster and
  // repeatedly absorbs the lowest-numbered frontier cluster that still fits
  // under the cap; when nothing adjacent fits, the next region starts.
  // Frontier-based growth keeps regions contiguous where the cap allows,
  // which keeps cross-shard traffic (not correctness) low.
  std::vector<std::uint32_t> region_of(clusters, kUnassigned);
  std::vector<std::uint64_t> region_weight;
  std::uint32_t seed_scan = 0;
  while (region_weight.size() < shards) {
    while (seed_scan < clusters && region_of[seed_scan] != kUnassigned) {
      ++seed_scan;
    }
    if (seed_scan == clusters) break;  // every cluster already placed
    const auto r = static_cast<std::uint32_t>(region_weight.size());
    region_weight.push_back(0);
    std::set<std::uint32_t> frontier{seed_scan};
    while (!frontier.empty()) {
      std::uint32_t pick = kUnassigned;
      for (std::uint32_t c : frontier) {
        if (region_weight[r] + weight[c] <= cap) {
          pick = c;
          break;
        }
      }
      if (pick == kUnassigned) break;  // region full (nothing fits)
      frontier.erase(pick);
      region_of[pick] = r;
      region_weight[r] += weight[pick];
      for (std::uint32_t nbr : adj[pick]) {
        if (region_of[nbr] == kUnassigned) frontier.insert(nbr);
      }
    }
  }

  // Step 3 — clusters stranded by full neighbourhoods (or disconnected
  // from every seed) pool onto the lightest region, lightest-first: the
  // overflow lands where it hurts the critical path least. These clusters
  // may sit away from the rest of their region; that only adds cut links
  // (all still >= D), never unsafe ones.
  for (std::uint32_t c = 0; c < clusters; ++c) {
    if (region_of[c] != kUnassigned) continue;
    std::uint32_t best = 0;
    for (std::uint32_t r = 1; r < region_weight.size(); ++r) {
      if (region_weight[r] < region_weight[best]) best = r;
    }
    region_of[c] = best;
    region_weight[best] += weight[c];
  }

  // Number shards by each one's smallest node id (deterministic).
  std::vector<std::uint32_t> remap(region_weight.size(), kUnassigned);
  std::uint32_t next = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t r = region_of[cluster_of[v]];
    if (remap[r] == kUnassigned) remap[r] = next++;
    plan.node_shard[v] = remap[r];
  }
  plan.shard_count = next;

  for (net::LinkId id = 0; id < topo.link_count(); ++id) {
    const net::Link& l = topo.link(id);
    if (plan.node_shard[l.end_a().node] != plan.node_shard[l.end_b().node]) {
      plan.cut_links.push_back(id);
      const sim::SimTime d = l.config().prop_delay;
      if (plan.lookahead == 0 || d < plan.lookahead) plan.lookahead = d;
    }
  }
  return plan;
}

FlowProfile measure_flow_profile(const net::Topology& topo) {
  FlowProfile p;
  p.node_weight.assign(topo.node_count(), 0);
  p.link_weight.assign(topo.link_count(), 0);
  for (net::LinkId id = 0; id < topo.link_count(); ++id) {
    const net::Link& l = topo.link(id);
    const ip::NodeId a = l.end_a().node;
    const ip::NodeId b = l.end_b().node;
    const std::uint64_t ab = l.tx_from(a).packets.value();
    const std::uint64_t ba = l.tx_from(b).packets.value();
    p.link_weight[id] = ab + ba;
    // Every packet on the wire is work at both ends: enqueue/serialize at
    // the sender, receive/forward at the receiver.
    p.node_weight[a] += ab + ba;
    p.node_weight[b] += ab + ba;
  }
  return p;
}

void write_flow_profile(const FlowProfile& profile, const net::Topology& topo,
                        std::ostream& out) {
  out << "flowprofile v1\n";
  out << "nodes " << profile.node_weight.size() << "\n";
  for (std::size_t v = 0; v < profile.node_weight.size(); ++v) {
    out << "node " << v << " " << profile.node_weight[v];
    if (v < topo.node_count()) out << " # " << topo.node(v).name();
    out << "\n";
  }
  out << "links " << profile.link_weight.size() << "\n";
  for (std::size_t l = 0; l < profile.link_weight.size(); ++l) {
    out << "link " << l << " " << profile.link_weight[l] << "\n";
  }
}

bool load_flow_profile(std::istream& in, FlowProfile* profile,
                       std::string* err) {
  auto fail = [err](const std::string& why) {
    if (err != nullptr) *err = why;
    return false;
  };
  std::string line;
  if (!std::getline(in, line) || line.rfind("flowprofile v1", 0) != 0) {
    return fail("flow profile: missing 'flowprofile v1' header");
  }
  FlowProfile p;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;  // blank / comment-only line
    if (kind == "nodes" || kind == "links") continue;  // counts are advisory
    std::size_t id = 0;
    std::uint64_t weight = 0;
    if (!(ls >> id >> weight)) {
      return fail("flow profile: malformed line: " + line);
    }
    if (kind != "node" && kind != "link") {
      return fail("flow profile: unknown record '" + kind + "'");
    }
    if (id >= kMaxFlowProfileId) {
      return fail("flow profile: id out of range: " + line);
    }
    auto& vec = kind == "node" ? p.node_weight : p.link_weight;
    if (id >= vec.size()) vec.resize(id + 1, 0);
    vec[id] = weight;
  }
  *profile = std::move(p);
  return true;
}

void report_shard_plan(const ShardPlan& plan, const net::Topology& topo,
                       std::ostream& out,
                       const std::vector<std::uint64_t>& node_weight) {
  out << "partition: " << plan.shard_count << " shards, cut "
      << plan.cut_links.size() << "/" << topo.link_count()
      << " links, lookahead " << sim::to_seconds(plan.lookahead) * 1e6
      << " us\n";
  if (!plan.parallel()) return;
  std::vector<std::size_t> nodes(plan.shard_count, 0);
  std::vector<std::size_t> ces(plan.shard_count, 0);
  std::vector<std::uint64_t> flow_w(plan.shard_count, 0);
  std::uint64_t total_w = 0;
  for (ip::NodeId v = 0; v < topo.node_count(); ++v) {
    const std::uint32_t s = plan.node_shard[v];
    ++nodes[s];
    const auto* r = dynamic_cast<const vpn::Router*>(&topo.node(v));
    if (r != nullptr && r->role() == vpn::Role::kCe) ++ces[s];
    if (v < node_weight.size()) {
      flow_w[s] += node_weight[v];
      total_w += node_weight[v];
    }
  }
  for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
    out << "partition: shard " << s << ": " << nodes[s] << " nodes, "
        << ces[s] << " CE sites";
    if (total_w != 0) {
      out << ", flow weight " << flow_w[s] << " ("
          << static_cast<double>(flow_w[s]) * 100.0 /
                 static_cast<double>(total_w)
          << "%)";
    }
    out << "\n";
  }
}

}  // namespace mvpn::backbone
