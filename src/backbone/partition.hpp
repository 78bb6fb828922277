#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/shard_runtime.hpp"
#include "net/topology.hpp"
#include "obs/flow_stats.hpp"
#include "obs/sync_profiler.hpp"
#include "sim/time.hpp"

namespace mvpn::backbone {

/// Output of the topology partitioner: which shard owns each node, which
/// links form the cut, and the conservative lookahead the cut admits.
struct ShardPlan {
  std::uint32_t shard_count = 1;
  std::vector<std::uint32_t> node_shard;  ///< NodeId -> shard id
  std::vector<net::LinkId> cut_links;     ///< links spanning two shards
  sim::SimTime lookahead = 0;             ///< min prop delay over the cut

  [[nodiscard]] bool parallel() const noexcept { return shard_count > 1; }
};

/// Partition the topology into (at most) `shards` balanced components,
/// maximising the minimum propagation delay across the cut.
///
/// Two-level scheme. First pick the cut-delay threshold D: only links with
/// delay >= D are allowed to cross shards (the engine's lookahead is the
/// minimum cut delay, so it ends up >= D), which forces every component of
/// the faster-than-D subgraph — a "fast cluster" — into a single shard.
/// D is the slowest distinct delay whose fast clusters all fit under the
/// balance cap of ceil(N / shards) nodes; the smallest delay always
/// qualifies, since its fast subgraph is empty. Second, grow up to
/// `shards` capacity-bounded regions over the cluster graph: each region
/// seeds at the lowest-numbered unassigned cluster and absorbs the
/// lowest-numbered adjacent cluster that still fits, and clusters stranded
/// by full neighbourhoods pool onto the lightest region. Every choice
/// breaks ties on cluster/node numbering, so the plan is a pure function
/// of the topology.
///
/// In the paper's backbone shape this lands where you'd want it: the 1 ms
/// CE/PE access links are the fast subgraph, so each CE clusters with its
/// PE; the regions then carve the 2 ms core into balanced node groups and
/// the cut is made of core links only — lookahead 2 ms, millions of
/// nanoseconds of conservative window per barrier.
///
/// Degenerate inputs degrade safely: `shards <= 1`, a single node, or a
/// topology with fewer links than needed simply yields fewer (possibly 1)
/// shards; `plan.parallel()` tells the caller whether running parallel is
/// worthwhile.
[[nodiscard]] ShardPlan compute_shard_plan(const net::Topology& topo,
                                           std::uint32_t shards);

/// Bring up the engine `plan` asks for on the converged topology: its
/// shards when it splits the topology over a cut with a positive
/// lookahead, else one lane (the serial engine; see net::ShardRuntime).
[[nodiscard]] std::unique_ptr<net::ShardRuntime> make_shard_runtime(
    net::Topology& topo, ShardPlan plan);

/// Attach `profiler` to `runtime` with a flow-cache sampler that sums every
/// vpn::Router's hit/miss counters by the shard the runtime maps it to
/// (the profiler layer cannot see routers). The profiler must outlive the
/// runtime's last run_until().
void attach_sync_profiler(net::ShardRuntime& runtime,
                          const net::Topology& topo,
                          obs::SyncProfiler& profiler);

/// Arm per-flow accounting on `runtime`: an exporter with one table per
/// lane, each stamped by its lane clock, installed through set_flow_stats,
/// and a scan every FlowExporter::kIdleTimeout from the lanes' current
/// instant as a between-window periodic action (every lane rests past all
/// events before the instant, none at or after), so the record stream is
/// byte-identical across shard counts. Call it before registering any
/// periodic action that should see a coincident instant's records. The
/// exporter must outlive the runtime's last run_until().
[[nodiscard]] std::unique_ptr<obs::FlowExporter> attach_flow_exporter(
    net::ShardRuntime& runtime);

/// Human-readable partition diagnostics: cut size, the lookahead the cut
/// admits, and per-shard node / CE-site balance (CEs are where traffic
/// sources and sinks live, so their spread predicts flow balance). One
/// line per shard.
void report_shard_plan(const ShardPlan& plan, const net::Topology& topo,
                       std::ostream& out);

}  // namespace mvpn::backbone
