#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ip/address.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "obs/latency.hpp"
#include "obs/sync_profiler.hpp"
#include "obs/trace.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace mvpn::net {

/// Everything a parallel run layers on top of a Topology: per-shard
/// schedulers / packet pools / recorders / latency collectors, the
/// cross-shard handoff staging between shards, and the conservative
/// engine driving them. Constructing a ShardRuntime installs the sharded
/// view on the topology (Topology's ambient accessors start dispatching on
/// the calling thread's shard); finish() — or destruction — tears it back
/// down and folds per-shard trace rings into the master recorder, leaving
/// the topology exactly as a serial run would.
///
/// N shards run on N threads: the thread calling run_until() runs lane 0
/// and coordinates, each other lane has a peer thread
/// (sim::ParallelEngine). One shard is that engine with no peers, driven
/// through the same API: lane 0 *is* the topology's own scheduler, packet
/// pool, recorder and latency collector, so no barrier, handoff staging or
/// ShardBinding exists and the topology's ambient accessors keep their
/// one-null-test serial path. With a profiler attached, a one-shard
/// run_until() is recorded as one serial execution phase (the engine gets
/// no observer).
///
/// Handoff transport: each (src, dst) shard pair owns a plain staging
/// vector. The producing lane appends during its window; the coordinator
/// drains all staging between windows. No atomics or locks per envelope —
/// lane 0 stages and drains on the same thread, and for the peers the
/// epoch barrier's release/acquire edges (peer arrive -> coordinator
/// wait_all_arrived, coordinator open -> peer next) are the entire
/// synchronization. clear() keeps each vector's capacity so the steady
/// state allocates nothing.
///
/// Lifetime contract: the Topology outlives the runtime; the runtime must
/// be finished/destroyed before the topology is used serially again.
/// finish() clears pool owner tags and flushes every link queue so no
/// PacketPtr issued by a shard pool survives the shard's destruction (the
/// debug asserts in PacketPool enforce both halves).
class ShardRuntime {
 public:
  /// One cross-shard packet in flight, by value: the full field image of
  /// the packet plus its delivery coordinates. No PacketPtr ever crosses a
  /// shard boundary — the source shard's packet is released before the
  /// envelope is staged, and the destination shard materializes a packet
  /// from its *own* pool at delivery time.
  struct Handoff {
    sim::SimTime deliver_at = 0;
    std::uint64_t seq = 0;      ///< per-(src,dst)-channel FIFO sequence
    std::uint32_t src = 0;      ///< producing shard (merge tie-break)
    ip::NodeId to = ip::kInvalidNode;
    ip::IfIndex iface = ip::kInvalidIf;
    Packet pkt;
  };

  /// `node_shard` maps every NodeId to [0, shard_count); `lookahead` is
  /// the minimum propagation delay over cut links (backbone::ShardPlan
  /// computes both; one shard ignores it). With two or more shards,
  /// installs the sharded view, aligns every shard clock to the topology's
  /// current instant, and repoints link-queue tracing at the owning
  /// shard's recorder. Throws std::invalid_argument on zero shards or a
  /// map that misses a node or names a shard out of range.
  ShardRuntime(Topology& topo, std::vector<std::uint32_t> node_shard,
               std::uint32_t shard_count, sim::SimTime lookahead);
  ~ShardRuntime();

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  /// Called from net::Link on the *source* lane's thread when a
  /// transmission's destination lives on another shard. From coordinator
  /// context (sim::current_shard() == kNoShard, only between windows) the
  /// delivery is scheduled directly — the staging vectors are lane-owned
  /// during windows.
  void handoff(std::uint32_t dst_shard, sim::SimTime deliver_at,
               ip::NodeId to, ip::IfIndex iface, const Packet& p);

  /// Drive the simulation to exactly `t_end`.
  void run_until(sim::SimTime t_end);

  /// Global action between windows (metrics snapshots, flow scans): see
  /// sim::ParallelEngine::add_periodic_action.
  void add_periodic_action(sim::SimTime first, sim::SimTime period,
                           std::function<void(sim::SimTime at)> fn) {
    engine_->add_periodic_action(first, period, std::move(fn));
  }
  void add_periodic_action(sim::SimTime first, sim::SimTime period,
                           std::function<void()> fn) {
    engine_->add_periodic_action(
        first, period, [fn = std::move(fn)](sim::SimTime) { fn(); });
  }

  /// Attach an epoch-level sync profiler: the engine feeds it lane and
  /// coordinator epoch records, and the exchange reports drain timing,
  /// per-source staged-envelope counts and delivery-run sizes; one shard
  /// reports each run_until() as one serial phase instead. Must be
  /// attached before the first run_until() (peers latch the observer at
  /// thread start); null detaches nothing — pass once or never. The
  /// profiler must outlive the runtime's last run_until().
  void set_profiler(obs::SyncProfiler* profiler);

  /// Install per-shard flow accounting tables (one per shard, outliving
  /// the runtime): fills ShardBinding::flow_stats so the ambient
  /// Topology::flow_stats() answers per lane, and repoints every link
  /// queue's drop funnel at the transmitting node's shard table — exactly
  /// the treatment queue trace contexts get. One shard installs its table
  /// as the topology's own. finish() restores the topology's serial table.
  /// Install while quiescent, before run_until().
  void set_flow_stats(std::vector<obs::FlowStatsTable*> tables);

  /// Fold every shard's latency collector into the topology's own (the
  /// one Topology::set_latency_collector installed), replacing what it
  /// held. Lane 0 of one shard records there directly, so that is a no-op.
  /// Call while quiescent (between windows or after the run).
  void fold_latency();

  /// Tear down the sharded view: uninstall, merge shard trace rings into
  /// the master recorder in global (time, shard) order, restore queue
  /// trace contexts, clear pool owner tags and flush link queues.
  /// Idempotent; the destructor calls it.
  void finish();

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(binding_.schedulers.size());
  }
  /// Owning shard of node `n` (0 for every node of one shard).
  [[nodiscard]] std::uint32_t shard_of(ip::NodeId n) const noexcept {
    return binding_.node_shard[n];
  }
  /// Events executed so far by every scheduler the run drives (the
  /// topology's own plus each shard's).
  [[nodiscard]] std::uint64_t executed_count() const noexcept;
  [[nodiscard]] sim::SimTime lookahead() const noexcept { return lookahead_; }
  [[nodiscard]] std::uint64_t windows() const noexcept {
    return engine_->windows();
  }
  [[nodiscard]] std::uint64_t widened_windows() const noexcept {
    return engine_->widened_windows();
  }
  [[nodiscard]] std::uint64_t idle_jumps() const noexcept {
    return engine_->idle_jumps();
  }
  /// Envelopes merged across all barriers so far.
  [[nodiscard]] std::uint64_t handoffs() const noexcept { return handoffs_; }
  /// Multi-envelope delivery events scheduled (same destination shard and
  /// instant fused into one heap node); singletons are not counted.
  [[nodiscard]] std::uint64_t delivery_batches() const noexcept {
    return batches_;
  }

  [[nodiscard]] sim::Scheduler& shard_scheduler(std::uint32_t s) {
    return *binding_.schedulers[s];
  }

 private:
  using Batch = std::vector<Handoff>;

  /// Per-shard simulation state. Declaration order is the same lifetime
  /// contract as Topology's: the factory (pool) outlives the scheduler,
  /// whose pending closures release PacketPtrs on destruction.
  struct ShardCtx {
    PacketFactory factory;
    sim::Scheduler sched;
    obs::FlightRecorder recorder;
    obs::LatencyCollector latency;
    /// Batches this lane finished delivering; the coordinator harvests
    /// them back into the free list between windows.
    std::vector<Batch*> returned;

    ShardCtx() : recorder(&sched) {}
  };

  [[nodiscard]] Batch& staging(std::uint32_t src, std::uint32_t dst) {
    return staging_[src * ctxs_.size() + dst];
  }
  [[nodiscard]] Batch* acquire_batch();
  void exchange(sim::SimTime window_end);
  void schedule_delivery(Handoff&& env);
  void schedule_batch(std::uint32_t dst, sim::SimTime at, std::size_t first,
                      std::size_t last);

  Topology& topo_;
  sim::SimTime lookahead_;
  /// The node map and lane schedulers for every shard count; installed on
  /// the topology only with two or more shards.
  ShardBinding binding_;
  /// One shard: the topology's table before set_flow_stats(), restored by
  /// finish().
  obs::FlowStatsTable* serial_flow_stats_ = nullptr;
  std::vector<std::unique_ptr<ShardCtx>> ctxs_;
  std::vector<Batch> staging_;       ///< k*k per-(src,dst) handoff staging
  std::vector<std::uint64_t> seqs_;  ///< per-channel, touched by src only
  std::vector<Handoff> scratch_;     ///< coordinator merge buffer
  /// Batch storage: owning store (stable addresses for in-flight delivery
  /// events), coordinator-side free list. Recycled batches keep their
  /// capacity, so steady state schedules batches without allocating.
  std::vector<std::unique_ptr<Batch>> batch_store_;
  std::vector<Batch*> batch_free_;
  std::uint64_t handoffs_ = 0;
  std::uint64_t batches_ = 0;
  obs::SyncProfiler* profiler_ = nullptr;
  /// Per-source staged-envelope counts for the epoch being drained;
  /// reused each exchange, reported to the profiler.
  std::vector<std::uint64_t> per_src_handoffs_;
  bool finished_ = false;
  // Engine last: its destructor joins the peer threads that reference the
  // shard schedulers above.
  std::unique_ptr<sim::ParallelEngine> engine_;
};

}  // namespace mvpn::net
