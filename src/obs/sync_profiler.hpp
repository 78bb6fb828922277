#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/engine_observer.hpp"
#include "sim/time.hpp"
#include "stats/log_histogram.hpp"

namespace mvpn::obs {

class MetricsRegistry;

/// Epoch-level sync telemetry for the sharded engine.
///
/// The packet-side obs stack decomposes where *latency* goes; this
/// decomposes where the *engine's wall clock* goes — event execution vs
/// barrier wait vs staging drain vs park/wake — so a missing parallel
/// speedup can be attributed to real sync costs instead of guessed at.
///
/// Memory model (INTERNALS.md §12) follows the FlightRecorder discipline:
///  * One Lane per shard, cache-line separated. Its ring (fixed-capacity
///    POD slots, power-of-two mask), cumulative totals and barrier-wait
///    sketch are written ONLY by that shard's thread, inside
///    on_worker_epoch() — which the engine calls before the lane reports
///    back, so every lane write is ordered before the coordinator's
///    post-barrier reads: by the epoch barrier's release/acquire edge for
///    a peer thread, by program order for lane 0, whose thread is the
///    coordinator's. No per-record atomics.
///  * Coordinator-owned state (coordinator ring, per-shard epoch rings,
///    batch-size sketch, critical-shard attribution) is written only
///    between windows: record_exchange()/record_batch() inside the
///    exchange hook, then on_coordinator_epoch() — which also reads each
///    lane's freshest slot (legal per the same edge) to attribute the
///    epoch to its slowest shard and samples the flow caches through the
///    cache sampler.
///  * report()/snapshots/JSON run strictly when the engine is idle
///    (between run_until calls or after the run); metric gauges read
///    cumulative totals and are safe from global actions between windows.
///
/// Steady state allocates nothing: rings and scratch are sized at
/// construction, LogHistogram buckets are fixed. When no profiler is
/// installed the engine pays one untaken branch per epoch — the same
/// "~free when disabled" bar the FlightRecorder sets.
class SyncProfiler : public sim::EngineObserver {
 public:
  /// Per-shard ring capacity in epochs (rounded up to a power of two).
  /// Aggregates cover every epoch regardless; rings retain the tail for
  /// the Chrome-trace lanes.
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// One worker epoch as retained in the lane ring. POD.
  struct WorkerSlot {
    std::uint64_t epoch = 0;
    sim::SimTime window_start = 0;
    sim::SimTime window_end = 0;
    std::uint64_t begin_ns = 0;  ///< steady-clock, entering the wait
    std::uint64_t wait_ns = 0;
    std::uint64_t exec_ns = 0;
    std::uint64_t events = 0;
    std::uint8_t parked = 0;
  };

  /// One coordinator epoch. POD.
  struct CoordSlot {
    std::uint64_t epoch = 0;
    sim::SimTime window_start = 0;
    sim::SimTime window_end = 0;
    std::uint64_t wait_ns = 0;   ///< in wait_all_arrived()
    std::uint64_t drain_ns = 0;  ///< staging drain + merge in the exchange
    std::uint64_t handoffs = 0;  ///< envelopes merged this epoch
    std::uint8_t parked = 0;
    std::uint8_t widened = 0;
    std::uint8_t idle_jump = 0;
  };

  /// Coordinator-sampled per-shard counters at each epoch boundary
  /// (cumulative, so consumers can difference consecutive slots). POD.
  struct ShardEpochSlot {
    std::uint64_t epoch = 0;
    std::uint64_t handoffs_out = 0;  ///< envelopes this shard staged, total
    std::uint64_t cache_hits = 0;    ///< flow-cache hits, total
    std::uint64_t cache_misses = 0;
  };

  explicit SyncProfiler(std::uint32_t shards,
                        std::size_t capacity = kDefaultCapacity);

  // --- sim::EngineObserver ------------------------------------------------
  void on_worker_epoch(const WorkerEpoch& e) noexcept override;
  void on_coordinator_epoch(const CoordinatorEpoch& e) noexcept override;

  // --- runtime hooks (coordinator thread, inside the exchange) ------------
  /// Drain cost + per-source staged-envelope counts for the epoch being
  /// closed; folded into the coordinator slot by on_coordinator_epoch().
  void record_exchange(std::uint64_t drain_ns, std::uint64_t handoffs,
                       const std::uint64_t* per_src,
                       std::uint32_t n) noexcept;
  /// One delivery run fused (or scheduled singly) at the exchange.
  void record_batch(std::size_t envelopes) noexcept;

  /// Optional per-shard flow-cache sampler, invoked once per shard per
  /// epoch on the coordinator thread between windows. The scenario/bench
  /// layer installs one that sums vpn::Router counters by shard (this
  /// layer cannot see routers).
  using CacheSampler = std::function<void(
      std::uint32_t shard, std::uint64_t& hits, std::uint64_t& misses)>;
  void set_cache_sampler(CacheSampler fn) { cache_sampler_ = std::move(fn); }

  /// Serial-run lane: no epochs, no barrier — record the whole run as one
  /// execution phase so serial and sharded bench passes emit reports of
  /// the same shape (busy fraction 1.0 by construction).
  void record_serial(std::uint64_t exec_ns, std::uint64_t events) noexcept;

  // --- reads (engine idle only) -------------------------------------------
  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(lanes_.size());
  }
  [[nodiscard]] std::uint64_t epochs() const noexcept { return coord_count_; }
  /// Oldest-first retained worker epochs for one shard.
  [[nodiscard]] std::vector<WorkerSlot> worker_snapshot(
      std::uint32_t shard) const;
  [[nodiscard]] std::vector<CoordSlot> coordinator_snapshot() const;
  [[nodiscard]] std::vector<ShardEpochSlot> shard_epoch_snapshot(
      std::uint32_t shard) const;

  /// Everything the load-imbalance analysis needs, aggregated over every
  /// epoch (not just the ring tail).
  struct Report {
    struct Lane {
      std::uint32_t shard = 0;
      std::uint64_t epochs = 0;
      std::uint64_t events = 0;
      std::uint64_t exec_ns = 0;
      std::uint64_t wait_ns = 0;
      std::uint64_t parks = 0;  ///< epochs whose wait fell to the condvar
      /// Epochs where this shard had the largest execution phase — the
      /// shard the barrier was effectively waiting on.
      std::uint64_t critical_epochs = 0;
      std::uint64_t handoffs_out = 0;
      std::uint64_t cache_hits = 0;
      std::uint64_t cache_misses = 0;
      double busy_fraction = 0.0;  ///< exec wall / lane wall span
      double wait_p50_us = 0.0;
      double wait_p99_us = 0.0;
      [[nodiscard]] double cache_hit_rate() const noexcept {
        const double total =
            static_cast<double>(cache_hits) + static_cast<double>(cache_misses);
        return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
      }
    };
    bool serial = false;
    std::uint32_t shards = 0;
    std::uint64_t epochs = 0;
    std::uint64_t widened = 0;
    std::uint64_t idle_jumps = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t delivery_batches = 0;  ///< delivery runs incl. singletons
    std::uint64_t coord_wait_ns = 0;
    std::uint64_t coord_parks = 0;
    std::uint64_t drain_ns = 0;
    double wall_s = 0.0;  ///< first wait entry .. last epoch close
    double coord_wait_p50_us = 0.0;
    double coord_wait_p99_us = 0.0;
    double batch_p50 = 0.0;
    double batch_max = 0.0;
    std::vector<Lane> lanes;

    /// Human-readable summary (sync.txt under run_scenario --obs DIR,
    /// bench output).
    [[nodiscard]] std::string to_table() const;
    /// One JSON object — run_scenario --obs DIR writes it to sync.json.
    void write_json(std::ostream& out) const;
  };
  [[nodiscard]] Report report() const;

 private:
  /// Worker-owned state; cache-line separated so lanes never false-share.
  struct alignas(64) Lane {
    std::vector<WorkerSlot> ring;
    std::uint64_t recorded = 0;  ///< monotonic; ring index = recorded & mask
    std::uint64_t wait_ns = 0;
    std::uint64_t exec_ns = 0;
    std::uint64_t events = 0;
    std::uint64_t parks = 0;
    std::uint64_t first_ns = 0;  ///< steady stamp entering the first wait
    std::uint64_t last_ns = 0;   ///< steady stamp closing the latest epoch
    stats::LogHistogram wait_s;  ///< barrier wait per epoch, seconds
  };
  /// Coordinator-owned per-shard accumulation.
  struct CoordShard {
    std::vector<ShardEpochSlot> ring;
    std::uint64_t recorded = 0;
    std::uint64_t critical_epochs = 0;
    std::uint64_t handoffs_out = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
  };

  std::size_t mask_;  ///< ring capacity - 1 (power of two)
  std::vector<Lane> lanes_;
  std::vector<CoordShard> coord_shards_;
  std::vector<CoordSlot> coord_ring_;
  std::uint64_t coord_count_ = 0;
  std::uint64_t coord_wait_ns_ = 0;
  std::uint64_t coord_parks_ = 0;
  std::uint64_t drain_ns_ = 0;
  std::uint64_t handoffs_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t widened_ = 0;
  std::uint64_t idle_jumps_ = 0;
  stats::LogHistogram coord_wait_s_;
  stats::LogHistogram batch_sizes_;  ///< unit: envelopes per delivery run
  /// Pending drain stats from record_exchange, consumed by the next
  /// on_coordinator_epoch (both coordinator-thread, strictly ordered).
  std::uint64_t pending_drain_ns_ = 0;
  std::uint64_t pending_handoffs_ = 0;
  std::vector<std::uint64_t> pending_per_src_;
  CacheSampler cache_sampler_;
  std::uint64_t serial_exec_ns_ = 0;
  std::uint64_t serial_events_ = 0;
};

/// Register the profiler's aggregate counters as gauges:
///   engine/sync/{epochs,widened,idle_jumps,handoffs,batches}
///   engine/sync/shard<N>/{exec_ns,wait_ns,events,parks}
/// Gauges read coordinator/worker cumulative totals, so snapshots must be
/// taken between windows (PeriodicSnapshots via the engine's global
/// actions already is) or after the run.
void register_sync_metrics(const SyncProfiler& profiler,
                           MetricsRegistry& registry);

}  // namespace mvpn::obs
