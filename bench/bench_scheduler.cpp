// Microbenchmarks for the event scheduler and packet-pool hot path
// (google-benchmark). These quantify the zero-allocation design in
// isolation from the forwarding logic:
//
//   * schedule/fire churn with small move-only handlers (the steady-state
//     pattern: every fired event schedules its successor),
//   * the same churn with a PacketPtr capture (the link-transmit shape),
//   * the cancel/re-arm pattern of retransmission timers (TcpLite's RTO),
//   * a control-plane flood: fan-out onto a few same-instant delays,
//   * pooled packet acquire/release vs a fresh heap allocation per packet.
//
// All loops reach a steady state where the scheduler's node pool and the
// packet pool stop growing, so no iteration touches the allocator.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "stats/log_histogram.hpp"
#include "stats/sample_set.hpp"

namespace {

using namespace mvpn;

/// Self-rescheduling event chain: each fire schedules the next, `depth`
/// independent chains interleave in the heap. Measures one schedule + one
/// pop/dispatch per iteration at a realistic heap occupancy.
void BM_ScheduleFireChain(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::Scheduler sched;
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    // Seed one chain per slot; offsets keep the heap ordering non-trivial.
    struct Chain {
      sim::Scheduler* sched;
      std::uint64_t* fired;
      void operator()() {
        ++*fired;
        sched->schedule_in(1000, Chain{sched, fired});
      }
    };
    sched.schedule_in(static_cast<sim::SimTime>(i + 1),
                      Chain{&sched, &fired});
  }
  for (auto _ : state) {
    sched.run_until(sched.now() + 1000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
  state.counters["node_pool"] =
      static_cast<double>(sched.node_pool_size());
}
BENCHMARK(BM_ScheduleFireChain)->Arg(16)->Arg(256)->Arg(4096);

/// The link-transmit shape: the handler owns a pooled PacketPtr, so the
/// callable must move (not copy) through the scheduler. In steady state the
/// pool hands back the same packet and nothing allocates.
void BM_SchedulePacketCapture(benchmark::State& state) {
  // Pool before scheduler: pending events hold PacketPtrs at teardown.
  net::PacketFactory factory;
  sim::Scheduler sched;
  std::uint64_t delivered = 0;

  struct Hop {
    sim::Scheduler* sched;
    net::PacketFactory* factory;
    std::uint64_t* delivered;
    net::PacketPtr pkt;
    void operator()() {
      ++*delivered;
      net::PacketPtr next = factory->make();
      next->payload_bytes = 472;
      sched->schedule_in(500, Hop{sched, factory, delivered,
                                  std::move(next)});
    }
  };
  static_assert(sim::InlineCallable::fits_inline<Hop>,
                "the data-plane capture set must not spill to the heap");

  net::PacketPtr first = factory.make();
  sched.schedule_in(1, Hop{&sched, &factory, &delivered, std::move(first)});
  for (auto _ : state) {
    sched.run_until(sched.now() + 500);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  state.counters["pool_allocated"] =
      static_cast<double>(factory.pool().allocated());
}
BENCHMARK(BM_SchedulePacketCapture);

/// Retransmission-timer pattern (TcpLite): arm a timer, cancel it before it
/// fires, re-arm. Exercises exact O(1) cancel plus lazy removal of the
/// cancelled heap entry.
void BM_CancelRearm(benchmark::State& state) {
  sim::Scheduler sched;
  std::uint64_t expired = 0;
  sim::EventId timer;
  for (auto _ : state) {
    timer = sched.schedule_in(10'000, [&expired] { ++expired; });
    sched.cancel(timer);
    sched.schedule_in(1, [] {});
    sched.run_until(sched.now() + 2);
  }
  benchmark::DoNotOptimize(expired);
  state.counters["node_pool"] =
      static_cast<double>(sched.node_pool_size());
}
BENCHMARK(BM_CancelRearm);

/// Control-plane flood shape (IGP flooding, LDP and BGP bursts): every
/// fired event schedules `k` successors on a lattice of three fixed delays
/// (a link's propagation delay or the session delay, plus the processing
/// delay), so about 10⁵ pending events share a few instants. The
/// `heap_capacity` counter shows how many heap entries that burst needs.
void BM_SameInstantFanout(benchmark::State& state) {
  static constexpr sim::SimTime kDelays[] = {1'100'000, 2'100'000,
                                             5'100'000};
  static constexpr std::size_t kPendingCap = 100'000;
  struct Flood {
    sim::Scheduler* sched;
    std::uint64_t* fired;
    std::int64_t k;
    void operator()() const {
      ++*fired;
      if (sched->pending() >= kPendingCap) return;
      for (std::int64_t i = 0; i < k; ++i) {
        sched->schedule_in(kDelays[i % 3], Flood{sched, fired, k});
      }
    }
  };
  sim::Scheduler sched;
  std::uint64_t fired = 0;
  sched.schedule_in(1, Flood{&sched, &fired, state.range(0)});
  while (sched.pending() < kPendingCap / 2) {
    sched.run_until(sched.now() + 100'000);
  }
  fired = 0;
  for (auto _ : state) {
    sched.run_until(sched.now() + 100'000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
  state.counters["pending"] = static_cast<double>(sched.pending());
  state.counters["heap_capacity"] =
      static_cast<double>(sched.heap_capacity());
}
BENCHMARK(BM_SameInstantFanout)->Arg(2)->Arg(3);

/// Pooled packet lifecycle: acquire, touch, release back to the freelist.
void BM_PacketPoolAcquireRelease(benchmark::State& state) {
  net::PacketFactory factory;
  for (auto _ : state) {
    net::PacketPtr p = factory.make();
    p->payload_bytes = 472;
    p->push_label(net::MplsShim{100, 5, 255});
    benchmark::DoNotOptimize(p.get());
  }
  state.counters["pool_allocated"] =
      static_cast<double>(factory.pool().allocated());
}
BENCHMARK(BM_PacketPoolAcquireRelease);

/// Baseline for the pool benchmark: a fresh heap packet per iteration
/// (what `make_standalone_packet` and the pre-pool code path cost).
void BM_PacketHeapAllocate(benchmark::State& state) {
  for (auto _ : state) {
    net::PacketPtr p = net::make_standalone_packet();
    p->payload_bytes = 472;
    p->push_label(net::MplsShim{100, 5, 255});
    benchmark::DoNotOptimize(p.get());
  }
}
BENCHMARK(BM_PacketHeapAllocate);

/// Registry snapshot with a SampleSet percentile source. Percentiles read
/// the set's LogHistogram mirror, so the cost must stay flat as the sample
/// count grows (the old path re-sorted the full vector every snapshot —
/// O(n log n) per tick). The `samples` counter makes the flatness visible
/// across the Arg sweep: ns/iter should not follow it.
void BM_MetricsSnapshot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::SampleSet latency;
  for (std::size_t i = 0; i < n; ++i) {
    latency.add(1e-3 + 1e-6 * static_cast<double>(i % 977));
  }
  obs::MetricsRegistry registry;
  registry.add_sample_set("sla/latency", &latency);
  for (auto _ : state) {
    auto snap = registry.snapshot();
    benchmark::DoNotOptimize(snap.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["samples"] = static_cast<double>(n);
  state.counters["sorts"] = static_cast<double>(latency.sort_count());
}
BENCHMARK(BM_MetricsSnapshot)->Arg(1'000)->Arg(100'000)->Arg(1'000'000);

/// The sketch's ingest path: one frexp + two array increments per sample.
void BM_LogHistogramAdd(benchmark::State& state) {
  stats::LogHistogram h;
  double x = 1e-6;
  for (auto _ : state) {
    h.add(x);
    x = x < 1.0 ? x * 1.0001 : 1e-6;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(h.count()));
  state.counters["memory_bytes"] = static_cast<double>(h.memory_bytes());
}
BENCHMARK(BM_LogHistogramAdd);

}  // namespace

BENCHMARK_MAIN();
