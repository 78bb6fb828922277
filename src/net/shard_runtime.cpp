#include "net/shard_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "net/link.hpp"
#include "sim/shard.hpp"

namespace mvpn::net {

namespace {

inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardRuntime::ShardRuntime(Topology& topo,
                           std::vector<std::uint32_t> node_shard,
                           std::uint32_t shard_count, sim::SimTime lookahead)
    : topo_(topo), lookahead_(lookahead) {
  if (shard_count == 0) {
    throw std::invalid_argument("ShardRuntime: need at least 1 shard");
  }
  if (node_shard.size() < topo.node_count()) {
    throw std::invalid_argument("ShardRuntime: node_shard map is incomplete");
  }
  for (const std::uint32_t s : node_shard) {
    if (s >= shard_count) {
      throw std::invalid_argument("ShardRuntime: node mapped past shard_count");
    }
  }
  binding_.node_shard = std::move(node_shard);

  if (shard_count == 1) {
    // Lane 0 is the topology itself; no binding is installed, so the
    // ambient accessors (and Link's handoff test) stay on the serial path.
    binding_.schedulers.push_back(&topo_.base_scheduler());
    engine_ = std::make_unique<sim::ParallelEngine>(
        std::vector<sim::ParallelEngine::ShardRef>{{0, &topo_.base_scheduler()}},
        lookahead_, nullptr);
    return;
  }

  const sim::SimTime now = topo_.base_scheduler().now();
  obs::FlightRecorder& master_rec = topo_.base_recorder();
  const std::uint64_t issued = topo_.packet_factory().issued();

  ctxs_.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    auto ctx = std::make_unique<ShardCtx>();
    // Shard clocks pick up where the serial prologue (convergence, setup)
    // left the topology clock — stamps and trace times stay on one axis.
    ctx->sched.run_until(now);
    // Strided id space: shard s stamps issued+1+s, issued+1+s+K, ... so
    // ids stay globally unique without a shared counter.
    ctx->factory.configure_ids(issued + 1 + s, shard_count);
    ctx->factory.pool().set_owner_shard(s);
    ctx->recorder.set_capacity(master_rec.capacity());
    if (master_rec.mask() != 0) ctx->recorder.enable(master_rec.mask());
    ctxs_.push_back(std::move(ctx));
  }
  // The master pool becomes coordinator-owned for the parallel phase: a
  // lane's slice releasing a pre-existing packet is a partitioning bug.
  topo_.packet_factory().pool().set_owner_shard(sim::kNoShard);

  for (std::uint32_t s = 0; s < shard_count; ++s) {
    binding_.schedulers.push_back(&ctxs_[s]->sched);
    binding_.factories.push_back(&ctxs_[s]->factory);
    binding_.recorders.push_back(&ctxs_[s]->recorder);
    if (topo_.latency_collector() != nullptr) {
      binding_.collectors.push_back(&ctxs_[s]->latency);
    }
  }

  staging_.resize(static_cast<std::size_t>(shard_count) * shard_count);
  seqs_.assign(staging_.size(), 0);

  // Link-queue tracing was wired to the master recorder at link creation;
  // repoint each direction at its transmitting node's shard recorder so
  // enqueue/drop records never cross threads.
  for (LinkId id = 0; id < topo_.link_count(); ++id) {
    Link& l = topo_.link(id);
    for (const ip::NodeId n : {l.end_a().node, l.end_b().node}) {
      const std::uint32_t s = binding_.node_shard[n];
      l.queue_from(n).set_trace_context(&ctxs_[s]->recorder, n, id);
    }
  }

  std::vector<sim::ParallelEngine::ShardRef> refs;
  refs.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    refs.push_back({s, &ctxs_[s]->sched});
  }
  engine_ = std::make_unique<sim::ParallelEngine>(std::move(refs), lookahead_,
                                                  &topo_.base_scheduler());
  engine_->set_exchange([this](sim::SimTime we) { exchange(we); });

  topo_.install_sharding(&binding_, this);
}

ShardRuntime::~ShardRuntime() { finish(); }

void ShardRuntime::run_until(sim::SimTime t_end) {
  if (profiler_ == nullptr || !ctxs_.empty()) {
    engine_->run_until(t_end);
    return;
  }
  // One lane's windows go unobserved: the whole call is one execution
  // phase of the serial report.
  const std::uint64_t ev0 = executed_count();
  const std::uint64_t t0 = steady_ns();
  engine_->run_until(t_end);
  profiler_->record_serial(steady_ns() - t0, executed_count() - ev0);
}

std::uint64_t ShardRuntime::executed_count() const noexcept {
  std::uint64_t n = topo_.base_scheduler().executed_count();
  for (const auto& ctx : ctxs_) n += ctx->sched.executed_count();
  return n;
}

void ShardRuntime::set_profiler(obs::SyncProfiler* profiler) {
  profiler_ = profiler;
  per_src_handoffs_.assign(shard_count(), 0);
  if (!ctxs_.empty()) engine_->set_observer(profiler);
}

void ShardRuntime::fold_latency() {
  obs::LatencyCollector* into = topo_.latency_collector();
  if (into == nullptr || ctxs_.empty()) return;
  into->reset();
  for (const auto& ctx : ctxs_) into->merge_from(ctx->latency);
}

void ShardRuntime::set_flow_stats(std::vector<obs::FlowStatsTable*> tables) {
  if (tables.size() != shard_count()) {
    throw std::invalid_argument("ShardRuntime::set_flow_stats: need one table per shard");
  }
  if (ctxs_.empty()) {
    serial_flow_stats_ = topo_.flow_stats();
    topo_.set_flow_stats(tables.front());
    binding_.flow_stats = std::move(tables);
    return;
  }
  binding_.flow_stats = std::move(tables);
  for (LinkId id = 0; id < topo_.link_count(); ++id) {
    Link& l = topo_.link(id);
    for (const ip::NodeId n : {l.end_a().node, l.end_b().node}) {
      const std::uint32_t s = binding_.node_shard[n];
      l.queue_from(n).set_flow_stats(binding_.flow_stats[s]);
    }
  }
}

void ShardRuntime::handoff(std::uint32_t dst_shard, sim::SimTime deliver_at,
                           ip::NodeId to, ip::IfIndex iface, const Packet& p) {
  Handoff env;
  env.deliver_at = deliver_at;
  env.to = to;
  env.iface = iface;
  env.pkt.copy_fields_from(p);
  const std::uint32_t src = sim::current_shard();
  if (src == sim::kNoShard) {
    // Coordinator context (between windows, lanes at rest): schedule the
    // delivery directly, keeping the staging vectors strictly
    // lane-written during windows.
    ++handoffs_;
    schedule_delivery(std::move(env));
    return;
  }
  // Plain append: this vector is written only by lane `src` during a
  // window and read only by the coordinator between windows; the epoch
  // barrier's release/acquire pair (program order, for lane 0) is the
  // synchronization.
  const std::size_t ch = src * ctxs_.size() + dst_shard;
  env.src = src;
  env.seq = seqs_[ch]++;
  staging_[ch].push_back(std::move(env));
}

void ShardRuntime::exchange(sim::SimTime /*window_end*/) {
  // One clock read brackets each end of the drain when profiling; the
  // profiler-off path keeps its zero-read shape.
  const std::uint64_t t0 = profiler_ != nullptr ? steady_ns() : 0;

  // Harvest batches the lanes finished delivering this window; cleared
  // batches go back to the free list with their capacity intact.
  for (auto& ctx : ctxs_) {
    for (Batch* b : ctx->returned) {
      b->clear();
      batch_free_.push_back(b);
    }
    ctx->returned.clear();
  }

  scratch_.clear();
  const std::uint32_t k = shard_count();
  for (std::uint32_t src = 0; src < k; ++src) {
    for (std::uint32_t dst = 0; dst < k; ++dst) {
      if (src == dst) continue;
      Batch& st = staging(src, dst);
      if (st.empty()) continue;
      if (profiler_ != nullptr) per_src_handoffs_[src] += st.size();
      std::move(st.begin(), st.end(), std::back_inserter(scratch_));
      st.clear();
    }
  }
  const std::uint64_t drained = scratch_.size();
  if (!scratch_.empty()) {
    // Global merge order: (delivery time, producing shard, channel seq) is
    // a unique key, so the destination schedulers see cross-shard events
    // in the same insertion order on every run — the determinism
    // guarantee.
    std::sort(scratch_.begin(), scratch_.end(),
              [](const Handoff& a, const Handoff& b) {
                if (a.deliver_at != b.deliver_at) {
                  return a.deliver_at < b.deliver_at;
                }
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    handoffs_ += scratch_.size();

    // Batched scheduling: consecutive envelopes bound for the same shard
    // at the same instant fuse into one delivery event that replays them
    // in merge order. Semantically identical to one event per envelope:
    // the fused envelopes' events would have held consecutive insertion
    // sequences (nothing else schedules between them — every lane is at
    // rest), pre-existing same-instant events carry smaller sequences
    // and still run first, and anything a delivery handler schedules gets
    // a later sequence and still runs after the whole run of envelopes.
    std::size_t i = 0;
    while (i < scratch_.size()) {
      const sim::SimTime at = scratch_[i].deliver_at;
      const std::uint32_t dst = binding_.node_shard[scratch_[i].to];
      std::size_t j = i + 1;
      while (j < scratch_.size() && scratch_[j].deliver_at == at &&
             binding_.node_shard[scratch_[j].to] == dst) {
        ++j;
      }
      if (profiler_ != nullptr) profiler_->record_batch(j - i);
      if (j == i + 1) {
        schedule_delivery(std::move(scratch_[i]));
      } else {
        schedule_batch(dst, at, i, j);
      }
      i = j;
    }
    scratch_.clear();
  }

  if (profiler_ != nullptr) {
    profiler_->record_exchange(steady_ns() - t0, drained,
                               per_src_handoffs_.data(), k);
    std::fill(per_src_handoffs_.begin(), per_src_handoffs_.end(), 0);
  }
}

ShardRuntime::Batch* ShardRuntime::acquire_batch() {
  if (batch_free_.empty()) {
    batch_store_.push_back(std::make_unique<Batch>());
    return batch_store_.back().get();
  }
  Batch* b = batch_free_.back();
  batch_free_.pop_back();
  return b;
}

void ShardRuntime::schedule_batch(std::uint32_t dst, sim::SimTime at,
                                  std::size_t first, std::size_t last) {
  Batch* batch = acquire_batch();
  batch->insert(batch->end(),
                std::make_move_iterator(scratch_.begin() +
                                        static_cast<std::ptrdiff_t>(first)),
                std::make_move_iterator(scratch_.begin() +
                                        static_cast<std::ptrdiff_t>(last)));
  ++batches_;
  ShardCtx& ctx = *ctxs_[dst];
  ctx.sched.schedule_at(at, [this, &ctx, batch] {
    for (Handoff& env : *batch) {
      PacketPtr p = ctx.factory.pool().acquire();
      p->copy_fields_from(env.pkt);
      topo_.deliver(env.to, env.iface, std::move(p));
    }
    ctx.returned.push_back(batch);
  });
}

void ShardRuntime::schedule_delivery(Handoff&& env) {
  const std::uint32_t dst = binding_.node_shard[env.to];
  ShardCtx& ctx = *ctxs_[dst];
  ctx.sched.schedule_at(
      env.deliver_at, [this, &ctx, env = std::move(env)]() mutable {
        // Runs on the destination shard's lane: materialize from *its*
        // pool (pool().acquire(), not make() — the packet keeps the id the
        // source stamped) and hand to the normal delivery path.
        PacketPtr p = ctx.factory.pool().acquire();
        p->copy_fields_from(env.pkt);
        topo_.deliver(env.to, env.iface, std::move(p));
      });
}

void ShardRuntime::finish() {
  if (finished_) return;
  finished_ = true;
  if (ctxs_.empty()) {
    if (!binding_.flow_stats.empty()) topo_.set_flow_stats(serial_flow_stats_);
    return;
  }
  topo_.uninstall_sharding();

  // Fold shard trace rings into the master recorder in global (time,
  // shard) order, preserving each event's shard-clock stamp.
  obs::FlightRecorder& master_rec = topo_.base_recorder();
  if (master_rec.mask() != 0) {
    struct Tagged {
      obs::TraceEvent ev;
      std::uint32_t shard;
    };
    std::vector<Tagged> all;
    for (std::uint32_t s = 0; s < shard_count(); ++s) {
      for (const obs::TraceEvent& ev : ctxs_[s]->recorder.snapshot()) {
        all.push_back({ev, s});
      }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Tagged& a, const Tagged& b) {
                       if (a.ev.at != b.ev.at) return a.ev.at < b.ev.at;
                       return a.shard < b.shard;
                     });
    for (const Tagged& t : all) master_rec.append_stamped(t.ev);
  }

  // Teardown order matters: clear owner tags first (the flush below and
  // later scheduler destruction release packets from the coordinator
  // thread), then flush every link queue — the queues belong to the
  // topology and outlive the shard pools whose packets they may hold.
  for (std::uint32_t s = 0; s < shard_count(); ++s) {
    ctxs_[s]->factory.pool().clear_owner_shard();
  }
  topo_.packet_factory().pool().clear_owner_shard();
  for (LinkId id = 0; id < topo_.link_count(); ++id) {
    Link& l = topo_.link(id);
    for (const ip::NodeId n : {l.end_a().node, l.end_b().node}) {
      while (PacketPtr p = l.queue_from(n).dequeue()) {
      }
      l.queue_from(n).set_trace_context(&master_rec, n, id);
      if (!binding_.flow_stats.empty()) {
        // Sharding is uninstalled above, so the ambient accessor answers
        // with the topology's serial table (possibly null).
        l.queue_from(n).set_flow_stats(topo_.flow_stats());
      }
    }
  }
}

}  // namespace mvpn::net
