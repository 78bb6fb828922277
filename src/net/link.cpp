#include "net/link.hpp"

#include <stdexcept>
#include <utility>

#include "net/shard_runtime.hpp"
#include "net/topology.hpp"
#include "obs/latency.hpp"
#include "sim/shard.hpp"

namespace mvpn::net {

Link::Link(Topology& topo, LinkId id, Endpoint a, Endpoint b,
           const LinkConfig& config)
    : topo_(topo), id_(id), a_(a), b_(b), config_(config) {
  auto make_queue = [&]() -> std::unique_ptr<QueueDisc> {
    if (config_.queue_factory) return config_.queue_factory();
    return std::make_unique<DropTailQueue>(100);
  };
  from_a_.to = b_;
  from_a_.from = a_.node;
  from_a_.dir_bit = 0;
  from_a_.queue = make_queue();
  from_a_.queue->set_trace_context(&topo_.recorder(), a_.node, id_);
  from_b_.to = a_;
  from_b_.from = b_.node;
  from_b_.dir_bit = 1;
  from_b_.queue = make_queue();
  from_b_.queue->set_trace_context(&topo_.recorder(), b_.node, id_);
}

void Link::stamp_arrival(Direction& dir, Packet& p) {
  const sim::SimTime now = topo_.scheduler().now();
  const sim::SimTime dt = now - p.delay.anchor(p.created_at);
  if (dt > 0) {
    p.delay.proc += dt;
    if (obs::LatencyCollector* lc = topo_.latency_collector()) {
      lc->record_processing(dir.from, dt);
    }
  }
  p.delay.last = now;
}

void Link::record_drop(const Direction& dir, const Packet& p,
                       obs::DropReason reason) {
  // Link-level drops (down link at transmit or at delivery) bypass the
  // queue disc's funnel, so they charge the flow table here. Runs on the
  // owning shard's thread: transmit-side on the sender, pump-side
  // only for local (same-shard) hops.
  if (obs::FlowStatsTable* fs = topo_.flow_stats()) [[unlikely]] {
    fs->record_drop(
        obs::FlowStatsTable::make_key(p.ip.src.value(), p.ip.dst.value(),
                                      p.l4.src_port, p.l4.dst_port,
                                      p.ip.protocol),
        p.flow_id, static_cast<std::uint32_t>(p.wire_size()),
        static_cast<std::uint8_t>(reason));
  }
  obs::FlightRecorder& rec = topo_.recorder();
  if (!rec.enabled(obs::Category::kLink)) return;
  rec.record({.packet_id = p.id,
              .node = peer_of(dir.to.node).node,
              .a = id_,
              .bytes = static_cast<std::uint32_t>(p.wire_size()),
              .type = obs::EventType::kDrop,
              .reason = reason,
              .cls = p.trace_class()});
}

Link::Direction& Link::direction_from(ip::NodeId from) {
  if (from == a_.node) return from_a_;
  if (from == b_.node) return from_b_;
  throw std::invalid_argument("Link: node is not an endpoint");
}

const Link::Direction& Link::direction_from(ip::NodeId from) const {
  if (from == a_.node) return from_a_;
  if (from == b_.node) return from_b_;
  throw std::invalid_argument("Link: node is not an endpoint");
}

const Link::Endpoint& Link::peer_of(ip::NodeId node) const {
  if (node == a_.node) return b_;
  if (node == b_.node) return a_;
  throw std::invalid_argument("Link: node is not an endpoint");
}

void Link::transmit(ip::NodeId from, PacketPtr p) {
  Direction& dir = direction_from(from);
  // Everything between the previous stamp (or birth) and reaching this
  // transmitter — shaping, crypto charges, forwarding — is processing time.
  stamp_arrival(dir, *p);
  if (!up_) {
    dir.down_drops.record(p->wire_size());
    record_drop(dir, *p, obs::DropReason::kLinkDown);
    return;
  }
  // The wire is taken while `now < busy_until`; at exactly `busy_until`
  // any queued packets still go first (the service event at that instant
  // may not have run yet).
  if (topo_.scheduler().now() < dir.busy_until || !dir.queue->empty()) {
    dir.queue->enqueue(std::move(p));  // QueueDisc counts its own drops
    ensure_service(dir);
    return;
  }
  start_transmission(dir, std::move(p));
}

void Link::start_transmission(Direction& dir, PacketPtr p) {
  const sim::SimTime tx_time =
      sim::transmission_time(p->wire_size(), config_.bandwidth_bps);
  dir.busy_accum += tx_time;
  dir.tx.record(p->wire_size());
  const sim::SimTime serialize_end = topo_.scheduler().now() + tx_time;
  dir.busy_until = serialize_end;

  // Serialization and propagation are both fixed once transmission starts,
  // so the whole hop can be attributed now; `last` lands on the delivery
  // instant, where the next stamp (or final delivery accounting) picks up.
  p->delay.tx += tx_time;
  p->delay.prop += config_.prop_delay;
  p->delay.last = serialize_end + config_.prop_delay;
  if (obs::LatencyCollector* lc = topo_.latency_collector()) {
    lc->record_tx(dir.from, id_, dir.dir_bit, tx_time, config_.prop_delay);
  }

  obs::FlightRecorder& rec = topo_.recorder();
  if (rec.enabled(obs::Category::kLink)) {
    rec.record({.packet_id = p->id,
                .node = peer_of(dir.to.node).node,
                .a = id_,
                .b = dir.to.node,
                .bytes = static_cast<std::uint32_t>(p->wire_size()),
                .type = obs::EventType::kLinkTx,
                .cls = p->trace_class()});
  }

  // Cross-shard hop: the receiver's events belong to another scheduler, so
  // instead of a local delivery event the packet's field image is handed
  // to the runtime (released back into this shard's pool right here). The
  // cut's propagation delay >= the engine lookahead is what makes the
  // barrier exchange arrive before the delivery time.
  //
  // Note the link-down check moves to handoff time: serialization has
  // started and the link is up now, and failing a *cut* link during a
  // parallel phase is rejected by the scenario layer (control-plane
  // reconvergence is a serial affair), so the serial-equivalence is exact.
  if (ShardRuntime* rt = topo_.shard_runtime()) {
    const std::uint32_t dst = topo_.shard_of(dir.to.node);
    if (dst != sim::current_shard()) {
      rt->handoff(dst, serialize_end + config_.prop_delay, dir.to.node,
                  dir.to.iface, *p);
      return;
    }
  }

  // Local hop. deliver_at is monotone per direction (busy_until never
  // moves backwards, prop_delay is constant), so one pending event
  // suffices for the whole train. When the direction is idle — the
  // uncongested steady state — the packet rides inside the delivery event
  // itself (fits InlineCallable's buffer), skipping the FIFO and the
  // burst scratch entirely; the FIFO + pump only engage while a delivery
  // is already pending. pump_scheduled == false implies in_flight is
  // empty (pump/pump_one rechain before clearing the flag), so the two
  // modes never race.
  const sim::SimTime deliver_at = serialize_end + config_.prop_delay;
  if (!dir.pump_scheduled) {
    dir.pump_scheduled = true;
    topo_.scheduler().schedule_at(
        deliver_at, [this, &dir, serialize_end, p = std::move(p)]() mutable {
          pump_one(dir, serialize_end, std::move(p));
        });
    return;
  }
  dir.in_flight.push_back(InFlight{deliver_at, serialize_end, std::move(p)});
}

void Link::pump_one(Direction& dir, sim::SimTime serialize_end, PacketPtr p) {
  if (was_up_at(serialize_end)) {
    topo_.deliver(dir.to.node, dir.to.iface, std::move(p));
  } else {
    dir.down_drops.record(p->wire_size());
    record_drop(dir, *p, obs::DropReason::kLinkDown);
  }
  // A receiver that turned the packet around onto this same direction
  // appended to in_flight (the flag was still set); chain the pump for it.
  rechain(dir);
}

void Link::rechain(Direction& dir) {
  if (!dir.in_flight.empty()) {
    topo_.scheduler().schedule_at(dir.in_flight.front().deliver_at,
                                  [this, &dir] { pump(dir); });
  } else {
    dir.pump_scheduled = false;
  }
}

void Link::pump(Direction& dir) {
  const sim::SimTime now = topo_.scheduler().now();
  // Common case: exactly one packet due at this instant (deliver_at is
  // strictly increasing while the wire stays busy, so same-tick trains
  // only form when serialization rounds to zero) — skip the burst scratch.
  if (!dir.in_flight.empty() && dir.in_flight.front().deliver_at <= now &&
      (dir.in_flight.size() == 1 || dir.in_flight[1].deliver_at > now)) {
    InFlight f = dir.in_flight.pop_front();
    pump_one(dir, f.serialize_end, std::move(f.p));  // delivers + rechains
    return;
  }
  // Coalesce everything due at this instant into one burst. The up-check
  // happens here, per packet, against the packet's own serialization end.
  DeliveryBurst& burst = dir.burst;
  while (!dir.in_flight.empty() && dir.in_flight.front().deliver_at <= now) {
    InFlight f = dir.in_flight.pop_front();
    if (was_up_at(f.serialize_end)) {
      burst.push_back(std::move(f.p));
    } else {
      // Store-and-forward failure rule: serialization completed while the
      // link was down, so the packet never made it onto the wire.
      dir.down_drops.record(f.p->wire_size());
      record_drop(dir, *f.p, obs::DropReason::kLinkDown);
    }
  }
  // pump_scheduled stays true while the burst is being delivered: a
  // receiver that turns a packet around onto this same direction appends
  // to in_flight (strictly later deliver_at) and the rechain below covers
  // it — scheduling a second pump here would double-deliver.
  if (!burst.empty()) {
    topo_.deliver_burst(dir.to.node, dir.to.iface, burst);
  }
  rechain(dir);
}

void Link::ensure_service(Direction& dir) {
  if (dir.service_scheduled) return;
  dir.service_scheduled = true;
  topo_.scheduler().schedule_at(dir.busy_until, [this, &dir] {
    dir.service_scheduled = false;
    if (PacketPtr next = dir.queue->dequeue()) {
      // Time since the arrival stamp is queueing delay on this hop.
      const sim::SimTime now = topo_.scheduler().now();
      const sim::SimTime waited =
          now - next->delay.anchor(next->created_at);
      if (waited > 0) {
        next->delay.queue += waited;
        if (obs::LatencyCollector* lc = topo_.latency_collector()) {
          lc->record_queue(dir.from, id_, dir.dir_bit, next->queue_band,
                           next->trace_class(), waited);
        }
      }
      next->delay.last = now;
      obs::FlightRecorder& rec = topo_.recorder();
      if (rec.enabled(obs::Category::kQueue)) {
        rec.record({.packet_id = next->id,
                    .node = peer_of(dir.to.node).node,
                    .a = id_,
                    .bytes = static_cast<std::uint32_t>(next->wire_size()),
                    .type = obs::EventType::kDequeue,
                    .cls = next->trace_class()});
      }
      start_transmission(dir, std::move(next));
      if (!dir.queue->empty()) ensure_service(dir);
    }
  });
}

bool Link::was_up_at(sim::SimTime t) const noexcept {
  for (auto it = transitions_.rbegin(); it != transitions_.rend(); ++it) {
    if (it->at <= t) return it->up;
  }
  return true;  // links start up, and pre-history means "never flipped"
}

void Link::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;

  const sim::SimTime now = topo_.scheduler().now();
  // Keep just enough history to answer was_up_at() for deliveries still in
  // flight: their serialization ended no earlier than now - prop_delay.
  while (transitions_.size() > 1 &&
         transitions_[1].at + config_.prop_delay <= now) {
    transitions_.erase(transitions_.begin());
  }
  transitions_.push_back(Transition{now, up});

  if (!up_) {
    // Failure drops everything queued; packets mid-serialization are lost
    // when their delivery event fires (see start_transmission). The wire
    // slot stays reserved until `busy_until`, like a real transmitter.
    for (Direction* dir : {&from_a_, &from_b_}) {
      while (PacketPtr p = dir->queue->dequeue()) {
        dir->down_drops.record(p->wire_size());
        record_drop(*dir, *p, obs::DropReason::kLinkDown);
      }
    }
  }
}

QueueDisc& Link::queue_from(ip::NodeId from) {
  return *direction_from(from).queue;
}

const QueueDisc& Link::queue_from(ip::NodeId from) const {
  return *direction_from(from).queue;
}

void Link::set_queue_from(ip::NodeId from, std::unique_ptr<QueueDisc> q) {
  Direction& dir = direction_from(from);
  if (!dir.queue->empty() || topo_.scheduler().now() < dir.busy_until) {
    throw std::logic_error("Link::set_queue_from: direction not idle");
  }
  obs::FlowStatsTable* fs = dir.queue->flow_stats();
  dir.queue = std::move(q);
  dir.queue->set_trace_context(&topo_.recorder(), from, id_);
  dir.queue->set_flow_stats(fs);  // replacement inherits the installed tap
}

const stats::PacketByteCounter& Link::tx_from(ip::NodeId from) const {
  return direction_from(from).tx;
}

const stats::PacketByteCounter& Link::down_drops_from(ip::NodeId from) const {
  return direction_from(from).down_drops;
}

double Link::utilization_from(ip::NodeId from, sim::SimTime elapsed) const {
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(direction_from(from).busy_accum) /
         static_cast<double>(elapsed);
}

}  // namespace mvpn::net
