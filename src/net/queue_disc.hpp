#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "net/packet.hpp"
#include "obs/flow_stats.hpp"
#include "obs/trace.hpp"
#include "stats/counter.hpp"

namespace mvpn::net {

/// Egress queueing discipline attached to a link direction. Implementations
/// in the qos module (priority, WFQ, WRR, RED/WRED) plug in here; the net
/// module ships the basic drop-tail FIFO.
///
/// The link transmitter calls enqueue() when the wire is busy and dequeue()
/// whenever it finishes a transmission; dequeue order is where service
/// differentiation happens.
class QueueDisc {
 public:
  virtual ~QueueDisc() = default;

  /// Accept or drop `p`. Returns false (and counts the drop) when dropped.
  virtual bool enqueue(PacketPtr p) = 0;

  /// Next packet to transmit; nullptr when empty.
  virtual PacketPtr dequeue() = 0;

  [[nodiscard]] virtual std::size_t packet_count() const noexcept = 0;
  [[nodiscard]] virtual std::size_t byte_count() const noexcept = 0;
  [[nodiscard]] bool empty() const noexcept { return packet_count() == 0; }

  [[nodiscard]] const stats::PacketByteCounter& dropped() const noexcept {
    return dropped_;
  }
  [[nodiscard]] const stats::PacketByteCounter& enqueued() const noexcept {
    return enqueued_;
  }

  /// Attach the flight recorder plus "where am I" identity (owning node /
  /// link), so enqueue/drop events carry their location. The owning Link
  /// wires this automatically; standalone queues keep the permanently
  /// disabled default, making count_* cost one predictable branch extra.
  void set_trace_context(obs::FlightRecorder* rec, std::uint32_t node,
                         std::uint32_t link) noexcept {
    recorder_ = rec != nullptr ? rec : &obs::disabled_recorder();
    trace_node_ = node;
    trace_link_ = link;
  }

  /// Attach (or detach, with nullptr) the flow accounting table every drop
  /// is charged to. count_drop() is the single funnel every queue
  /// discipline's drops pass through — tail, RED early/forced, LLQ police —
  /// so this one tap covers them all. The owning Link (and, per shard, the
  /// ShardRuntime) repoints this exactly like the trace context.
  void set_flow_stats(obs::FlowStatsTable* table) noexcept {
    flow_stats_ = table;
  }
  [[nodiscard]] obs::FlowStatsTable* flow_stats() const noexcept {
    return flow_stats_;
  }

 protected:
  void count_drop(const Packet& p,
                  obs::DropReason reason = obs::DropReason::kTailDrop,
                  std::uint8_t band = 0) noexcept {
    dropped_.record(p.wire_size());
    if (flow_stats_ != nullptr) [[unlikely]] {
      flow_stats_->record_drop(
          obs::FlowStatsTable::make_key(p.ip.src.value(), p.ip.dst.value(),
                                        p.l4.src_port, p.l4.dst_port,
                                        p.ip.protocol),
          p.flow_id, static_cast<std::uint32_t>(p.wire_size()),
          static_cast<std::uint8_t>(reason));
    }
    if (recorder_->enabled(obs::Category::kQueue)) {
      trace_event(obs::EventType::kDrop, p, reason, band);
    }
  }
  /// Also remembers the chosen band on the packet so the dequeue-side delay
  /// attribution (Link/LatencyCollector) can break queue wait down per band.
  void count_enqueue(Packet& p, std::uint8_t band = 0) noexcept {
    p.queue_band = band;
    enqueued_.record(p.wire_size());
    if (recorder_->enabled(obs::Category::kQueue)) {
      trace_event(obs::EventType::kEnqueue, p, obs::DropReason::kNone, band);
    }
  }

 private:
  /// Cold path: only reached when the kQueue category is live.
  void trace_event(obs::EventType type, const Packet& p, obs::DropReason r,
                   std::uint8_t band) noexcept;

  stats::PacketByteCounter dropped_;
  stats::PacketByteCounter enqueued_;
  obs::FlowStatsTable* flow_stats_ = nullptr;
  obs::FlightRecorder* recorder_ = &obs::disabled_recorder();
  std::uint32_t trace_node_ = 0;
  std::uint32_t trace_link_ = 0;
};

/// Factory signature used by link configuration: one fresh QueueDisc per
/// link direction.
using QueueDiscFactory = std::function<std::unique_ptr<QueueDisc>()>;

/// Drop-tail FIFO with a packet-count cap — the "best-effort IP" baseline
/// queue of the paper's QoS comparison.
class DropTailQueue : public QueueDisc {
 public:
  explicit DropTailQueue(std::size_t capacity_packets = 100);

  bool enqueue(PacketPtr p) override;
  PacketPtr dequeue() override;
  [[nodiscard]] std::size_t packet_count() const noexcept override {
    return queue_.size();
  }
  [[nodiscard]] std::size_t byte_count() const noexcept override {
    return bytes_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Factory helper for LinkConfig.
  static QueueDiscFactory factory(std::size_t capacity_packets = 100);

 private:
  std::size_t capacity_;
  std::size_t bytes_ = 0;
  std::deque<PacketPtr> queue_;
};

}  // namespace mvpn::net
