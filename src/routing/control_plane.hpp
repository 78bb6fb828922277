#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "net/topology.hpp"
#include "sim/inline_callable.hpp"
#include "sim/time.hpp"

namespace mvpn::routing {

/// Control-plane message fabric.
///
/// Protocol implementations (IGP flooding, LDP, RSVP-TE, BGP) deliver typed
/// closures between nodes through this object instead of hand-crafting
/// data-plane packets. A closure is a `sim::InlineCallable` that moves
/// straight into its scheduler event node: the hot senders' captures fit
/// its 48 B buffer, so a message costs no heap allocation (INTERNALS §6).
/// Two delivery modes:
///
///  * adjacent — hop-by-hop protocol PDUs: delivered after the link's
///    propagation delay plus a processing delay; fails when the link is
///    down (which is how failures become visible to protocols).
///  * session  — multi-hop control sessions (iBGP over TCP): delivered
///    after a configurable session RTT-ish delay.
///
/// Every message is counted by (type, packets, bytes) — these counters are
/// the raw material of the control-plane-cost experiments (E1/E6/E7).
class ControlPlane {
 public:
  explicit ControlPlane(net::Topology& topo);

  /// Deliver `deliver` at `to` after link delay + processing delay.
  /// Returns false (message lost) when `from`/`to` are not adjacent or the
  /// link between them is down.
  bool send_adjacent(ip::NodeId from, ip::NodeId to, std::string_view type,
                     std::size_t bytes, sim::InlineCallable deliver);

  /// Deliver `deliver` at `to` after the session delay (default 5 ms).
  void send_session(ip::NodeId from, ip::NodeId to, std::string_view type,
                    std::size_t bytes, sim::InlineCallable deliver);

  void set_processing_delay(sim::SimTime d) noexcept { processing_delay_ = d; }
  void set_session_delay(sim::SimTime d) noexcept { session_delay_ = d; }

  [[nodiscard]] std::uint64_t message_count(std::string_view type) const;
  [[nodiscard]] std::uint64_t byte_count(std::string_view type) const;
  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    return total_messages_;
  }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return total_bytes_;
  }
  /// (messages, bytes) per type, in type-name order.
  using Counts =
      std::map<std::string, std::pair<std::uint64_t, std::uint64_t>,
               std::less<>>;
  [[nodiscard]] const Counts& per_type() const noexcept { return counts_; }
  void reset_counters();

  [[nodiscard]] net::Topology& topology() noexcept { return topo_; }
  [[nodiscard]] sim::SimTime now() const {
    return topo_.scheduler().now();
  }

 private:
  void count(std::string_view type, std::size_t bytes);

  net::Topology& topo_;
  sim::SimTime processing_delay_ = 100 * sim::kMicrosecond;
  sim::SimTime session_delay_ = 5 * sim::kMillisecond;
  Counts counts_;  ///< heterogeneous lookup: no string per message
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace mvpn::routing
