#pragma once

#include "net/shard_runtime.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "routing/bgp.hpp"
#include "routing/igp.hpp"

namespace mvpn::obs {

/// Walk a built topology and register every interesting stats source with
/// the registry under hierarchical names:
///
///   node/<name>/router/<counter>          Router data-plane counters
///   node/<name>/if<idx>/{rx,tx}/...       per-interface packet/byte pairs
///   node/<name>/vrf/<vrf>/routes          per-VRF route-table size
///   link/<id>/<from>-><to>/tx/...         per-direction wire transmissions
///   link/<id>/<from>-><to>/down_drops/... drops while the link was down
///   link/<id>/<from>-><to>/queue/...      egress-queue drops/enqueues/depth
///                                         (+ band<b>/drops for multi-band
///                                          queues, red early/forced drops)
///
/// Queue metrics are registered as gauges that re-resolve the queue object
/// every snapshot, so set_queue_from() after registration stays safe.
/// Call once the topology shape is final; node/link lifetimes must cover
/// every later snapshot.
void register_topology_metrics(net::Topology& topo, MetricsRegistry& registry);

/// NodeNamer (for the trace sinks) backed by the topology's node names.
[[nodiscard]] NodeNamer topology_node_namer(const net::Topology& topo);

/// Register the parallel engine's counters so a metrics snapshot series
/// (run_scenario --obs DIR writes them to engine_metrics.json) carries
/// engine state:
///
///   engine/shards, engine/lookahead_us
///   engine/windows, engine/widened_windows, engine/idle_jumps
///   engine/handoffs, engine/delivery_batches
///
/// Gauges read the runtime live; snapshots taken as engine global actions
/// (PeriodicSnapshots via add_periodic_action) run between windows, which
/// is the safe instant. The runtime must outlive every later snapshot.
void register_engine_metrics(const net::ShardRuntime& runtime,
                             MetricsRegistry& registry);

/// Register the control-plane fastpath counters. They count how the
/// control plane did its work, not what the run delivered, so
/// run_scenario --obs DIR writes them to engine_metrics.json with the
/// engine gauges, never to metrics.json:
///
///   control/messages, control/bytes         all control-plane traffic
///   control/bgp/sessions                    live iBGP sessions
///   control/bgp/{updates,withdraws}         wire messages by type
///   control/bgp/{nlri_enqueued,nlri_packed,superseded,messages_packed,
///                wire_bytes_packed,flushes,update_groups}
///                                           RibOut staging counters
///   control/bgp/{adj_rib_routes,adj_rib_bytes,rt_pool_sets}
///                                           compact RIB occupancy
///   control/spf/{runs,full,incremental,skipped,te_only_installs,
///                edges_relaxed}             SPF work accounting
///
/// Gauges read the protocol objects live; they must outlive every later
/// snapshot.
void register_control_metrics(const routing::ControlPlane& cp,
                              const routing::Bgp& bgp,
                              const routing::Igp& igp,
                              MetricsRegistry& registry);

}  // namespace mvpn::obs
