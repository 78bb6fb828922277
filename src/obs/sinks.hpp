#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "obs/trace.hpp"

namespace mvpn::obs {

class SyncProfiler;

/// Maps a node id to a display name for export; defaults to "node<N>".
using NodeNamer = std::function<std::string(std::uint32_t)>;

/// Export the recorder's retained events as JSON Lines: one self-contained
/// object per line ({"t_s":..., "type":"drop", "reason":"red_early", ...}),
/// stably sorted by (time, packet id, node) — the order a sharded run's
/// merged ring shares with the serial one. Greppable and streamable — the
/// developer-facing format.
void write_jsonl(const FlightRecorder& rec, std::ostream& out,
                 const NodeNamer& namer = {});

/// Export as Chrome trace_event JSON ({"traceEvents":[...]}) loadable in
/// about://tracing or https://ui.perfetto.dev. Each simulator node becomes
/// a "thread" (tid = node id, named via metadata events); every trace
/// record becomes an instant event with the structured fields under args.
/// Timestamps are sim-time microseconds.
void write_chrome_trace(const FlightRecorder& rec, std::ostream& out,
                        const NodeNamer& namer = {});

/// Same, plus the engine's epoch lanes from a SyncProfiler: a second
/// "engine" process (pid 2) with one thread per shard worker and one for
/// the coordinator. Each retained worker epoch renders as a duration
/// event spanning its window on the shared sim-time axis — directly next
/// to the packet instants it produced — with the wall-clock phase split
/// (wait/exec ns, events, parked) under args; coordinator epochs render
/// as instants at the window close carrying barrier-wait/drain costs.
/// `sync` may be null (plain packet trace).
void write_chrome_trace(const FlightRecorder& rec, std::ostream& out,
                        const NodeNamer& namer, const SyncProfiler* sync);

}  // namespace mvpn::obs
