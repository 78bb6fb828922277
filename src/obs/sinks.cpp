#include "obs/sinks.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "obs/sync_profiler.hpp"
#include "sim/time.hpp"

namespace mvpn::obs {

namespace {

std::string node_name(const NodeNamer& namer, std::uint32_t id) {
  if (namer) {
    std::string n = namer(id);
    if (!n.empty()) return n;
  }
  return "node" + std::to_string(id);
}

/// The category a given event type belongs to (for export labeling).
Category category_of(EventType t) noexcept {
  switch (t) {
    case EventType::kEnqueue:
    case EventType::kDequeue:
    case EventType::kDrop:
      return Category::kQueue;
    case EventType::kLinkTx:
    case EventType::kDeliver:
      return Category::kLink;
    case EventType::kLabelPush:
    case EventType::kLabelSwap:
    case EventType::kLabelPop:
      return Category::kMpls;
    case EventType::kVrfDeliver:
    case EventType::kLocalDeliver:
      return Category::kVpn;
    case EventType::kLspUp:
    case EventType::kLspDown:
    case EventType::kLspReroute:
    case EventType::kLdpMapping:
    case EventType::kLdpAnnounce:
    case EventType::kLspSignal:
      return Category::kSignaling;
    case EventType::kOamProbe:
    case EventType::kOamReply:
    case EventType::kOamTimeout:
      return Category::kOam;
    case EventType::kFastpathResolve:
    case EventType::kFastpathInvalidate:
      return Category::kFastpath;
  }
  return Category::kQueue;
}

void write_common_fields(std::ostream& out, const TraceEvent& ev) {
  if (ev.packet_id != 0) out << ",\"packet\":" << ev.packet_id;
  if (ev.bytes != 0) out << ",\"bytes\":" << ev.bytes;
  if (ev.a != 0) out << ",\"a\":" << ev.a;
  if (ev.b != 0) out << ",\"b\":" << ev.b;
  out << ",\"cls\":" << static_cast<unsigned>(ev.cls);
  if (ev.aux != 0) out << ",\"band\":" << static_cast<unsigned>(ev.aux);
}

}  // namespace

void write_jsonl(const FlightRecorder& rec, std::ostream& out,
                 const NodeNamer& namer) {
  // One packet's events at one node and instant are all recorded by one
  // lane, in one order, so sorting on that key (ties kept in recording
  // order) writes the same lines at every shard count.
  std::vector<TraceEvent> events = rec.snapshot();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return std::tie(x.at, x.packet_id, x.node) <
                            std::tie(y.at, y.packet_id, y.node);
                   });
  for (const TraceEvent& ev : events) {
    out << "{\"t_s\":" << sim::to_seconds(ev.at) << ",\"type\":\""
        << to_string(ev.type) << "\",\"node\":\""
        << node_name(namer, ev.node) << '"';
    if (ev.type == EventType::kDrop) {
      out << ",\"reason\":\"" << to_string(ev.reason) << '"';
    }
    write_common_fields(out, ev);
    out << "}\n";
  }
}

void write_chrome_trace(const FlightRecorder& rec, std::ostream& out,
                        const NodeNamer& namer) {
  write_chrome_trace(rec, out, namer, nullptr);
}

void write_chrome_trace(const FlightRecorder& rec, std::ostream& out,
                        const NodeNamer& namer, const SyncProfiler* sync) {
  const auto events = rec.snapshot();
  out << "{\"traceEvents\":[\n";

  // Thread-name metadata so the timeline shows router names, not raw tids.
  std::set<std::uint32_t> nodes;
  for (const TraceEvent& ev : events) nodes.insert(ev.node);
  bool first = true;
  for (std::uint32_t id : nodes) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << id
        << ",\"args\":{\"name\":\"" << node_name(namer, id) << "\"}}";
  }

  for (const TraceEvent& ev : events) {
    if (!first) out << ",\n";
    first = false;
    // Instant event, thread scope; ts is microseconds in trace_event.
    out << "{\"name\":\"" << to_string(ev.type) << "\",\"ph\":\"i\",\"s\":\"t\""
        << ",\"pid\":1,\"tid\":" << ev.node
        << ",\"ts\":" << static_cast<double>(ev.at) / 1e3 << ",\"cat\":\""
        << to_string(category_of(ev.type)) << "\",\"args\":{";
    bool first_arg = true;
    auto arg = [&](const char* k, auto v) {
      if (!first_arg) out << ',';
      first_arg = false;
      out << '"' << k << "\":" << v;
    };
    if (ev.type == EventType::kDrop) {
      if (!first_arg) out << ',';
      first_arg = false;
      out << "\"reason\":\"" << to_string(ev.reason) << '"';
    }
    if (ev.packet_id != 0) arg("packet", ev.packet_id);
    if (ev.bytes != 0) arg("bytes", ev.bytes);
    if (ev.a != 0) arg("a", ev.a);
    if (ev.b != 0) arg("b", ev.b);
    arg("cls", static_cast<unsigned>(ev.cls));
    if (ev.aux != 0) arg("band", static_cast<unsigned>(ev.aux));
    out << "}}";
  }

  // Engine lanes (pid 2): per-worker epoch durations + coordinator
  // instants, on the same sim-time axis as the packet events above.
  // A profiled run that completed in zero windows (or a serial run's
  // shape-compatible profile) has no epoch slots at all — emitting the
  // pid-2 process/thread metadata anyway would paint an empty "engine"
  // process with orphaned lane names, so the whole block is skipped
  // unless at least one worker or coordinator slot was retained.
  if (sync != nullptr) {
    const std::uint32_t shards = sync->shard_count();
    bool any_slots = !sync->coordinator_snapshot().empty();
    for (std::uint32_t s = 0; !any_slots && s < shards; ++s) {
      any_slots = !sync->worker_snapshot(s).empty();
    }
    if (!any_slots) {
      out << "\n]}\n";
      return;
    }
    auto emit = [&](const std::string& json) {
      if (!first) out << ",\n";
      first = false;
      out << json;
    };
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
         "\"args\":{\"name\":\"engine\"}}");
    for (std::uint32_t s = 0; s < shards; ++s) {
      emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":" +
           std::to_string(s) + ",\"args\":{\"name\":\"shard" +
           std::to_string(s) + " worker\"}}");
    }
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":" +
         std::to_string(shards) + ",\"args\":{\"name\":\"coordinator\"}}");

    for (std::uint32_t s = 0; s < shards; ++s) {
      for (const SyncProfiler::WorkerSlot& w : sync->worker_snapshot(s)) {
        if (!first) out << ",\n";
        first = false;
        out << "{\"name\":\"epoch\",\"ph\":\"X\",\"pid\":2,\"tid\":" << s
            << ",\"ts\":" << static_cast<double>(w.window_start) / 1e3
            << ",\"dur\":"
            << static_cast<double>(w.window_end - w.window_start) / 1e3
            << ",\"cat\":\"engine\",\"args\":{\"epoch\":" << w.epoch
            << ",\"events\":" << w.events << ",\"wait_ns\":" << w.wait_ns
            << ",\"exec_ns\":" << w.exec_ns
            << ",\"parked\":" << static_cast<unsigned>(w.parked) << "}}";
      }
    }
    for (const SyncProfiler::CoordSlot& c : sync->coordinator_snapshot()) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"name\":\"barrier\",\"ph\":\"i\",\"s\":\"t\",\"pid\":2,"
             "\"tid\":"
          << shards << ",\"ts\":" << static_cast<double>(c.window_end) / 1e3
          << ",\"cat\":\"engine\",\"args\":{\"epoch\":" << c.epoch
          << ",\"wait_ns\":" << c.wait_ns << ",\"drain_ns\":" << c.drain_ns
          << ",\"handoffs\":" << c.handoffs
          << ",\"parked\":" << static_cast<unsigned>(c.parked)
          << ",\"widened\":" << static_cast<unsigned>(c.widened)
          << ",\"idle_jump\":" << static_cast<unsigned>(c.idle_jump) << "}}";
    }
  }
  out << "\n]}\n";
}

}  // namespace mvpn::obs
