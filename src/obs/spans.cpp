#include "obs/spans.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>

namespace mvpn::obs {

namespace {

std::string node_name(const NodeNamer& namer, std::uint32_t node) {
  if (namer) {
    std::string n = namer(node);
    if (!n.empty()) return n;
  }
  return "node" + std::to_string(node);
}

double us(sim::SimTime t) { return static_cast<double>(t) / 1e3; }

/// Most recent hop of `span` still waiting for `field`, or nullptr.
HopSpan* open_hop(PacketSpan& span, sim::SimTime HopSpan::*field) {
  if (span.hops.empty()) return nullptr;
  HopSpan& h = span.hops.back();
  return h.*field == kNoTime ? &h : nullptr;
}

void add_summary_row(stats::Table& t, const char* stage,
                     const stats::LogHistogram& h) {
  if (h.empty()) {
    t.add_row({stage, "0", "-", "-", "-", "-"});
    return;
  }
  t.add_row({stage, stats::Table::num(h.count()),
             stats::Table::num(h.mean() * 1e3, 3),
             stats::Table::num(h.percentile(50) * 1e3, 3),
             stats::Table::num(h.percentile(99) * 1e3, 3),
             stats::Table::num(h.max() * 1e3, 3)});
}

void write_histogram_json(std::ostream& out, const char* key,
                          const stats::LogHistogram& h) {
  out << '"' << key << "\":{\"count\":" << h.count()
      << ",\"mean_ms\":" << h.mean() * 1e3
      << ",\"p50_ms\":" << h.percentile(50) * 1e3
      << ",\"p99_ms\":" << h.percentile(99) * 1e3
      << ",\"max_ms\":" << h.max() * 1e3 << '}';
}

}  // namespace

SpanAnalysis analyze_spans(const std::vector<TraceEvent>& events) {
  SpanAnalysis out;
  std::unordered_map<std::uint64_t, std::size_t> packet_index;
  std::unordered_map<std::uint32_t, std::size_t> lsp_index;
  std::unordered_map<std::uint32_t, sim::SimTime> ldp_announce_at;

  auto packet_span = [&](std::uint64_t id) -> PacketSpan& {
    auto [it, inserted] = packet_index.try_emplace(id, out.packets.size());
    if (inserted) {
      out.packets.emplace_back();
      out.packets.back().packet_id = id;
    }
    return out.packets[it->second];
  };
  auto lsp_timeline = [&](std::uint32_t id) -> LspTimeline& {
    auto [it, inserted] = lsp_index.try_emplace(id, out.lsps.size());
    if (inserted) {
      out.lsps.emplace_back();
      out.lsps.back().lsp = id;
    }
    return out.lsps[it->second];
  };
  auto open_episode = [](LspTimeline& tl) -> LspTimeline::Episode* {
    if (tl.episodes.empty()) return nullptr;
    LspTimeline::Episode& e = tl.episodes.back();
    return (e.restored_at == kNoTime && e.failed_at == kNoTime) ? &e : nullptr;
  };

  for (const TraceEvent& ev : events) {
    switch (ev.type) {
      // --- control plane --------------------------------------------------
      case EventType::kLdpAnnounce:
        ldp_announce_at.try_emplace(ev.b, ev.at);
        continue;
      case EventType::kLdpMapping: {
        ++out.ldp_mappings;
        auto it = ldp_announce_at.find(ev.b);
        if (it != ldp_announce_at.end() && ev.at >= it->second) {
          out.ldp_mapping_s.add(sim::to_seconds(ev.at - it->second));
        } else {
          ++out.ldp_unanchored;
        }
        continue;
      }
      case EventType::kLspSignal: {
        LspTimeline& tl = lsp_timeline(ev.a);
        if (tl.signaled_at == kNoTime) tl.signaled_at = ev.at;
        continue;
      }
      case EventType::kLspUp: {
        LspTimeline& tl = lsp_timeline(ev.a);
        if (LspTimeline::Episode* e = open_episode(tl)) {
          e->restored_at = ev.at;
          out.reroute_convergence_s.add(sim::to_seconds(ev.at - e->reroute_at));
        } else if (tl.first_up_at == kNoTime) {
          tl.first_up_at = ev.at;
          if (tl.signaled_at != kNoTime) {
            out.lsp_setup_s.add(sim::to_seconds(ev.at - tl.signaled_at));
          }
        }
        continue;
      }
      case EventType::kLspReroute: {
        LspTimeline& tl = lsp_timeline(ev.a);
        ++out.reroutes;
        tl.episodes.push_back(
            LspTimeline::Episode{ev.at, kNoTime, kNoTime, ev.b});
        continue;
      }
      case EventType::kLspDown: {
        LspTimeline& tl = lsp_timeline(ev.a);
        if (LspTimeline::Episode* e = open_episode(tl)) {
          e->failed_at = ev.at;
          ++out.reroutes_failed;
        }
        continue;
      }
      default:
        break;
    }

    // --- data plane (packet lifecycle) ------------------------------------
    if (ev.packet_id == 0) continue;
    PacketSpan& span = packet_span(ev.packet_id);
    if (span.first_at == kNoTime) span.first_at = ev.at;
    span.last_at = ev.at;
    if (ev.cls != 0) span.cls = ev.cls;

    switch (ev.type) {
      case EventType::kEnqueue: {
        HopSpan h;
        h.node = ev.node;
        h.link = ev.a;
        h.band = ev.aux;
        h.enqueue_at = ev.at;
        span.hops.push_back(h);
        break;
      }
      case EventType::kDequeue: {
        HopSpan* h = open_hop(span, &HopSpan::dequeue_at);
        if (h != nullptr && h->node == ev.node && h->link == ev.a &&
            h->tx_at == kNoTime) {
          h->dequeue_at = ev.at;
        }
        break;
      }
      case EventType::kLinkTx: {
        HopSpan* h = open_hop(span, &HopSpan::tx_at);
        if (h != nullptr && h->node == ev.node && h->link == ev.a) {
          h->tx_at = ev.at;
        } else {
          // Fast path: no enqueue happened, the hop starts at transmission.
          HopSpan fresh;
          fresh.node = ev.node;
          fresh.link = ev.a;
          fresh.tx_at = ev.at;
          span.hops.push_back(fresh);
        }
        break;
      }
      case EventType::kDeliver: {
        HopSpan* h = open_hop(span, &HopSpan::deliver_at);
        if (h != nullptr && h->tx_at != kNoTime) h->deliver_at = ev.at;
        break;
      }
      case EventType::kDrop:
        span.dropped = true;
        span.drop_reason = ev.reason;
        break;
      case EventType::kVrfDeliver:
      case EventType::kLocalDeliver:
        span.completed = true;
        break;
      default:
        break;  // label ops etc. only refresh first/last timestamps
    }
  }
  return out;
}

SpanAnalysis analyze_spans(const FlightRecorder& recorder) {
  return analyze_spans(recorder.snapshot());
}

void write_span_chrome_trace(const SpanAnalysis& analysis, std::ostream& out,
                             const NodeNamer& namer) {
  out << "[\n";
  bool first = true;
  auto emit = [&](const std::string& name, const char* cat, int pid,
                  const std::string& tid, sim::SimTime begin, sim::SimTime end,
                  const std::string& args) {
    if (!first) out << ",\n";
    first = false;
    out << "  {\"name\":\"" << name << "\",\"cat\":\"" << cat
        << "\",\"ph\":\"X\",\"ts\":" << us(begin)
        << ",\"dur\":" << us(end - begin) << ",\"pid\":" << pid
        << ",\"tid\":\"" << tid << "\",\"args\":{" << args << "}}";
  };
  // Emit in (first hop start, packet id) and LSP-id order, not in event
  // stream order: a sharded run merges same-instant events from different
  // lanes in another order, and the file must not show it.
  const auto hop_start = [](const PacketSpan& p) {
    if (p.hops.empty()) return kNoTime;
    const HopSpan& h = p.hops.front();
    return h.enqueue_at != kNoTime ? h.enqueue_at : h.tx_at;
  };
  std::vector<const PacketSpan*> packets;
  packets.reserve(analysis.packets.size());
  for (const PacketSpan& p : analysis.packets) packets.push_back(&p);
  std::sort(packets.begin(), packets.end(),
            [&](const PacketSpan* a, const PacketSpan* b) {
              return std::pair(hop_start(*a), a->packet_id) <
                     std::pair(hop_start(*b), b->packet_id);
            });
  std::vector<const LspTimeline*> lsps;
  lsps.reserve(analysis.lsps.size());
  for (const LspTimeline& tl : analysis.lsps) lsps.push_back(&tl);
  std::sort(lsps.begin(), lsps.end(),
            [](const LspTimeline* a, const LspTimeline* b) {
              return a->lsp < b->lsp;
            });

  for (const PacketSpan* packet : packets) {
    const PacketSpan& p = *packet;
    for (const HopSpan& h : p.hops) {
      const std::string tid = node_name(namer, h.node);
      const std::string args = "\"packet\":" + std::to_string(p.packet_id) +
                               ",\"link\":" + std::to_string(h.link) +
                               ",\"cls\":" + std::to_string(p.cls);
      if (h.queued()) {
        emit("queued", "latency", 1, tid, h.enqueue_at, h.dequeue_at,
             args + ",\"band\":" + std::to_string(h.band));
      }
      if (h.on_wire()) {
        emit("wire", "latency", 1, tid, h.tx_at, h.deliver_at, args);
      }
    }
  }
  for (const LspTimeline* lsp : lsps) {
    const LspTimeline& tl = *lsp;
    const std::string tid = "lsp" + std::to_string(tl.lsp);
    if (tl.setup_latency() != kNoTime) {
      emit("setup", "signaling", 2, tid, tl.signaled_at, tl.first_up_at,
           "\"lsp\":" + std::to_string(tl.lsp));
    }
    for (const LspTimeline::Episode& e : tl.episodes) {
      const sim::SimTime end =
          e.restored_at != kNoTime ? e.restored_at : e.failed_at;
      if (end == kNoTime) continue;
      emit(e.restored_at != kNoTime ? "outage" : "failed", "signaling", 2,
           tid,
           e.reroute_at, end,
           "\"lsp\":" + std::to_string(tl.lsp) +
               ",\"failed_link\":" + std::to_string(e.failed_link));
    }
  }
  out << "\n]\n";
}

stats::Table control_plane_table(const SpanAnalysis& analysis) {
  stats::Table t{"stage", "events", "mean ms", "p50 ms", "p99 ms", "max ms"};
  add_summary_row(t, "ldp mapping", analysis.ldp_mapping_s);
  add_summary_row(t, "lsp setup", analysis.lsp_setup_s);
  add_summary_row(t, "reroute convergence", analysis.reroute_convergence_s);
  return t;
}

void write_span_summary_json(const SpanAnalysis& analysis, std::ostream& out) {
  out << "{\"packet_spans\":" << analysis.packets.size()
      << ",\"completed_packets\":" << analysis.completed_packets()
      << ",\"lsps\":" << analysis.lsps.size()
      << ",\"ldp_mappings\":" << analysis.ldp_mappings
      << ",\"ldp_unanchored\":" << analysis.ldp_unanchored
      << ",\"reroutes\":" << analysis.reroutes
      << ",\"reroutes_failed\":" << analysis.reroutes_failed << ',';
  write_histogram_json(out, "ldp_mapping", analysis.ldp_mapping_s);
  out << ',';
  write_histogram_json(out, "lsp_setup", analysis.lsp_setup_s);
  out << ',';
  write_histogram_json(out, "reroute_convergence",
                       analysis.reroute_convergence_s);
  out << "}\n";
}

}  // namespace mvpn::obs
