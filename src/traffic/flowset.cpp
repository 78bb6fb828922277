#include "traffic/flowset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace mvpn::traffic {

FlowSet::FlowSet(sim::Scheduler& sched, qos::SlaProbe* probe,
                 std::uint64_t master_seed)
    : sched_(sched), probe_(probe), master_seed_(master_seed) {}

FlowSet::~FlowSet() {
  if (armed_) sched_.cancel(armed_event_);
}

std::uint32_t FlowSet::add_site(vpn::Router& attach, ip::Ipv4Address host) {
  sites_.push_back(Site{&attach, host});
  return static_cast<std::uint32_t>(sites_.size() - 1);
}

std::uint16_t FlowSet::intern_template(const FlowDef& def) {
  Template t;
  t.kind = def.kind;
  t.phb = def.phb;
  t.dscp = def.premark ? qos::dscp_of(def.phb) : 0;
  t.protocol = def.protocol;
  t.src_port = def.src_port;
  t.dst_port = def.dst_port;
  t.payload_bytes = def.payload_bytes;
  t.wire_bytes = static_cast<std::uint32_t>(
      net::kIpv4HeaderBytes + net::kL4HeaderBytes + def.payload_bytes);
  t.vpn = def.vpn;
  t.mean_on_s = def.on_s;
  t.mean_off_s = def.off_s;
  const TemplateKey key = key_of(t);
  if (const auto it = template_ids_.find(key); it != template_ids_.end()) {
    return it->second;
  }
  if (templates_.size() >= 0xFFFF) {
    throw std::length_error("FlowSet: more than 65535 distinct templates");
  }
  template_ids_.emplace(key, static_cast<std::uint16_t>(templates_.size()));
  templates_.push_back(t);
  return static_cast<std::uint16_t>(templates_.size() - 1);
}

void FlowSet::add_flow(const FlowDef& def) {
  if (def.from_site >= sites_.size() || def.to_site >= sites_.size()) {
    throw std::out_of_range("FlowSet: flow " + std::to_string(def.flow_id) +
                            " names a site index not added");
  }
  // Interned before any row is appended, so a throw leaves no partial row.
  const std::uint16_t tmpl = intern_template(def);
  flow_id_.push_back(def.flow_id);
  from_site_.push_back(def.from_site);
  to_site_.push_back(def.to_site);
  tmpl_.push_back(tmpl);
  Param p;
  // CBR stores its exact tick interval, Poisson the mean gap in seconds
  // (what exponential() takes), on/off the peak-rate tick interval.
  if (def.kind == Kind::kPoisson) {
    p.mean_s =
        sim::to_seconds(interval_for_rate(def.rate_bps, def.payload_bytes));
  } else {
    p.interval = interval_for_rate(def.rate_bps, def.payload_bytes);
  }
  param_.push_back(p);
  sent_.push_back(0);
  burst_pkts_.push_back(0);
  // Per-flow stream: a pure function of (topology seed, flow id).
  rng_.push_back(sim::Rng::stream(master_seed_, def.flow_id).state());
  start_.push_back(def.start);
}

std::uint32_t FlowSet::next_seq() {
  if (next_seq_ == 0xFFFFFFFFu) {
    // Seq wrap (needs ~4.3e9 insertions): renumber the pending entries in
    // their total (tick, seq) order. A sorted array satisfies the heap
    // property, so it drops back in place verbatim.
    std::sort(heap_.begin(), heap_.end(), cal_earlier);
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      heap_[i].seq = static_cast<std::uint32_t>(i);
    }
    next_seq_ = static_cast<std::uint32_t>(heap_.size());
  }
  return next_seq_++;
}

void FlowSet::cal_push(CalEntry e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!cal_earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void FlowSet::cal_pop_min() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  std::size_t i = 0;
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (cal_earlier(heap_[c], heap_[best])) best = c;
    }
    if (!cal_earlier(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void FlowSet::run(sim::SimTime stop) {
  stop_at_ = stop;
  const sim::SimTime now = sched_.now();
  // Trim build-time growth slack so state_bytes() reports the steady-state
  // footprint.
  flow_id_.shrink_to_fit();
  from_site_.shrink_to_fit();
  to_site_.shrink_to_fit();
  tmpl_.shrink_to_fit();
  param_.shrink_to_fit();
  sent_.shrink_to_fit();
  burst_pkts_.shrink_to_fit();
  rng_.shrink_to_fit();
  heap_.reserve(flow_count());
  for (std::uint32_t row = 0; row < flow_count(); ++row) {
    // Clamp late-armed starts to now; a flow that would first fire at or
    // past stop never enters the calendar.
    const sim::SimTime at = std::max(start_[row], now);
    if (at < stop) cal_push(CalEntry{at, next_seq(), row});
  }
  start_ = std::vector<sim::SimTime>();  // build-only; release
  arm();
}

void FlowSet::arm() {
  if (armed_ || heap_.empty()) return;
  armed_ = true;
  armed_event_ = sched_.schedule_at(heap_.front().tick, [this] { on_tick(); });
}

void FlowSet::on_tick() {
  armed_ = false;
  const sim::SimTime now = sched_.now();
  // Emit every flow due at this tick in (tick, seq) order. A reschedule
  // landing back on `now` (degenerate zero gaps) joins the tail of this
  // batch with a fresh seq — exactly where the scheduler would have run it.
  while (!heap_.empty() && heap_.front().tick == now) {
    const std::uint32_t row = heap_.front().flow;
    cal_pop_min();
    emit(row, now);
  }
  arm();
}

void FlowSet::emit(std::uint32_t row, sim::SimTime now) {
  const Template& t = templates_[tmpl_[row]];
  const Site& from = sites_[from_site_[row]];
  vpn::Router& attach = *from.attach;

  net::PacketPtr p = attach.topology().packet_factory().make();
  // Re-stamp the factory id with (flow, sequence): a pure function of the
  // flow, so traces carry the same packet identities no matter how many
  // other flows allocate concurrently — or which shard's pool the packet
  // came from. Control-plane packets keep factory ids (all < 2^32).
  p->id = (std::uint64_t{flow_id_[row]} << 32) | (sent_[row] + 1);
  p->flow_id = flow_id_[row];
  p->created_at = now;
  p->true_vpn_id = t.vpn;
  p->ip.src = from.host;
  p->ip.dst = sites_[to_site_[row]].host;
  p->ip.protocol = t.protocol;
  p->ip.dscp = t.dscp;
  p->l4.src_port = t.src_port;
  p->l4.dst_port = t.dst_port;
  p->payload_bytes = t.payload_bytes;

  ++sent_[row];
  ++total_sent_;
  if (probe_ != nullptr) probe_->record_sent(t.phb, t.wire_bytes);
  attach.inject(std::move(p));

  const sim::SimTime gap = next_interval(row);
  if (now + gap < stop_at_) cal_push(CalEntry{now + gap, next_seq(), row});
}

sim::SimTime FlowSet::next_interval(std::uint32_t row) {
  const Template& t = templates_[tmpl_[row]];
  switch (t.kind) {
    case Kind::kCbr:
      return param_[row].interval;
    case Kind::kPoisson: {
      sim::Rng r;
      r.set_state(rng_[row]);
      const double gap_s = r.exponential(param_[row].mean_s);
      rng_[row] = r.state();
      return sim::from_seconds(gap_s);
    }
    case Kind::kOnOff: {
      const sim::SimTime on = param_[row].interval;
      if (burst_pkts_[row] > 0) {
        // Mid-burst: one on-interval per packet; the packet count was fixed
        // at draw time below.
        --burst_pkts_[row];
        return on;
      }
      // Burst over: draw the off gap, then the next burst length.
      sim::Rng r;
      r.set_state(rng_[row]);
      const sim::SimTime off = sim::from_seconds(r.exponential(t.mean_off_s));
      const sim::SimTime burst = sim::from_seconds(r.exponential(t.mean_on_s));
      rng_[row] = r.state();
      // A burst of `burst` ticks at one packet per on-interval is
      // ceil(burst / on) on-gap returns before the next draw. Store that
      // count: u32 instead of an i64 tick budget.
      burst_pkts_[row] =
          (burst > 0 && on > 0)
              ? static_cast<std::uint32_t>((burst + on - 1) / on)
              : 0;
      return off + on;
    }
  }
  return param_[row].interval;  // unreachable
}

std::size_t FlowSet::state_bytes() const noexcept {
  return flow_id_.capacity() * sizeof(std::uint32_t) +
         from_site_.capacity() * sizeof(std::uint32_t) +
         to_site_.capacity() * sizeof(std::uint32_t) +
         tmpl_.capacity() * sizeof(std::uint16_t) +
         param_.capacity() * sizeof(Param) +
         sent_.capacity() * sizeof(std::uint32_t) +
         burst_pkts_.capacity() * sizeof(std::uint32_t) +
         rng_.capacity() * sizeof(sim::Rng::State) +
         start_.capacity() * sizeof(sim::SimTime);
}

std::size_t FlowSet::calendar_bytes() const noexcept {
  return heap_.capacity() * sizeof(CalEntry);
}

}  // namespace mvpn::traffic
