#include "obs/metrics.hpp"

#include <cmath>
#include <ostream>
#include <utility>

namespace mvpn::obs {

namespace {

/// JSON-safe number: NaN/inf have no JSON spelling, map them to 0.
double clean(double v) noexcept { return std::isfinite(v) ? v : 0.0; }

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char ch : s) {
    switch (ch) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << ch;
    }
  }
  out << '"';
}

void write_samples_json(std::ostream& out,
                        const std::vector<MetricsRegistry::Sample>& samples) {
  out << '{';
  bool first = true;
  for (const auto& s : samples) {
    if (!first) out << ',';
    first = false;
    write_json_string(out, s.name);
    out << ':' << clean(s.value);
  }
  out << '}';
}

}  // namespace

MetricsRegistry::~MetricsRegistry() { uninstall_counter_hook(); }

void MetricsRegistry::add_counter(std::string name, const stats::Counter* c) {
  sources_[std::move(name)] = [c] {
    return static_cast<double>(c->value());
  };
}

void MetricsRegistry::add_gauge(std::string name, std::function<double()> fn) {
  sources_[std::move(name)] = std::move(fn);
}

void MetricsRegistry::add_packet_byte(std::string name,
                                      const stats::PacketByteCounter* c) {
  add_counter(name + "/packets", &c->packets);
  add_counter(name + "/bytes", &c->bytes);
}

void MetricsRegistry::add_sample_set(std::string name,
                                     const stats::SampleSet* s) {
  sources_[name + "/count"] = [s] { return static_cast<double>(s->count()); };
  sources_[name + "/mean"] = [s] { return s->mean(); };
  // Percentiles read the bounded-memory sketch mirror: an exact read would
  // re-sort the whole sample vector on every PeriodicSnapshots tick, making
  // snapshot cost grow with sample count.
  sources_[name + "/p50"] = [s] { return s->approx().percentile(50.0); };
  sources_[name + "/p99"] = [s] { return s->approx().percentile(99.0); };
  sources_[std::move(name) + "/max"] = [s] { return s->max(); };
}

void MetricsRegistry::add_log_histogram(std::string name,
                                        const stats::LogHistogram* h) {
  sources_[name + "/count"] = [h] { return static_cast<double>(h->count()); };
  sources_[name + "/mean"] = [h] { return h->mean(); };
  sources_[name + "/p50"] = [h] { return h->percentile(50.0); };
  sources_[name + "/p99"] = [h] { return h->percentile(99.0); };
  sources_[std::move(name) + "/max"] = [h] { return h->max(); };
}

void MetricsRegistry::remove_prefix(const std::string& prefix) {
  for (auto it = sources_.lower_bound(prefix); it != sources_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    it = sources_.erase(it);
  }
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(sources_.size());
  for (const auto& [name, fn] : sources_) {
    out.push_back(Sample{name, fn ? fn() : 0.0});
  }
  return out;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  write_samples_json(out, snapshot());
  out << '\n';
}

void MetricsRegistry::install_counter_hook() {
  if (hook_installed_) return;
  previous_hook_ = stats::counter_hook();
  stats::set_counter_hook(this);
  hook_installed_ = true;
}

void MetricsRegistry::uninstall_counter_hook() {
  if (!hook_installed_) return;
  if (stats::counter_hook() == this) stats::set_counter_hook(previous_hook_);
  hook_installed_ = false;
}

void MetricsRegistry::counter_created(stats::Counter& c) {
  std::string base = "counters/" + c.name();
  const std::uint32_t uses = name_uses_[base]++;
  std::string name = uses == 0 ? base : base + '#' + std::to_string(uses);
  hooked_[&c].push_back(name);
  add_counter(std::move(name), &c);
}

void MetricsRegistry::counter_destroyed(stats::Counter& c) {
  auto it = hooked_.find(&c);
  if (it == hooked_.end()) return;
  for (const auto& name : it->second) sources_.erase(name);
  hooked_.erase(it);
}

void PeriodicSnapshots::capture(sim::SimTime at) {
  snapshots_.push_back(Timed{at, registry_.snapshot()});
}

void PeriodicSnapshots::write_json(std::ostream& out) const {
  out << "[\n";
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    const auto& s = snapshots_[i];
    out << "  {\"t_s\":" << sim::to_seconds(s.at) << ",\"metrics\":";
    write_samples_json(out, s.samples);
    out << '}' << (i + 1 < snapshots_.size() ? "," : "") << '\n';
  }
  out << "]\n";
}

}  // namespace mvpn::obs
