#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "stats/counter.hpp"
#include "stats/sample_set.hpp"

namespace mvpn::obs {

/// Hierarchical on-demand metrics catalogue.
///
/// Holds *references* to live stats objects (counters, packet/byte pairs,
/// histograms, sample sets) plus arbitrary gauge closures, keyed by
/// slash-separated names ("node/PE0/vrf/corp/routes"). snapshot() reads
/// every source at call time — registration costs nothing on the paths
/// that update the underlying stats.
///
/// Also implements stats::CounterHook: while installed via
/// install_counter_hook(), every stats::Counter constructed *with a name*
/// self-registers under "counters/<name>" (deduplicated with #n suffixes)
/// and unregisters when destroyed. Registered sources added manually must
/// outlive the registry or be removed with remove_prefix().
class MetricsRegistry : public stats::CounterHook {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// --- manual registration ---------------------------------------------
  void add_counter(std::string name, const stats::Counter* c);
  void add_gauge(std::string name, std::function<double()> fn);
  /// Expands to <name>/packets and <name>/bytes.
  void add_packet_byte(std::string name, const stats::PacketByteCounter* c);
  /// Expands to count/mean/p50/p99/max at snapshot time. p50/p99 read the
  /// set's LogHistogram mirror so a snapshot never re-sorts the samples —
  /// snapshot cost stays flat no matter how many samples accumulate.
  void add_sample_set(std::string name, const stats::SampleSet* s);
  /// Expands to count/mean/p50/p99/max; all reads are flat-cost.
  void add_log_histogram(std::string name, const stats::LogHistogram* h);

  /// Drop every metric whose name starts with `prefix`.
  void remove_prefix(const std::string& prefix);

  [[nodiscard]] std::size_t metric_count() const noexcept {
    return sources_.size();
  }

  /// --- snapshots ---------------------------------------------------------
  struct Sample {
    std::string name;
    double value = 0.0;
  };
  /// Read every source now; sorted by name.
  [[nodiscard]] std::vector<Sample> snapshot() const;
  /// One flat JSON object {"name": value, ...}.
  void write_json(std::ostream& out) const;

  /// --- counter self-registration (stats::CounterHook) --------------------
  /// Install this registry as the process-wide hook; restores the previous
  /// hook on uninstall/destruction.
  void install_counter_hook();
  void uninstall_counter_hook();
  void counter_created(stats::Counter& c) override;
  void counter_destroyed(stats::Counter& c) override;

 private:
  std::map<std::string, std::function<double()>> sources_;
  std::map<const stats::Counter*, std::vector<std::string>> hooked_;
  std::map<std::string, std::uint32_t> name_uses_;
  stats::CounterHook* previous_hook_ = nullptr;
  bool hook_installed_ = false;
};

/// A timestamped series of registry snapshots. The cadence comes from the
/// caller — a periodic engine action (net::ShardRuntime) captures at each
/// instant, between windows, on every shard count. write_json() emits the
/// whole series as a JSON array of {"t_s": <sim seconds>, "metrics": {...}}
/// objects.
class PeriodicSnapshots {
 public:
  explicit PeriodicSnapshots(const MetricsRegistry& registry)
      : registry_(registry) {}

  /// Read the registry now and stamp the sample `at` (simulated time).
  /// Engine global actions pass their instant: they run at `at` while the
  /// lane clocks still read `at - 1`.
  void capture(sim::SimTime at);

  [[nodiscard]] std::size_t count() const noexcept {
    return snapshots_.size();
  }
  void write_json(std::ostream& out) const;

 private:
  struct Timed {
    sim::SimTime at = 0;
    std::vector<MetricsRegistry::Sample> samples;
  };

  const MetricsRegistry& registry_;
  std::vector<Timed> snapshots_;
};

}  // namespace mvpn::obs
