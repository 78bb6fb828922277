#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/log_histogram.hpp"
#include "stats/running_stats.hpp"

namespace mvpn::stats {

/// Exact-percentile sample store.
///
/// Keeps every sample; percentile queries sort lazily. Appropriate where an
/// exact reference is wanted (tests, one-shot reports); long-lived
/// accounting at millions of samples should use LogHistogram instead. A
/// bounded-memory sketch mirror (`approx()`) serves repeated percentile
/// reads — e.g. periodic metrics snapshots — without re-sorting.
/// `percentile(p)` uses nearest-rank on the sorted data.
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double mean() const noexcept { return stats_.mean(); }
  [[nodiscard]] double stddev() const noexcept { return stats_.stddev(); }
  [[nodiscard]] double min() const noexcept { return stats_.min(); }
  [[nodiscard]] double max() const noexcept { return stats_.max(); }

  /// Nearest-rank percentile, p in [0, 100]. Returns 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] const RunningStats& summary() const noexcept { return stats_; }

  /// Bounded-memory mirror of the sample stream. Percentile reads on the
  /// sketch never touch (or sort) the sample vector, so periodic snapshot
  /// paths (MetricsRegistry) stay flat-cost in the sample count.
  [[nodiscard]] const LogHistogram& approx() const noexcept { return sketch_; }

  /// How many lazy sorts percentile() has performed — lets tests assert
  /// that snapshot reads go through the sketch instead of re-sorting.
  [[nodiscard]] std::uint64_t sort_count() const noexcept {
    return sort_count_;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  mutable std::uint64_t sort_count_ = 0;
  RunningStats stats_;
  LogHistogram sketch_;
};

}  // namespace mvpn::stats
