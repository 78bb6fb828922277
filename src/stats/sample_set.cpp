#include "stats/sample_set.hpp"

#include <algorithm>
#include <cmath>

namespace mvpn::stats {

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
  stats_.add(x);
  sketch_.add(x);
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
    ++sort_count_;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: ceil(p/100 * N), 1-indexed.
  const auto n = samples_.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return samples_[rank - 1];
}

}  // namespace mvpn::stats
