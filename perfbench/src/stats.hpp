// Order statistics with the benchmark's sample-count rule.
//
// A percentile is only reported when at least kMinBeyond samples lie beyond
// it, so a tail is never read off a handful of operations. Failed operations
// enter as +infinity: they sort last and therefore count as over any limit.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

struct Percentile {
  double q = 0.0;            ///< requested percentile, e.g. 99
  double value = 0.0;        ///< nearest-rank value (may be +inf when failures reach it)
  std::size_t samples = 0;   ///< sample count behind the value
  std::size_t beyond = 0;    ///< samples strictly above the rank
  bool valid = false;        ///< beyond >= kMinBeyond
};

/// Smallest sample count that leaves kMinBeyond samples beyond percentile q.
std::size_t samples_needed(double q);

/// Nearest-rank percentile (rank = ceil(q/100 * n), 1-based).
Percentile percentile(std::vector<double> values, double q);

/// Median of the finite values (0 when there are none).
double median(std::vector<double> values);

/// Interquartile range over the median (nearest-rank quartiles): how much
/// the ops of one run disagree with each other.
double iqr_share(const std::vector<double>& values);

}  // namespace perfbench
