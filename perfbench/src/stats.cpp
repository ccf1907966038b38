#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t samples_needed(double q) {
  // Smallest n with n - ceil(q/100 * n) >= kMinBeyond.
  for (std::size_t n = kMinBeyond + 1;; ++n) {
    const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
    if (n - rank >= kMinBeyond) return n;
  }
}

Percentile percentile(std::vector<double> values, double q) {
  Percentile p;
  p.q = q;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  p.valid = p.beyond >= kMinBeyond;
  return p;
}

double median(std::vector<double> values) {
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](double v) { return !std::isfinite(v); }),
               values.end());
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double iqr_share(const std::vector<double>& values) {
  const double mid = median(values);
  if (mid == 0.0) return 0.0;
  return (percentile(values, 75).value - percentile(values, 25).value) / mid;
}

}  // namespace perfbench
