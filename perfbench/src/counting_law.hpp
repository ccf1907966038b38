// Counting/timing decorator for dist::Distribution.
//
// The traced run hands these to the library wherever it takes a lifetime law
// (scenario::run_service, policy::simulate_plan, fleet::simulate_fleet). The
// decorator forwards every call unchanged, so reports stay byte-identical,
// and counts draws at the dist boundary: sample() calls, sample_many() calls
// and their draws, and the time spent inside sample_many(). Counters are
// per-thread (the Monte-Carlo engine draws on pool threads) and summed on
// read.
#pragma once

#include <cstdint>

#include "dist/distribution.hpp"

namespace perfbench {

struct DrawCounts {
  std::uint64_t sample_calls = 0;
  std::uint64_t sample_many_calls = 0;
  std::uint64_t draws = 0;  ///< sample() calls plus sample_many() elements
  std::uint64_t sample_many_ns = 0;

  DrawCounts operator-(const DrawCounts& base) const;
};

/// Totals over every thread since process start.
DrawCounts draw_counts();

class CountingLaw final : public preempt::dist::Distribution {
 public:
  explicit CountingLaw(preempt::dist::DistributionPtr inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::vector<std::string> parameter_names() const override { return inner_->parameter_names(); }
  std::vector<double> parameters() const override { return inner_->parameters(); }
  preempt::dist::DistributionPtr clone() const override;
  double cdf(double t) const override { return inner_->cdf(t); }
  double pdf(double t) const override { return inner_->pdf(t); }
  double survival(double t) const override { return inner_->survival(t); }
  double hazard(double t) const override { return inner_->hazard(t); }
  double quantile(double p) const override { return inner_->quantile(p); }
  double sample(preempt::Rng& rng) const override;
  void sample_many(preempt::Rng& rng, std::span<double> out) const override;
  double mean() const override { return inner_->mean(); }
  double partial_expectation(double a, double b) const override {
    return inner_->partial_expectation(a, b);
  }
  double support_end() const override { return inner_->support_end(); }

 private:
  preempt::dist::DistributionPtr inner_;
};

/// Wrap a law in the decorator.
inline preempt::dist::DistributionPtr counted(preempt::dist::DistributionPtr law) {
  return std::make_unique<CountingLaw>(std::move(law));
}

}  // namespace perfbench
