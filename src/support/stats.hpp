#pragma once
// Statistics utilities for the experiment harnesses.
//
// The paper states "with high probability" bounds; empirically we validate
// them by running many independent seeds and summarising the distribution
// of the measured quantity (mean, max, quantiles) and by fitting the
// predicted shape (e.g. messages ~ a + b * n log log n) with least squares
// to confirm the scaling exponent/normalised constant is flat.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace drrg {

/// Welford online mean/variance accumulator.  Numerically stable for the
/// long Monte-Carlo streams the benches generate.
class RunningStat {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;   // sample variance (n-1)
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  /// Half-width of a normal-approximation 95% confidence interval on the mean.
  [[nodiscard]] double ci95_halfwidth() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Summary of a full sample (kept in memory): adds exact quantiles on top of
/// the running moments.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double q25 = 0.0;
  double median = 0.0;
  double q75 = 0.0;
  double q95 = 0.0;
  double max = 0.0;
};

/// Computes the summary of a sample (copies + sorts internally).
[[nodiscard]] Summary summarize(std::span<const double> sample);

/// Linear-interpolated quantile of a *sorted* sample, q in [0,1].
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q) noexcept;

/// Result of an ordinary least-squares fit y = intercept + slope * x.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;  ///< coefficient of determination
};

/// OLS fit; xs and ys must be equal-length with >= 2 points.
[[nodiscard]] LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys);

/// Fits y = c * x^p in log-log space; returns {log c, p, r2-in-log-space}.
/// Used to estimate scaling exponents (e.g. total messages vs n).
[[nodiscard]] LinearFit fit_power_law(std::span<const double> xs, std::span<const double> ys);

/// Fixed-width histogram over [lo, hi); values outside are clamped into the
/// first/last bucket.  Used for tree-size and height distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;
  [[nodiscard]] std::size_t bucket_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept { return counts_[i]; }
  [[nodiscard]] double bucket_lo(std::size_t i) const noexcept;
  [[nodiscard]] double bucket_hi(std::size_t i) const noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Multi-line ASCII rendering, one line per bucket.
  [[nodiscard]] std::string render(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Pearson chi-square statistic of observed counts vs uniform expectation;
/// used by the Chord sampling near-uniformity test.
[[nodiscard]] double chi_square_uniform(std::span<const std::uint64_t> observed);

}  // namespace drrg
