#include "evsim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mcnet::evsim {

void Summary::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Summary::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

double student_t_975(std::uint32_t df) {
  // Two-sided 95 % quantiles, df = 1..30, then the normal approximation.
  static constexpr double kT[30] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return std::numeric_limits<double>::infinity();
  if (df <= 30) return kT[df - 1];
  if (df <= 40) return 2.021;
  if (df <= 60) return 2.000;
  if (df <= 120) return 1.980;
  return 1.960;
}

BatchMeans::BatchMeans(std::uint32_t batch_size, std::uint32_t discard)
    : batch_size_(batch_size), discard_(discard) {
  if (batch_size == 0) throw std::invalid_argument("batch size must be positive");
}

void BatchMeans::add(double x) {
  ++samples_;
  current_sum_ += x;
  if (++current_count_ == batch_size_) {
    batch_means_.push_back(current_sum_ / batch_size_);
    current_sum_ = 0.0;
    current_count_ = 0;
    close_batch();
  }
}

void BatchMeans::close_batch() {
  const std::uint32_t n = effective_batches();
  if (n == 0) return;
  effective_sum_ += batch_means_.back();
  mean_ = effective_sum_ / n;
  if (n < 2) return;
  double ss = 0.0;
  for (std::size_t i = discard_; i < batch_means_.size(); ++i) {
    const double d = batch_means_[i] - mean_;
    ss += d * d;
  }
  const double s2 = ss / (n - 1);
  half_width_ = student_t_975(n - 1) * std::sqrt(s2 / n);
}

std::uint32_t BatchMeans::effective_batches() const {
  const auto completed = static_cast<std::uint32_t>(batch_means_.size());
  return completed > discard_ ? completed - discard_ : 0;
}

bool BatchMeans::converged(double rel, std::uint32_t min_batches) const {
  if (effective_batches() < min_batches) return false;
  if (mean_ == 0.0) return false;
  return half_width_ <= rel * std::abs(mean_);
}

}  // namespace mcnet::evsim
