// Output statistics for dynamic simulations: running summaries and the
// method of batch means (Law & Kelton) with Student-t confidence
// intervals.  The paper's stopping rule -- run until the 95 % confidence
// interval is within 5 % of the mean -- is `converged()`.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace mcnet::evsim {

/// Plain running summary (count / mean / variance / extrema), Welford's
/// algorithm.
class Summary {
 public:
  void add(double x);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const;  // sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Upper 97.5 % Student-t quantile for `df` degrees of freedom (two-sided
/// 95 % interval); falls back to the normal quantile for large df.
[[nodiscard]] double student_t_975(std::uint32_t df);

/// Method of batch means: samples are grouped into fixed-size batches;
/// the batch averages are treated as (approximately) independent
/// observations.  The first `discard` batches are dropped as warm-up.
///
/// Cost model: add() is O(1), except when it closes a batch; then it
/// refreshes the cached grand mean and CI half-width in O(batches).
/// mean(), half_width() and converged() are O(1) reads of that cache, so
/// the stopping rule can be tested after every event.  The refresh does
/// the same arithmetic in the same order as recomputing from scratch (an
/// in-order running sum for the mean, a two-pass sum of squared
/// deviations for the variance), so the results are bit-identical to it.
class BatchMeans {
 public:
  explicit BatchMeans(std::uint32_t batch_size, std::uint32_t discard = 1);

  void add(double x);

  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] std::uint32_t completed_batches() const {
    return static_cast<std::uint32_t>(batch_means_.size());
  }
  /// Batches contributing to the estimate (completed minus discarded).
  [[nodiscard]] std::uint32_t effective_batches() const;
  /// Grand mean over effective batches (0 when none).
  [[nodiscard]] double mean() const { return mean_; }
  /// Half-width of the 95 % confidence interval (infinity with < 2
  /// effective batches).
  [[nodiscard]] double half_width() const { return half_width_; }
  /// The paper's stopping rule: >= `min_batches` effective batches and
  /// half-width <= rel * |mean|.
  [[nodiscard]] bool converged(double rel = 0.05, std::uint32_t min_batches = 10) const;

 private:
  /// Refresh mean_ and half_width_ after a batch closed.
  void close_batch();

  std::uint32_t batch_size_;
  std::uint32_t discard_;
  std::uint64_t samples_ = 0;
  double current_sum_ = 0.0;
  std::uint32_t current_count_ = 0;
  std::vector<double> batch_means_;
  /// In-order sum of batch_means_[discard_..].
  double effective_sum_ = 0.0;
  double mean_ = 0.0;
  double half_width_ = std::numeric_limits<double>::infinity();
};

}  // namespace mcnet::evsim
