// Statistics accumulators used by the simulation engine and the
// Performance Estimator: plain accumulators for sampled values
// (service/waiting times) and time-weighted accumulators for level
// processes (queue lengths, busy servers).
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>

#include "prophet/sim/engine.hpp"

namespace prophet::sim {

/// Running mean/min/max/sum over discrete observations.
class Accumulator {
 public:
  void record(double value) {
    ++count_;
    sum_ += value;
    sum_squares_ += value * value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Population variance.
  [[nodiscard]] double variance() const {
    if (count_ == 0) {
      return 0.0;
    }
    const double m = mean();
    return sum_squares_ / static_cast<double>(count_) - m * m;
  }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }

  void reset() { *this = Accumulator{}; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0;
  double sum_squares_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Time-weighted average of a piecewise-constant level (queue length,
/// number of busy servers).  Call set(level, now) at every level change;
/// mean(now) integrates the level over elapsed time.
class TimeWeighted {
 public:
  explicit TimeWeighted(double initial_level = 0, Time start = 0)
      : level_(initial_level), last_change_(start), start_(start) {}

  void set(double level, Time now) {
    integral_ += level_ * (now - last_change_);
    level_ = level;
    last_change_ = now;
    max_ = std::max(max_, level);
  }

  void add(double delta, Time now) { set(level_ + delta, now); }

  [[nodiscard]] double level() const { return level_; }
  [[nodiscard]] double max() const { return max_; }

  /// Time-weighted mean over [start, now].
  [[nodiscard]] double mean(Time now) const {
    const Time elapsed = now - start_;
    if (elapsed <= 0) {
      return level_;
    }
    const double integral = integral_ + level_ * (now - last_change_);
    return integral / elapsed;
  }

 private:
  double level_ = 0;
  double integral_ = 0;
  double max_ = 0;
  Time last_change_ = 0;
  Time start_ = 0;
};

}  // namespace prophet::sim
