// Small statistics and timing helpers shared by the benchmark's files.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <vector>

namespace wallbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks
/// (position q·(n−1)); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// a / b, or 0 when b is not positive (a rate over no time is reported as 0).
inline double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

}  // namespace wallbench
