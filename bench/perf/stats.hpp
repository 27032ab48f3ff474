// Summary statistics of the campaign benchmark: medians and MADs over
// repetitions, and the tail percentile that still has enough samples behind
// it to mean something.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace sccft::perf {

/// Percentile p in [0, 100] by linear interpolation between closest ranks.
/// Returns 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Median absolute deviation from the median (unscaled).
[[nodiscard]] inline double mad(const std::vector<double>& values) {
  const double m = median(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (const double v : values) deviations.push_back(std::fabs(v - m));
  return median(std::move(deviations));
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, ... that leaves at
/// least `min_beyond` samples above it: a tail figure read off fewer samples
/// than that is noise. Falls back to 50 when even the median has fewer
/// (under 2 * min_beyond samples).
[[nodiscard]] inline double tail_percentile(std::size_t samples,
                                            std::size_t min_beyond = 10) {
  double chosen = 50.0;
  double gap = 10.0;                     // 100 minus the next rung
  std::size_t needed = 10 * min_beyond;  // samples that rung needs
  while (samples >= needed) {
    chosen = 100.0 - gap;
    gap /= 10.0;
    needed *= 10;
  }
  return chosen;
}

}  // namespace sccft::perf
