#ifndef MVCCBENCH_STATS_H_
#define MVCCBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mvccbench {

// Exact order statistics over raw samples. Nothing is bucketed, so a 10%
// change in a latency reads as a 10% change in the reported number.

// Nearest-rank percentile of an ascending `sorted`: the smallest sample
// with at least a share p of all samples at or below it. p in (0, 1].
inline int64_t NearestRank(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps p*n == integer (0.99 * 100) on that integer.
  size_t rank = static_cast<size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// The highest percentile whose nearest rank still leaves at least `tail`
// samples above it, as a share in [0, 1). 0 when there are too few
// samples for any.
inline double HighestSupportedPercentile(size_t n, size_t tail = 10) {
  if (n <= tail) return 0.0;
  return static_cast<double>(n - tail) / static_cast<double>(n);
}

// One latency distribution, in the unit of its samples.
struct Summary {
  size_t n = 0;
  int64_t p50 = 0;
  int64_t p99 = 0;
  double supported = 0.0;  // HighestSupportedPercentile(n)
};

inline Summary Summarize(std::vector<int64_t> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = NearestRank(samples, 0.50);
  s.p99 = NearestRank(samples, 0.99);
  s.supported = HighestSupportedPercentile(s.n);
  return s;
}

inline double Mean(const std::vector<int64_t>& v) {
  if (v.empty()) return 0.0;
  double total = 0;
  for (int64_t x : v) total += static_cast<double>(x);
  return total / static_cast<double>(v.size());
}

// Median of a small set of measurements (mean of the middle two on even
// counts).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

}  // namespace mvccbench

#endif  // MVCCBENCH_STATS_H_
