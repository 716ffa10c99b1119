// Shared helpers of the benchmark program: seeded RNG, clocks, sample
// summaries and the result line.
#ifndef SUMBENCH_COMMON_H_
#define SUMBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sumbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}
inline double MsSince(Clock::time_point start) {
  return MsSince(start, Clock::now());
}
inline double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// SplitMix64: every input the benchmark generates comes from one of these,
/// seeded from --seed, so one seed always yields the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Uniform(int bound) { return static_cast<int>(Next() % bound); }
  double UnitDouble() {
    return static_cast<double>(Next() >> 11) / 9007199254740992.0;
  }

 private:
  uint64_t state_;
};

/// Percentile of `v` by the nearest-rank rule on the sorted samples.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}
inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }
inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Formats the last line of a run: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

/// Peak resident set of this process in MiB (VmHWM), 0 when unavailable.
double PeakRssMiB();

}  // namespace sumbench

#endif  // SUMBENCH_COMMON_H_
