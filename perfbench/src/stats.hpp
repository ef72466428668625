// Order statistics and the result line the benchmark prints.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The q-quantile (q in (0, 1)) of `values` by the Harrell-Davis estimator:
/// a Beta-weighted average of the order statistics around rank q*n, so one
/// noisy sample near the quantile moves it less than picking that sample
/// would.  0 when empty.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// One reported metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] bool correct() const { return failed == 0 && attempted > 0; }
  [[nodiscard]] std::string json() const;
};

/// Shortest decimal text that reads back to exactly `v` (JSON-safe: a
/// non-finite value prints as null).
std::string number(double v);

/// Minimal JSON string quoting for the benchmark's own output.
std::string quoted(const std::string& s);

}  // namespace perfbench
