#ifndef GTADOC_PERFBENCH_METRICS_H_
#define GTADOC_PERFBENCH_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Fewest samples that must lie beyond a reported percentile: p50 needs at
/// least 20 samples, p90 at least 100.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank q-quantile (0 < q < 1) of `values`, or nullopt — a refusal —
/// when fewer than kMinTailSamples samples lie beyond it.
std::optional<double> Percentile(std::vector<double> values, double q);

/// Median of a few repeats of one measurement (set-up time); no tail rule.
double Median(std::vector<double> values);

/// One named, unit-carrying metric value.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// The metrics one run reports, in insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, const std::string& unit, double value);
  /// Percentile metric: records the value, or — when Percentile refuses —
  /// records 0 and remembers the refusal (see refused()). An empty sample
  /// set is "not exercised on this workload" and reports 0 without refusal.
  void AddPercentile(const std::string& name, const std::string& unit,
                     const std::vector<double>& values, double q);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& refused() const { return refused_; }
  /// Human-readable "name  value unit" lines.
  void Print(std::FILE* out) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> refused_;
};

/// The one-line result object: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics);

}  // namespace perfbench

#endif  // GTADOC_PERFBENCH_METRICS_H_
