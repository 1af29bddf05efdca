#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> values, double q) {
  const size_t n = values.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  // Nearest rank; the epsilon keeps 0.9 * 100 from rounding up to rank 91.
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9)));
  if (n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void MetricSet::Add(const std::string& name, const std::string& unit,
                    double value) {
  metrics_.push_back(Metric{name, unit, value});
}

void MetricSet::AddPercentile(const std::string& name, const std::string& unit,
                              const std::vector<double>& values, double q) {
  if (values.empty()) {
    Add(name, unit, 0.0);
    return;
  }
  const std::optional<double> p = Percentile(values, q);
  if (!p.has_value()) {
    refused_.push_back(name + " (" + std::to_string(values.size()) +
                       " samples)");
  }
  Add(name, unit, p.value_or(0.0));
}

void MetricSet::Print(std::FILE* out) const {
  for (const Metric& m : metrics_) {
    std::fprintf(out, "  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const Metric& m : metrics.metrics()) {
    // JSON has no NaN/inf; a non-finite value is a benchmark bug, reported
    // as 0 so the line stays parseable (the run is marked incorrect).
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
