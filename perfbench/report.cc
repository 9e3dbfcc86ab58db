#include "perfbench/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

void MetricSet::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) {
      return &metric;
    }
  }
  return nullptr;
}

void MetricSet::PrintTable(std::ostream& out) const {
  for (const Metric& metric : metrics_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-40s %16.6g  %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    out << line;
  }
}

bool ResultJson(bool correct, int64_t attempted, int64_t failed, const MetricSet& metrics,
                const std::vector<std::string>& names, std::string& json) {
  json.clear();
  std::string body;
  for (const std::string& name : names) {
    const Metric* metric = metrics.Find(name);
    if (metric == nullptr || !std::isfinite(metric->value)) {
      return false;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric->value);
    if (!body.empty()) {
      body += ", ";
    }
    body += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + metric->unit + "\"}";
  }
  json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + body + "}}";
  return true;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double position = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + (samples[upper] - samples[lower]) * fraction;
}

}  // namespace perfbench
