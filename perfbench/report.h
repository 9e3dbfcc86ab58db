// Metric emission: every metric carries a name and a unit, prints as one row
// of a human-readable table and as one entry of the result JSON the
// benchmark ends its standard output with.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  // Adds or replaces `name`.
  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  // One "name  value  unit" row per metric.
  void PrintTable(std::ostream& out) const;

 private:
  std::vector<Metric> metrics_;
};

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}},
// restricted to `names` (in that order). Returns false, leaving `json` empty,
// when a named metric is missing or not finite.
bool ResultJson(bool correct, int64_t attempted, int64_t failed, const MetricSet& metrics,
                const std::vector<std::string>& names, std::string& json);

// Exact-rank quantile with linear interpolation (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) { return Quantile(std::move(samples), 0.5); }

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
