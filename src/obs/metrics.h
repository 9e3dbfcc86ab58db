// MetricsRegistry: named counters, gauges, and histograms for the whole
// system (the observability substrate behind the paper's measured claims).
//
// GeminiSystem owns one registry and threads it into the trainer, the
// replicator, the CPU/persistent checkpoint stores, the KV store, the agents
// and the recovery paths; every heartbeat miss, checkpoint commit, replica
// fetch, rollback and election increments a metric. A component with no
// registry attached (unit tests, analytic benches) counts into the discard
// sinks below instead, through the same code path.
//
// Naming convention: lowercase dotted hierarchy, "<component>.<event>"
// (e.g. "cpu_store.commits", "kv.elections_won"). The JSON export walks
// names in lexicographic order so dumps are deterministic.
//
// Hot-path metric-handle convention: `counter(name)` / `gauge(name)` return
// references that stay valid for the registry's lifetime (metrics live
// behind unique_ptr, so map growth never moves them). Components therefore
// resolve a `Counter*` / `Gauge*` member ONCE — in set_metrics / the
// constructor / Rebaseline — and increment through the cached handle on the
// per-chunk / per-attempt / per-iteration path, instead of paying a
// string-keyed map lookup (and possibly a std::string construction) per
// event. A handle is never null: with no registry attached it points at the
// shared DiscardCounter() / DiscardGauge() sink, so the rule is increment
// through the handle and never check it.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/stats.h"

namespace gemini {

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(int64_t delta = 1) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Point-in-time level (queue depth, bytes resident, ...).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Sample distribution: streaming moments plus exact quantiles (suitable for
// the event counts simulation runs produce).
class Histogram {
 public:
  void Observe(double sample) {
    stat_.Add(sample);
    sketch_.Add(sample);
  }
  int64_t count() const { return stat_.count(); }
  const RunningStat& stat() const { return stat_; }
  double Quantile(double q) const { return sketch_.Quantile(q); }

 private:
  RunningStat stat_;
  QuantileSketch sketch_;
};

// Write-only sinks every cached handle points at while no registry is
// attached. Nothing reads them.
inline Counter* DiscardCounter() {
  static Counter sink;
  return &sink;
}
inline Gauge* DiscardGauge() {
  static Gauge sink;
  return &sink;
}

class MetricsRegistry;

// The handle for metric `name`: the registry's metric, or the discard sink
// when `metrics` is null. For set_metrics-style (re)binding.
Counter* CounterHandle(MetricsRegistry* metrics, std::string_view name);
Gauge* GaugeHandle(MetricsRegistry* metrics, std::string_view name);

class MetricsRegistry {
 public:
  // Fetches (creating on first use) the metric with `name`. Returned
  // references are owned by the registry and stay valid for its lifetime.
  // Each name binds to exactly one metric kind; reusing a counter name as a
  // gauge (or vice versa) is a programming error and asserts in debug builds.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Read-side lookups: value of a counter/gauge (0 when never touched), or
  // nullptr for an absent histogram.
  int64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  // Walks every counter in lexicographic name order (deterministic); the
  // flight recorder uses this for its per-dump metric deltas.
  void VisitCounters(const std::function<void(const std::string&, int64_t)>& fn) const;

  size_t size() const { return counters_.size() + gauges_.size() + histograms_.size(); }

  // Deterministic dump:
  //   {"counters":{...},"gauges":{...},
  //    "histograms":{name:{count,mean,min,max,p50,p95,p99}}}
  std::string ToJson(int indent = 0) const;

 private:
  // unique_ptr for reference stability across rehash-free map growth.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace gemini

#endif  // SRC_OBS_METRICS_H_
