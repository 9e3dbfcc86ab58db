#include "src/obs/metrics.h"

#include <cassert>

#include "src/common/json_writer.h"

namespace gemini {

namespace {

template <typename Map>
auto& FetchOrCreate(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

}  // namespace

Counter* CounterHandle(MetricsRegistry* metrics, std::string_view name) {
  return metrics != nullptr ? &metrics->counter(name) : DiscardCounter();
}

Gauge* GaugeHandle(MetricsRegistry* metrics, std::string_view name) {
  return metrics != nullptr ? &metrics->gauge(name) : DiscardGauge();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  assert(!gauges_.contains(name) && !histograms_.contains(name));
  return FetchOrCreate(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  assert(!counters_.contains(name) && !histograms_.contains(name));
  return FetchOrCreate(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  assert(!counters_.contains(name) && !gauges_.contains(name));
  return FetchOrCreate(histograms_, name);
}

int64_t MetricsRegistry::counter_value(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second->value();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::VisitCounters(
    const std::function<void(const std::string&, int64_t)>& fn) const {
  for (const auto& [name, counter] : counters_) {
    fn(name, counter->value());
  }
}

std::string MetricsRegistry::ToJson(int indent) const {
  JsonWriter json(indent);
  json.BeginObject();
  json.Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    json.Key(name).Value(counter->value());
  }
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    json.Key(name).Value(gauge->value());
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    json.Key(name).BeginObject();
    json.Key("count").Value(histogram->count());
    json.Key("mean").Value(histogram->stat().mean());
    json.Key("min").Value(histogram->stat().min());
    json.Key("max").Value(histogram->stat().max());
    json.Key("p50").Value(histogram->Quantile(0.5));
    json.Key("p95").Value(histogram->Quantile(0.95));
    json.Key("p99").Value(histogram->Quantile(0.99));
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

}  // namespace gemini
