#include "src/obs/flight_recorder.h"

#include "src/common/json_writer.h"
#include "src/obs/metrics.h"

namespace gemini {

void FlightRecorder::Record(const TraceRecord& record) {
  ++records_seen_;
  if (config_.capacity == 0) {
    return;
  }
  if (ring_.size() >= config_.capacity) {
    ring_.pop_front();
    ++records_evicted_;
  }
  ring_.push_back(record);
}

void FlightRecorder::Dump(std::string_view reason, TimeNs now, const MetricsRegistry* metrics) {
  ++dump_count_;
  {
    JsonWriter json;
    json.BeginObject();
    json.Key("flight_dump").Value(dump_count_);
    json.Key("reason").Value(std::string(reason));
    json.Key("ts_ns").Value(now);
    json.Key("records").Value(static_cast<int64_t>(ring_.size()));
    json.Key("records_seen").Value(records_seen_);
    json.Key("records_evicted").Value(records_evicted_);
    json.EndObject();
    dump_log_ += json.str();
    dump_log_ += '\n';
  }
  for (const TraceRecord& record : ring_) {
    dump_log_ += TraceRecordJsonl(record);
    dump_log_ += '\n';
  }
  {
    // Counter deltas since the previous dump, names in lexicographic order so
    // the dump bytes are deterministic.
    JsonWriter json;
    json.BeginObject();
    json.Key("metric_deltas").BeginObject();
    if (metrics != nullptr) {
      metrics->VisitCounters([&](const std::string& name, int64_t value) {
        const auto it = counters_at_last_dump_.find(name);
        const int64_t previous = it == counters_at_last_dump_.end() ? 0 : it->second;
        if (value != previous) {
          json.Key(name).Value(value - previous);
        }
        counters_at_last_dump_[name] = value;
      });
    }
    json.EndObject();
    json.EndObject();
    dump_log_ += json.str();
    dump_log_ += '\n';
  }
}

}  // namespace gemini
