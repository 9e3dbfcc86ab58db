// Structured run tracing on simulated time.
//
// RunTracer records typed spans and instant events (iterations, checkpoint
// blocks, failure-detected → training-resumed recovery windows, KV
// elections) and exports them two ways:
//   * Chrome trace-event JSON (chrome://tracing / Perfetto), generalizing
//     the Algorithm-2 interleaving view in src/schedule/trace_export.*;
//   * a flat JSONL event log, one record per line, for scripted analysis.
//
// Every timestamp comes from Simulator::now(), so two runs with the same
// seed produce byte-identical exports — the property the determinism tests
// assert. Records are kept in emission order (spans are recorded when they
// close), which is itself deterministic.
#ifndef SRC_OBS_RUN_TRACER_H_
#define SRC_OBS_RUN_TRACER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace gemini {

// One attribute on a trace record. Numeric attributes keep their type so
// exporters emit JSON numbers, not quoted strings.
struct TraceAttr {
  enum class Kind { kText, kInt, kReal };

  std::string key;
  Kind kind = Kind::kText;
  std::string text;
  int64_t number = 0;
  double real = 0.0;

  static TraceAttr Text(std::string key, std::string value);
  static TraceAttr Int(std::string key, int64_t value);
  static TraceAttr Real(std::string key, double value);
};

enum class TraceRecordKind { kSpan, kInstant };

std::string_view TraceRecordKindName(TraceRecordKind kind);

struct TraceRecord {
  TraceRecordKind kind = TraceRecordKind::kInstant;
  std::string name;
  // Chrome-trace row ("tid"): "training", "checkpoint", "recovery", ...
  std::string track;
  TimeNs start = 0;
  TimeNs duration = 0;  // 0 for instants.
  std::vector<TraceAttr> attrs;

  const TraceAttr* FindAttr(std::string_view key) const;
};

class RunTracer {
 public:
  explicit RunTracer(Simulator& sim) : sim_(sim) {}

  RunTracer(const RunTracer&) = delete;
  RunTracer& operator=(const RunTracer&) = delete;

  // Disabled tracers drop records (long soak runs that only want metrics).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Hard cap on stored records so soak runs cannot grow without bound.
  // 0 = unlimited. Once full, *new* records are dropped (the stored prefix —
  // and therefore every export — stays deterministic) and counted in both
  // dropped_records() and the "tracer.dropped_records" counter when a metrics
  // sink is attached. The record sink still fires for dropped records.
  void set_max_records(size_t max_records) { max_records_ = max_records; }
  size_t max_records() const { return max_records_; }
  int64_t dropped_records() const { return dropped_records_; }

  // Optional sink for "tracer.*" counters; may stay null. The counter handle
  // is resolved here, once, per the hot-path metric convention
  // (src/obs/metrics.h) — Emit runs on every traced event.
  void set_metrics(MetricsRegistry* metrics);

  // Observer invoked for every record as it is emitted — even when the tracer
  // is disabled or at its record cap. GeminiSystem wires the FlightRecorder's
  // bounded ring here so post-mortem context survives capped/disabled runs.
  void set_record_sink(std::function<void(const TraceRecord&)> sink) {
    record_sink_ = std::move(sink);
  }

  // Instant event stamped at the simulator's current time.
  void Event(std::string name, std::string track, std::vector<TraceAttr> attrs = {});

  // Completed span covering [start, end]; recorded once the end is known.
  void Span(std::string name, std::string track, TimeNs start, TimeNs end,
            std::vector<TraceAttr> attrs = {});

  const std::vector<TraceRecord>& records() const { return records_; }
  // First record with `name` (after `from` records), or nullptr.
  const TraceRecord* Find(std::string_view name, size_t from = 0) const;
  // Number of records with `name`.
  int64_t CountNamed(std::string_view name) const;
  void Clear() { records_.clear(); }

  // Chrome trace-event JSON: spans as "ph":"X", instants as "ph":"i".
  std::string ToChromeTraceJson() const;
  // One compact JSON object per line:
  //   {"ts_ns":..,"dur_ns":..,"kind":"span","name":..,"track":..,"attrs":{..}}
  std::string ToJsonl() const;

  Status WriteChromeTrace(const std::string& path) const;

 private:
  // Runs the sink and stores the record unless disabled/capped.
  void Emit(TraceRecord record);

  Simulator& sim_;
  bool enabled_ = true;
  size_t max_records_ = 0;
  int64_t dropped_records_ = 0;
  // Metric handle (resolved once in set_metrics).
  Counter* dropped_records_counter_ = DiscardCounter();
  std::function<void(const TraceRecord&)> record_sink_;
  std::vector<TraceRecord> records_;
};

// Shared Chrome-trace serialization, used by RunTracer and by the iteration
// timeline export in src/schedule/trace_export (the Algorithm-2 view).
std::string ChromeTraceJson(const std::vector<TraceRecord>& records);

// One compact JSON object for a single record (no trailing newline); the unit
// of both RunTracer::ToJsonl and the FlightRecorder dump format.
std::string TraceRecordJsonl(const TraceRecord& record);

}  // namespace gemini

#endif  // SRC_OBS_RUN_TRACER_H_
