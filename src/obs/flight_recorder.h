// Deterministic flight recorder: a bounded ring of the most recent trace
// records plus counter deltas, dumped as JSONL at every incident.
//
// The unbounded RunTracer answers "what happened over the whole run"; the
// flight recorder answers "what happened *just before* this failure" the way
// an aircraft recorder does — it keeps only the last `capacity` records, in
// arrival order, and snapshots them (plus every counter's delta since the
// previous dump) whenever GeminiSystem detects a failure or completes a
// recovery. Because every record timestamp comes from simulated time and the
// counter walk is lexicographic, two same-seed runs produce byte-identical
// dump logs — the property the determinism tests assert.
//
// The recorder is fed through RunTracer's record sink, which fires even when
// the tracer itself is disabled or capped: long soak runs can turn the
// unbounded trace off and still keep post-mortem context.
#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>

#include "src/common/units.h"
#include "src/obs/run_tracer.h"

namespace gemini {

class MetricsRegistry;

struct FlightRecorderConfig {
  // Ring capacity in trace records; the oldest record is evicted when full.
  size_t capacity = 256;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {}) : config_(config) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Appends one record to the ring (evicting the oldest when at capacity).
  // Wired as RunTracer's record sink by GeminiSystem.
  void Record(const TraceRecord& record);

  // Snapshots the ring into the dump log: a header line carrying `reason` and
  // the simulated timestamp, one JSONL line per ring record (oldest first),
  // and one line of counter deltas since the previous dump (counters touched
  // in between, walked in name order). The ring is NOT cleared — consecutive
  // dumps may overlap, like consecutive reads of a real flight recorder.
  void Dump(std::string_view reason, TimeNs now, const MetricsRegistry* metrics);

  // Every dump so far, concatenated (each dump is a self-delimiting JSONL
  // block). Byte-identical across same-seed runs.
  const std::string& dump_log() const { return dump_log_; }

  int64_t dump_count() const { return dump_count_; }
  int64_t records_seen() const { return records_seen_; }
  int64_t records_evicted() const { return records_evicted_; }
  size_t ring_size() const { return ring_.size(); }
  const std::deque<TraceRecord>& ring() const { return ring_; }

 private:
  FlightRecorderConfig config_;
  std::deque<TraceRecord> ring_;
  // Counter values at the previous dump, for delta reporting.
  std::map<std::string, int64_t> counters_at_last_dump_;
  std::string dump_log_;
  int64_t dump_count_ = 0;
  int64_t records_seen_ = 0;
  int64_t records_evicted_ = 0;
};

}  // namespace gemini

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
