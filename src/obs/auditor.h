// Continuous interference auditor: online timeline-drift detection and
// checkpoint-traffic attribution (closing the loop on paper Section 5.4).
//
// GEMINI profiles the iteration timeline once, up front, and schedules
// checkpoint chunks into the profiled idle spans forever after (Algorithm 2).
// That is sound while the paper's stability claim holds (normalized stddev
// below 10%), but a workload change, a congested link or a slow machine
// shifts the real timeline away from the profile — and the scheduled chunks
// silently start colliding with training traffic. The auditor watches for
// exactly that:
//
//  * every iteration it compares the observed idle-span lengths against the
//    profiled baseline, maintaining a per-span EWMA of the normalized drift
//    ("obs.drift.*" gauges);
//  * when a span is shorter than the chunk traffic planned into it, the
//    excess is attributed to the specific chunks that no longer fit
//    ("obs.interference.{events,inflation_ns}" counters plus an
//    "interference" trace span per affected idle span), and the inflation is
//    the amount by which the iteration is prolonged;
//  * when the worst-span |EWMA| stays above kAuditDriftThreshold for
//    kAuditConsecutiveIterations consecutive iterations, the auditor fires
//    its drift hook ("obs.reprofiles" counter); GeminiSystem wires the hook
//    to an online re-profile + Algorithm-2 re-partition, then calls
//    Rebaseline so one sustained shift triggers exactly one re-profile.
//
// All inputs come from simulated time and a deterministic RNG, so the
// auditor adds no nondeterminism: same-seed runs produce byte-identical
// metric and trace exports.
#ifndef SRC_OBS_AUDITOR_H_
#define SRC_OBS_AUDITOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/schedule/partition.h"
#include "src/training/timeline.h"

namespace gemini {

class RunTracer;

// The smoothing factor, drift threshold, trigger streak, re-profile cap and
// failure-rate window are constants (kAudit*, kFailureRateWindow in
// src/common/calibration.h).
struct AuditorConfig {
  bool enabled = true;
};

// Interference attribution for one idle span: walk the chunks planned into
// the span in placement order, accumulating their transfer cost f(size); a
// chunk whose cumulative cost exceeds the observed span length is an
// interference event, and the total excess is the iteration-time inflation.
// Edge cases the tests pin down: a chunk exactly filling the span is NOT an
// event (cumulative == observed), and a zero-length observed span makes
// every chunk an event.
struct SpanAttribution {
  int interference_events = 0;
  TimeNs inflation = 0;
};
SpanAttribution AttributeSpan(TimeNs observed_length, const std::vector<TimeNs>& chunk_costs);

// Result of auditing one iteration.
struct AuditReport {
  // Total iteration-time inflation attributed to checkpoint traffic that no
  // longer fits its spans (summed excess across spans).
  TimeNs inflation = 0;
  // Chunks that collided with training traffic this iteration.
  int interference_events = 0;
  // Worst-span |EWMA drift| after this iteration's update.
  double max_abs_drift = 0.0;
  // True when this audit fired the drift hook.
  bool reprofile_triggered = false;
};

class InterferenceAuditor {
 public:
  // Counter handles are resolved once at construction per the hot-path
  // metric convention (src/obs/metrics.h); the per-span drift gauges are
  // resolved at Rebaseline, when the span count is known.
  InterferenceAuditor(AuditorConfig config, MetricsRegistry* metrics, RunTracer* tracer);

  InterferenceAuditor(const InterferenceAuditor&) = delete;
  InterferenceAuditor& operator=(const InterferenceAuditor&) = delete;

  // Installs the profiled baseline and the active chunk schedule. Per-chunk
  // costs need the transfer model, so the caller passes the partition params
  // used to produce `plan`. Resets drift state (EWMAs, consecutive counter):
  // after a re-profile the new baseline is authoritative and the previous
  // shift must not re-trigger.
  void Rebaseline(const std::vector<IdleSpan>& profiled_spans, const PartitionResult& plan,
                  const PartitionParams& params);

  // Audits one iteration: `observed_span_lengths` are the measured idle-span
  // lengths (same order/count as the profiled baseline; missing entries are
  // treated as matching the profile), `iteration_start` anchors the
  // "interference" trace spans in absolute simulated time. Updates gauges and
  // counters, and fires the drift hook when the trigger condition holds.
  AuditReport AuditIteration(int64_t iteration, const std::vector<TimeNs>& observed_span_lengths,
                             TimeNs iteration_start);

  // Called by the replicator as each checkpoint chunk transfer completes, so
  // the audit trail records the background traffic actually in flight
  // ("obs.background.{chunks,bytes}" counters).
  void NoteBackgroundTransfer(int span_index, Bytes bytes, TimeNs start, TimeNs end);

  // Failure-rate observation: the system reports each detected failure, and
  // the rate is the count inside the trailing kFailureRateWindow scaled to
  // per-hour. Purely simulated-time arithmetic — deterministic.
  void NoteFailure(TimeNs now);
  double ObservedFailureRatePerHour(TimeNs now) const;

  // Hook fired when drift persists; GeminiSystem points this at its online
  // re-profile + re-partition path. Fired at most kAuditMaxReprofiles times.
  void set_on_drift(std::function<void(int64_t iteration)> hook) { on_drift_ = std::move(hook); }

  const std::vector<double>& drift_ewma() const { return drift_ewma_; }
  int consecutive_drifted() const { return consecutive_drifted_; }
  int64_t audits() const { return audits_; }
  int64_t reprofiles() const { return reprofiles_; }
  int64_t total_interference_events() const { return total_interference_events_; }
  TimeNs total_inflation() const { return total_inflation_; }

 private:
  AuditorConfig config_;
  MetricsRegistry* metrics_ = nullptr;
  RunTracer* tracer_ = nullptr;
  // Hot-path metric handles (resolved once at construction; the discard
  // sinks without a registry). The drift gauges are per span, so their
  // handles live in `span_drift_gauges_`, refreshed on every Rebaseline.
  Counter* audits_counter_;
  Counter* interference_events_counter_;
  Counter* interference_inflation_counter_;
  Counter* reprofiles_counter_;
  Counter* background_chunks_counter_;
  Counter* background_bytes_counter_;
  Gauge* max_abs_drift_gauge_;
  std::vector<Gauge*> span_drift_gauges_;
  std::function<void(int64_t iteration)> on_drift_;

  // Baseline: profiled span geometry plus the per-span planned chunk costs of
  // the active schedule.
  std::vector<IdleSpan> profiled_spans_;
  std::vector<std::vector<TimeNs>> span_chunk_costs_;

  std::vector<double> drift_ewma_;
  // Detection times of every failure reported via NoteFailure (append-only;
  // the window scan walks back from the end).
  std::vector<TimeNs> failure_times_;
  int consecutive_drifted_ = 0;
  int64_t audits_ = 0;
  int64_t reprofiles_ = 0;
  int64_t total_interference_events_ = 0;
  TimeNs total_inflation_ = 0;
};

}  // namespace gemini

#endif  // SRC_OBS_AUDITOR_H_
