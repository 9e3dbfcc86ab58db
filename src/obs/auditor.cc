#include "src/obs/auditor.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/calibration.h"
#include "src/obs/metrics.h"
#include "src/obs/run_tracer.h"

namespace gemini {

SpanAttribution AttributeSpan(TimeNs observed_length, const std::vector<TimeNs>& chunk_costs) {
  SpanAttribution result;
  TimeNs cumulative = 0;
  for (const TimeNs cost : chunk_costs) {
    cumulative += cost;
    if (cumulative > observed_length) {
      ++result.interference_events;
    }
  }
  result.inflation = std::max<TimeNs>(0, cumulative - observed_length);
  return result;
}

InterferenceAuditor::InterferenceAuditor(AuditorConfig config, MetricsRegistry* metrics,
                                         RunTracer* tracer)
    : config_(config),
      metrics_(metrics),
      tracer_(tracer),
      audits_counter_(CounterHandle(metrics, "obs.audits")),
      interference_events_counter_(CounterHandle(metrics, "obs.interference.events")),
      interference_inflation_counter_(CounterHandle(metrics, "obs.interference.inflation_ns")),
      reprofiles_counter_(CounterHandle(metrics, "obs.reprofiles")),
      background_chunks_counter_(CounterHandle(metrics, "obs.background.chunks")),
      background_bytes_counter_(CounterHandle(metrics, "obs.background.bytes")),
      max_abs_drift_gauge_(GaugeHandle(metrics, "obs.drift.max_abs_ewma")) {}

void InterferenceAuditor::Rebaseline(const std::vector<IdleSpan>& profiled_spans,
                                     const PartitionResult& plan,
                                     const PartitionParams& params) {
  profiled_spans_ = profiled_spans;
  // Resolve the per-span drift gauge handles here, once per baseline — the
  // audit loop sets one gauge per span per iteration, and building the
  // "obs.drift.span_<i>" key there would put a string concatenation plus a
  // map lookup on the per-iteration path.
  span_drift_gauges_.clear();
  for (size_t i = 0; i < profiled_spans.size(); ++i) {
    span_drift_gauges_.push_back(GaugeHandle(metrics_, "obs.drift.span_" + std::to_string(i)));
  }
  span_chunk_costs_.assign(profiled_spans.size(), {});
  for (const ChunkAssignment& chunk : plan.chunks) {
    if (chunk.span_index < 0 ||
        chunk.span_index >= static_cast<int>(span_chunk_costs_.size())) {
      continue;
    }
    const TimeNs cost = params.alpha + TransferTime(chunk.bytes, params.bandwidth);
    span_chunk_costs_[static_cast<size_t>(chunk.span_index)].push_back(cost);
  }
  drift_ewma_.assign(profiled_spans.size(), 0.0);
  consecutive_drifted_ = 0;
}

AuditReport InterferenceAuditor::AuditIteration(int64_t iteration,
                                                const std::vector<TimeNs>& observed_span_lengths,
                                                TimeNs iteration_start) {
  AuditReport report;
  if (!config_.enabled || profiled_spans_.empty()) {
    return report;
  }
  ++audits_;
  audits_counter_->Increment();

  for (size_t i = 0; i < profiled_spans_.size(); ++i) {
    const TimeNs profiled = profiled_spans_[i].length;
    const TimeNs observed =
        i < observed_span_lengths.size() ? observed_span_lengths[i] : profiled;

    // Per-span normalized drift, smoothed with an EWMA so a single jittery
    // iteration does not register as a timeline shift.
    if (profiled > 0) {
      const double drift =
          static_cast<double>(observed - profiled) / static_cast<double>(profiled);
      drift_ewma_[i] = kAuditEwmaAlpha * drift + (1.0 - kAuditEwmaAlpha) * drift_ewma_[i];
    }
    report.max_abs_drift = std::max(report.max_abs_drift, std::fabs(drift_ewma_[i]));

    // Attribution: chunks planned into a span that shrank below their total
    // cost collide with training traffic and prolong the iteration.
    const SpanAttribution attribution = AttributeSpan(observed, span_chunk_costs_[i]);
    if (attribution.interference_events > 0) {
      report.interference_events += attribution.interference_events;
      report.inflation += attribution.inflation;
      if (tracer_ != nullptr) {
        const TimeNs span_start = iteration_start + profiled_spans_[i].start;
        tracer_->Span("interference", "audit", span_start + observed,
                      span_start + observed + attribution.inflation,
                      {TraceAttr::Int("iteration", iteration),
                       TraceAttr::Int("span", static_cast<int64_t>(i)),
                       TraceAttr::Int("chunks", attribution.interference_events),
                       TraceAttr::Int("inflation_ns", attribution.inflation)});
      }
    }
  }
  total_interference_events_ += report.interference_events;
  total_inflation_ += report.inflation;

  for (size_t i = 0; i < drift_ewma_.size(); ++i) {
    span_drift_gauges_[i]->Set(drift_ewma_[i]);
  }
  max_abs_drift_gauge_->Set(report.max_abs_drift);
  interference_events_counter_->Increment(report.interference_events);
  interference_inflation_counter_->Increment(report.inflation);

  // Trigger: the worst span's |EWMA| above threshold for K consecutive
  // audits. The hook re-profiles and re-partitions, then calls Rebaseline
  // (resetting the EWMAs), so one sustained shift fires exactly once.
  if (report.max_abs_drift > kAuditDriftThreshold) {
    ++consecutive_drifted_;
  } else {
    consecutive_drifted_ = 0;
  }
  if (consecutive_drifted_ >= kAuditConsecutiveIterations && reprofiles_ < kAuditMaxReprofiles &&
      on_drift_) {
    ++reprofiles_;
    report.reprofile_triggered = true;
    reprofiles_counter_->Increment();
    on_drift_(iteration);
    consecutive_drifted_ = 0;
  }
  return report;
}

void InterferenceAuditor::NoteBackgroundTransfer(int span_index, Bytes bytes, TimeNs start,
                                                 TimeNs end) {
  (void)span_index;
  (void)start;
  (void)end;
  background_chunks_counter_->Increment();
  background_bytes_counter_->Increment(bytes);
}

void InterferenceAuditor::NoteFailure(TimeNs now) { failure_times_.push_back(now); }

double InterferenceAuditor::ObservedFailureRatePerHour(TimeNs now) const {
  const TimeNs window_start = now - kFailureRateWindow;
  int64_t in_window = 0;
  for (auto it = failure_times_.rbegin(); it != failure_times_.rend(); ++it) {
    if (*it < window_start) {
      break;  // Timestamps arrive in simulated-time order.
    }
    ++in_window;
  }
  const double window_hours =
      static_cast<double>(kFailureRateWindow) / static_cast<double>(kHour);
  return static_cast<double>(in_window) / window_hours;
}

}  // namespace gemini
