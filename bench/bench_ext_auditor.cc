// Extension: the continuous interference auditor's cost and its payoff.
//
// Three questions, one run each:
//  * Overhead — with the auditor on and the timeline stable, iteration times
//    must be unchanged (the audit runs on simulated-time bookkeeping only),
//    keeping the paper's Figure 7 zero-overhead claim intact.
//  * Determinism — two same-seed audited runs must produce byte-identical
//    trace, metric, and flight-recorder exports.
//  * Adaptation — a persistent timeline shift (idle spans shrunk to half) must
//    be detected by the drift EWMAs, attributed to the colliding checkpoint
//    chunks, and cured by exactly one online re-profile + Algorithm-2
//    re-partition, after which iterations accrue no further inflation.
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/common/calibration.h"
#include "src/gemini/gemini_system.h"

using namespace gemini;

namespace {

constexpr int64_t kIterations = 30;

GeminiConfig AuditorBenchConfig() {
  GeminiConfig config;
  config.model = Gpt2_100B();
  config.instance = P4d24xlarge();
  config.num_machines = 8;
  config.num_replicas = 2;
  config.payload_elements = 16;
  config.cloud.num_standby = 2;
  return config;
}

struct QuietRun {
  TimeNs wall_time = 0;
  SystemSnapshot snapshot;
  std::string trace_jsonl;
  std::string metrics_json;
};

StatusOr<QuietRun> RunQuiet(bool audit_enabled) {
  GeminiConfig config = AuditorBenchConfig();
  config.audit.enabled = audit_enabled;
  GeminiSystem system(config);
  GEMINI_RETURN_IF_ERROR(system.Initialize());
  GEMINI_ASSIGN_OR_RETURN(const TrainingReport report, system.TrainUntil(kIterations));
  QuietRun run;
  run.wall_time = report.wall_time;
  run.snapshot = system.Snapshot();
  run.trace_jsonl = system.tracer().ToJsonl();
  run.metrics_json = system.metrics().ToJson();
  return run;
}

struct ShiftRun {
  SystemSnapshot snapshot;
  // Per-iteration samples across the run (sampled after each iteration).
  Histogram drift;
  Histogram inflation_ms;
  // Simulated time of the whole run.
  TimeNs wall_time = 0;
  // Inflation accrued after the re-profile fired (should be zero: cured).
  TimeNs inflation_after_reprofile = 0;
  bool drift_exceeded_threshold = false;
};

StatusOr<ShiftRun> RunShift() {
  GeminiConfig config = AuditorBenchConfig();
  GeminiSystem system(config);
  GEMINI_RETURN_IF_ERROR(system.Initialize());
  GEMINI_ASSIGN_OR_RETURN(const TrainingReport warmup, system.TrainUntil(5));
  system.InjectTimelineShift(0.5);

  ShiftRun run;
  run.wall_time = warmup.wall_time;
  int64_t last_inflation = system.metrics().counter_value("obs.interference.inflation_ns");
  for (int64_t target = 6; target <= kIterations; ++target) {
    // The iteration that fires the re-profile still audits the old schedule,
    // so its inflation belongs to the pre-cure era: attribute each delta by
    // whether the re-profile had happened *before* the iteration ran.
    const bool cured = system.metrics().counter_value("obs.reprofiles") > 0;
    GEMINI_ASSIGN_OR_RETURN(const TrainingReport report, system.TrainUntil(target));
    run.wall_time += report.wall_time;  // wall_time covers one TrainUntil call.
    const double drift = system.metrics().gauge_value("obs.drift.max_abs_ewma");
    const int64_t inflation = system.metrics().counter_value("obs.interference.inflation_ns");
    run.drift.Observe(drift);
    run.inflation_ms.Observe(static_cast<double>(inflation - last_inflation) / 1e6);
    run.drift_exceeded_threshold |= drift > kAuditDriftThreshold;
    if (cured) {
      run.inflation_after_reprofile += inflation - last_inflation;
    }
    last_inflation = inflation;
  }
  run.snapshot = system.Snapshot();
  return run;
}

}  // namespace

int main() {
  bench::BenchReporter reporter(
      "ext_auditor",
      "Extension: continuous interference auditor (GPT-2 100B, 8x p4d)",
      "observability; closes the loop on paper Sections 5.3-5.4 one-shot profiling");

  const auto baseline = RunQuiet(/*audit_enabled=*/false);
  const auto audited = RunQuiet(/*audit_enabled=*/true);
  const auto audited_again = RunQuiet(/*audit_enabled=*/true);
  const auto shifted = RunShift();
  if (!baseline.ok() || !audited.ok() || !audited_again.ok() || !shifted.ok()) {
    std::cerr << "bench run failed: " << baseline.status() << " / " << audited.status()
              << " / " << audited_again.status() << " / " << shifted.status() << "\n";
    return 1;
  }

  const double overhead =
      std::abs(static_cast<double>(audited->wall_time) -
               static_cast<double>(baseline->wall_time)) /
      static_cast<double>(baseline->wall_time);
  const bool deterministic = audited->trace_jsonl == audited_again->trace_jsonl &&
                             audited->metrics_json == audited_again->metrics_json;

  TablePrinter table({"Scenario", "Wall (min)", "Audits", "Interference", "Inflation (ms)",
                      "Reprofiles"});
  auto add_row = [&](const std::string& name, TimeNs wall, const SystemSnapshot& snapshot) {
    table.AddRow({name, TablePrinter::Fmt(ToSeconds(wall) / 60.0),
                  std::to_string(snapshot.audits), std::to_string(snapshot.interference_events),
                  TablePrinter::Fmt(static_cast<double>(snapshot.interference_inflation) / 1e6),
                  std::to_string(snapshot.reprofiles)});
  };
  add_row("auditor off", baseline->wall_time, baseline->snapshot);
  add_row("auditor on, stable", audited->wall_time, audited->snapshot);
  add_row("auditor on, 0.5x shift", shifted->wall_time, shifted->snapshot);
  reporter.Table(table);

  reporter.Metric("stable.overhead_fraction", overhead);
  reporter.Metric("stable.audits", audited->snapshot.audits);
  reporter.Metric("stable.interference_events", audited->snapshot.interference_events);
  reporter.Metric("stable.deterministic", static_cast<int64_t>(deterministic));
  // An uncapped tracer must never drop records; CI greps this for regressions.
  reporter.Metric("stable.tracer_dropped_records", audited->snapshot.tracer_dropped_records);
  reporter.Metric("shift.reprofiles", shifted->snapshot.reprofiles);
  reporter.Metric("shift.interference_events", shifted->snapshot.interference_events);
  reporter.Metric("shift.inflation_ms",
                  static_cast<double>(shifted->snapshot.interference_inflation) / 1e6);
  reporter.Metric("shift.inflation_after_reprofile_ms",
                  static_cast<double>(shifted->inflation_after_reprofile) / 1e6);
  reporter.Metric("shift.checkpoint_interval",
                  static_cast<int64_t>(shifted->snapshot.checkpoint_interval_iterations));
  // Tail behaviour of the shifted run, not just means: the drift gauge and
  // the per-iteration inflation as p50/p95/p99.
  reporter.HistogramMetric("shift.drift_max_abs_ewma", shifted->drift);
  reporter.HistogramMetric("shift.iteration_inflation_ms", shifted->inflation_ms);

  bool pass = true;
  // Auditor on + stable timeline: iteration times unchanged (Fig 7 intact).
  pass &= overhead <= 0.01;
  pass &= audited->snapshot.audits == kIterations;
  pass &= audited->snapshot.interference_events == 0;
  pass &= audited->snapshot.reprofiles == 0;
  pass &= audited->snapshot.tracer_dropped_records == 0;
  pass &= deterministic;
  // Shifted run: drift detected, attributed, cured by exactly one re-profile.
  pass &= shifted->drift_exceeded_threshold;
  pass &= shifted->snapshot.interference_events > 0;
  pass &= shifted->snapshot.interference_inflation > 0;
  pass &= shifted->snapshot.reprofiles == 1;
  pass &= shifted->inflation_after_reprofile == 0;

  reporter.ShapeCheck(
      pass,
      "with a stable timeline the auditor is free (iteration times unchanged within 1%,\n"
      "byte-identical same-seed exports); under a persistent 0.5x idle-span shift the\n"
      "drift EWMAs cross the threshold, interference is attributed to the colliding\n"
      "chunks, and exactly one online re-profile + re-partition restores\n"
      "interference-free iterations.");
  return reporter.Finish();
}
