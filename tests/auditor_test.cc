// Tests for the continuous interference auditor: the AttributeSpan edge
// cases, the per-span EWMA drift math and its trigger debounce, and the
// end-to-end feedback loop through GeminiSystem — injected timeline shift
// -> drift detection -> exactly one online re-profile/re-partition ->
// interference-free iterations again. Also pins the determinism contract:
// two same-seed runs produce byte-identical tracer and flight-recorder
// exports, with or without the stored-record cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/calibration.h"
#include "src/gemini/gemini_system.h"
#include "src/obs/auditor.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/run_tracer.h"

namespace gemini {
namespace {

// ---------------------------------------------------------------------------
// AttributeSpan
// ---------------------------------------------------------------------------

TEST(AttributeSpanTest, ChunksWithinSpanAreNotEvents) {
  const SpanAttribution result = AttributeSpan(100, {30, 40});
  EXPECT_EQ(result.interference_events, 0);
  EXPECT_EQ(result.inflation, 0);
}

TEST(AttributeSpanTest, ChunkExactlyFillingSpanIsNotAnEvent) {
  // cumulative == observed is the boundary: the chunk still fits.
  const SpanAttribution result = AttributeSpan(100, {30, 70});
  EXPECT_EQ(result.interference_events, 0);
  EXPECT_EQ(result.inflation, 0);
}

TEST(AttributeSpanTest, OverflowingChunksAreEventsAndExcessIsInflation) {
  // 60 fits; cumulative 120 and 150 exceed the 100ns span.
  const SpanAttribution result = AttributeSpan(100, {60, 60, 30});
  EXPECT_EQ(result.interference_events, 2);
  EXPECT_EQ(result.inflation, 50);
}

TEST(AttributeSpanTest, ZeroLengthSpanMakesEveryChunkAnEvent) {
  const SpanAttribution result = AttributeSpan(0, {10, 20, 30});
  EXPECT_EQ(result.interference_events, 3);
  EXPECT_EQ(result.inflation, 60);
}

TEST(AttributeSpanTest, NoChunksMeansNoInterference) {
  const SpanAttribution result = AttributeSpan(0, {});
  EXPECT_EQ(result.interference_events, 0);
  EXPECT_EQ(result.inflation, 0);
}

// ---------------------------------------------------------------------------
// InterferenceAuditor unit behaviour (EWMA math, trigger debounce)
// ---------------------------------------------------------------------------

class AuditorUnitTest : public ::testing::Test {
 protected:
  // One 1ms idle span starting at 100us, no chunks planned into it.
  void Rebaseline(InterferenceAuditor& auditor) {
    std::vector<IdleSpan> spans;
    spans.push_back({Micros(100), Millis(1)});
    PartitionResult plan;  // Empty schedule: pure drift tracking.
    PartitionParams params;
    params.idle_spans = spans;
    auditor.Rebaseline(spans, plan, params);
  }
};

TEST_F(AuditorUnitTest, EwmaFollowsClosedForm) {
  InterferenceAuditor auditor(AuditorConfig{}, nullptr, nullptr);
  Rebaseline(auditor);

  // Constant -20% drift: ewma_n = 0.4*d + 0.6*ewma_{n-1}, ewma_0 = 0.
  ASSERT_EQ(kAuditEwmaAlpha, 0.4);
  const TimeNs observed = static_cast<TimeNs>(0.8 * Millis(1));
  double expected = 0.0;
  for (int i = 0; i < 5; ++i) {
    const AuditReport report = auditor.AuditIteration(i, {observed}, 0);
    const double drift =
        (static_cast<double>(observed) - static_cast<double>(Millis(1))) /
        static_cast<double>(Millis(1));
    expected = 0.4 * drift + 0.6 * expected;
    ASSERT_EQ(auditor.drift_ewma().size(), 1u);
    EXPECT_NEAR(auditor.drift_ewma()[0], expected, 1e-12);
    EXPECT_NEAR(report.max_abs_drift, std::fabs(expected), 1e-12);
  }
}

TEST_F(AuditorUnitTest, MissingObservationsMatchTheProfile) {
  InterferenceAuditor auditor(AuditorConfig{}, nullptr, nullptr);
  Rebaseline(auditor);
  const AuditReport report = auditor.AuditIteration(0, {}, 0);
  EXPECT_EQ(report.max_abs_drift, 0.0);
  EXPECT_EQ(auditor.drift_ewma()[0], 0.0);
}

TEST_F(AuditorUnitTest, TriggerNeedsConsecutiveDriftedIterations) {
  ASSERT_EQ(kAuditEwmaAlpha, 0.4);
  ASSERT_EQ(kAuditDriftThreshold, 0.10);
  ASSERT_EQ(kAuditConsecutiveIterations, 3);
  InterferenceAuditor auditor(AuditorConfig{}, nullptr, nullptr);
  Rebaseline(auditor);
  int fired = 0;
  auditor.set_on_drift([&](int64_t) { ++fired; });

  // Constant -20% shift: |EWMA| = .08, .128, .1568, .174 — the threshold is
  // first exceeded on audit 2, so the 3rd consecutive drifted audit is #4.
  const TimeNs observed = static_cast<TimeNs>(0.8 * Millis(1));
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(auditor.AuditIteration(i, {observed}, 0).reprofile_triggered);
  }
  const AuditReport fourth = auditor.AuditIteration(3, {observed}, 0);
  EXPECT_TRUE(fourth.reprofile_triggered);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(auditor.reprofiles(), 1);
  // The trigger resets the streak; without a Rebaseline the still-shifted
  // timeline has to re-earn K consecutive drifted audits.
  EXPECT_EQ(auditor.consecutive_drifted(), 0);
}

TEST_F(AuditorUnitTest, OneOffStragglerDoesNotTrigger) {
  ASSERT_EQ(kAuditConsecutiveIterations, 3);
  InterferenceAuditor auditor(AuditorConfig{}, nullptr, nullptr);
  Rebaseline(auditor);
  int fired = 0;
  auditor.set_on_drift([&](int64_t) { ++fired; });

  const TimeNs nominal = Millis(1);
  const TimeNs straggler = static_cast<TimeNs>(0.5 * Millis(1));
  for (int i = 0; i < 20; ++i) {
    // One bad iteration in every four; recovery iterations pull the EWMA
    // back under the threshold before the streak reaches 3.
    const TimeNs observed = (i % 4 == 0) ? straggler : nominal;
    auditor.AuditIteration(i, {observed}, 0);
  }
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(auditor.reprofiles(), 0);
}

TEST_F(AuditorUnitTest, RebaselineResetsDriftState) {
  InterferenceAuditor auditor(AuditorConfig{}, nullptr, nullptr);
  Rebaseline(auditor);
  const TimeNs observed = static_cast<TimeNs>(0.8 * Millis(1));
  auditor.AuditIteration(0, {observed}, 0);
  auditor.AuditIteration(1, {observed}, 0);
  EXPECT_GT(auditor.consecutive_drifted(), 0);
  EXPECT_NE(auditor.drift_ewma()[0], 0.0);

  Rebaseline(auditor);
  EXPECT_EQ(auditor.consecutive_drifted(), 0);
  EXPECT_EQ(auditor.drift_ewma()[0], 0.0);
}

TEST_F(AuditorUnitTest, HookFiresAtMostMaxReprofilesTimes) {
  InterferenceAuditor auditor(AuditorConfig{}, nullptr, nullptr);
  Rebaseline(auditor);
  int fired = 0;
  // Deliberately no Rebaseline in the hook: the shift keeps re-triggering
  // (every kAuditConsecutiveIterations audits, since a -50% shift drifts past
  // the threshold from the first audit on), and the cap must bound the
  // firings. The loop runs long enough to reach the cap twice over.
  auditor.set_on_drift([&](int64_t) { ++fired; });
  const TimeNs observed = static_cast<TimeNs>(0.5 * Millis(1));
  for (int i = 0; i < 2 * kAuditConsecutiveIterations * kAuditMaxReprofiles; ++i) {
    auditor.AuditIteration(i, {observed}, 0);
    EXPECT_EQ(fired, std::min((i + 1) / kAuditConsecutiveIterations, kAuditMaxReprofiles))
        << "after audit " << i;
  }
  EXPECT_EQ(fired, kAuditMaxReprofiles);
  EXPECT_EQ(auditor.reprofiles(), kAuditMaxReprofiles);
}

TEST_F(AuditorUnitTest, DisabledAuditorDoesNothing) {
  AuditorConfig config;
  config.enabled = false;
  InterferenceAuditor auditor(config, nullptr, nullptr);
  Rebaseline(auditor);
  const AuditReport report =
      auditor.AuditIteration(0, {static_cast<TimeNs>(0.2 * Millis(1))}, 0);
  EXPECT_EQ(report.max_abs_drift, 0.0);
  EXPECT_EQ(auditor.audits(), 0);
}

// ---------------------------------------------------------------------------
// Planned span costs recorded by the partitioner
// ---------------------------------------------------------------------------

TEST(PlannedSpanCostTest, PartitionReportsPerSpanCost) {
  PartitionParams params;
  params.idle_spans.push_back({0, Millis(2)});
  params.idle_spans.push_back({Millis(5), Millis(2)});
  params.checkpoint_bytes = MiB(1);
  params.num_remote_replicas = 1;
  params.reserved_buffer = MiB(1);
  params.num_buffers = 4;
  params.bandwidth = 1e9;  // 1 GB/s.
  params.alpha = Micros(10);
  params.gamma = 0.7;
  const StatusOr<PartitionResult> plan = PartitionCheckpoint(params);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->planned_span_cost.size(), params.idle_spans.size());
  // The recorded per-span cost is exactly the sum of f(size) over the chunks
  // placed into that span.
  std::vector<TimeNs> recomputed(params.idle_spans.size(), 0);
  for (const ChunkAssignment& chunk : plan->chunks) {
    recomputed[static_cast<size_t>(chunk.span_index)] +=
        params.alpha + TransferTime(chunk.bytes, params.bandwidth);
  }
  EXPECT_EQ(plan->planned_span_cost, recomputed);
}

// ---------------------------------------------------------------------------
// End-to-end feedback loop through GeminiSystem
// ---------------------------------------------------------------------------

GeminiConfig AuditSystemConfig() {
  GeminiConfig config;
  config.model = Gpt2_100B();
  config.instance = P4d24xlarge();
  config.num_machines = 8;
  config.num_replicas = 2;
  config.payload_elements = 32;
  config.seed = 2024;
  config.cloud.num_standby = 2;
  return config;
}

TEST(AuditorSystemTest, NoDriftMeansNoInterferenceAndUnchangedIterations) {
  GeminiConfig audited = AuditSystemConfig();
  GeminiConfig unaudited = AuditSystemConfig();
  unaudited.audit.enabled = false;

  GeminiSystem with_audit(audited);
  GeminiSystem without_audit(unaudited);
  ASSERT_TRUE(with_audit.Initialize().ok());
  ASSERT_TRUE(without_audit.Initialize().ok());
  const auto audited_report = with_audit.TrainUntil(10);
  const auto unaudited_report = without_audit.TrainUntil(10);
  ASSERT_TRUE(audited_report.ok());
  ASSERT_TRUE(unaudited_report.ok());

  // The auditor observed every iteration but, absent drift, charged nothing:
  // wall time matches the un-audited run exactly (Fig. 7 claims intact).
  EXPECT_EQ(audited_report->wall_time, unaudited_report->wall_time);
  EXPECT_EQ(audited_report->iteration_time, unaudited_report->iteration_time);

  const SystemSnapshot snapshot = with_audit.Snapshot();
  EXPECT_EQ(snapshot.audits, 10);
  EXPECT_EQ(snapshot.interference_events, 0);
  EXPECT_EQ(snapshot.interference_inflation, 0);
  EXPECT_EQ(snapshot.reprofiles, 0);
  EXPECT_LT(snapshot.max_abs_drift_ewma, 0.10);
  EXPECT_EQ(with_audit.metrics().counter_value("obs.audits"), 10);
  EXPECT_EQ(with_audit.metrics().counter_value("obs.interference.events"), 0);

  const SystemSnapshot disabled = without_audit.Snapshot();
  EXPECT_EQ(disabled.audits, 0);
}

TEST(AuditorSystemTest, SustainedShiftTriggersExactlyOneReprofile) {
  GeminiConfig config = AuditSystemConfig();
  config.observed_span_jitter_stddev = 0.0;  // Crisp drift math.
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  ASSERT_TRUE(system.TrainUntil(2).ok());

  // A persistent -20% shift: over threshold but not deep enough to breach
  // the gamma=0.7 margin, so drift is detected without interference.
  system.InjectTimelineShift(0.8);
  const auto report = system.TrainUntil(12);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->iterations_completed, 12);

  const SystemSnapshot snapshot = system.Snapshot();
  EXPECT_EQ(snapshot.reprofiles, 1);
  EXPECT_EQ(snapshot.interference_events, 0);
  EXPECT_EQ(system.metrics().counter_value("obs.reprofiles"), 1);
  EXPECT_EQ(system.metrics().counter_value("system.reprofiles"), 1);
  EXPECT_EQ(system.tracer().CountNamed("reprofile"), 1);
  // The fresh baseline tracks the shifted timeline, so post-reprofile drift
  // is only the profiling error.
  EXPECT_LT(snapshot.max_abs_drift_ewma, 0.10);
  // Re-partitioning against the shifted profile still finds a schedule.
  EXPECT_TRUE(system.iteration_execution().partition.fits_within_idle_time);
}

TEST(AuditorSystemTest, DeepShiftAttributesInterferenceUntilReprofileCures) {
  GeminiConfig config = AuditSystemConfig();
  config.observed_span_jitter_stddev = 0.0;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  ASSERT_TRUE(system.TrainUntil(2).ok());

  // Halving the idle spans breaches the gamma=0.7 packing margin: scheduled
  // chunks collide with training traffic until the re-profile replans them.
  system.InjectTimelineShift(0.5);
  const auto report = system.TrainUntil(12);
  ASSERT_TRUE(report.ok()) << report.status();

  const SystemSnapshot snapshot = system.Snapshot();
  EXPECT_GT(snapshot.interference_events, 0);
  EXPECT_GT(snapshot.interference_inflation, 0);
  EXPECT_EQ(snapshot.reprofiles, 1);
  EXPECT_EQ(system.tracer().CountNamed("reprofile"), 1);
  EXPECT_GT(system.tracer().CountNamed("interference"), 0);
  // The re-partition found a schedule that fits even the halved spans (idle
  // time is abundant in this configuration), so iterations return to the
  // overhead-free baseline instead of keeping the collision inflation.
  EXPECT_TRUE(system.iteration_execution().partition.fits_within_idle_time);
  EXPECT_EQ(snapshot.iteration_time, snapshot.baseline_iteration_time);

  // After the re-partition the new schedule fits the shrunken spans: further
  // training accrues no new interference.
  const TimeNs inflation_after_cure = system.auditor().total_inflation();
  const int64_t events_after_cure = system.auditor().total_interference_events();
  ASSERT_TRUE(system.TrainUntil(20).ok());
  EXPECT_EQ(system.auditor().total_inflation(), inflation_after_cure);
  EXPECT_EQ(system.auditor().total_interference_events(), events_after_cure);
}

TEST(AuditorSystemTest, SameSeedRunsProduceByteIdenticalObservability) {
  auto run = [](GeminiSystem& system) {
    ASSERT_TRUE(system.Initialize().ok());
    system.failure_injector().InjectAt(Minutes(3), FailureType::kSoftware, {5});
    ASSERT_TRUE(system.TrainUntil(8).ok());
  };
  GeminiSystem first(AuditSystemConfig());
  GeminiSystem second(AuditSystemConfig());
  run(first);
  run(second);

  // One failure -> one failure_detected dump and one recovery_complete dump.
  EXPECT_EQ(first.flight_recorder().dump_count(), 2);
  EXPECT_EQ(first.Snapshot().flight_dumps, 2);
  EXPECT_FALSE(first.flight_recorder().dump_log().empty());

  // The determinism contract: byte-identical trace and flight-recorder
  // exports across same-seed runs.
  EXPECT_EQ(first.tracer().ToJsonl(), second.tracer().ToJsonl());
  EXPECT_EQ(first.flight_recorder().dump_log(), second.flight_recorder().dump_log());
  EXPECT_EQ(first.metrics().ToJson(), second.metrics().ToJson());
}

TEST(AuditorSystemTest, FlightRecorderRingStaysBounded) {
  GeminiConfig config = AuditSystemConfig();
  config.flight_recorder_capacity = 16;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(3), FailureType::kSoftware, {5});
  ASSERT_TRUE(system.TrainUntil(8).ok());

  const FlightRecorder& recorder = system.flight_recorder();
  EXPECT_LE(recorder.ring_size(), 64u);
  EXPECT_GT(recorder.records_evicted(), 0);
  EXPECT_EQ(recorder.records_seen(),
            recorder.records_evicted() + static_cast<int64_t>(recorder.ring_size()));
  EXPECT_NE(recorder.dump_log().find("\"reason\":\"failure_detected\""), std::string::npos);
  EXPECT_NE(recorder.dump_log().find("\"reason\":\"recovery_complete\""), std::string::npos);
}

TEST(AuditorSystemTest, TracerCapDropsNewRecordsKeepingPrefix) {
  GeminiConfig uncapped_config = AuditSystemConfig();
  GeminiConfig capped_config = AuditSystemConfig();
  capped_config.tracer_max_records = 20;

  GeminiSystem uncapped(uncapped_config);
  GeminiSystem capped(capped_config);
  ASSERT_TRUE(uncapped.Initialize().ok());
  ASSERT_TRUE(capped.Initialize().ok());
  ASSERT_TRUE(uncapped.TrainUntil(10).ok());
  ASSERT_TRUE(capped.TrainUntil(10).ok());

  EXPECT_EQ(capped.tracer().records().size(), 20u);
  EXPECT_GT(capped.tracer().dropped_records(), 0);
  EXPECT_EQ(capped.metrics().counter_value("tracer.dropped_records"),
            capped.tracer().dropped_records());
  EXPECT_EQ(capped.Snapshot().tracer_dropped_records, capped.tracer().dropped_records());
  EXPECT_EQ(uncapped.Snapshot().tracer_dropped_records, 0);

  // Capping drops only *new* records: the capped export is a byte-exact
  // prefix of the uncapped run's export.
  const std::string full = uncapped.tracer().ToJsonl();
  const std::string prefix = capped.tracer().ToJsonl();
  ASSERT_LT(prefix.size(), full.size());
  EXPECT_EQ(full.compare(0, prefix.size(), prefix), 0);

  // The flight recorder rides the record sink, which fires past the cap: it
  // saw every record the uncapped tracer stored.
  EXPECT_EQ(capped.flight_recorder().records_seen(),
            static_cast<int64_t>(uncapped.tracer().records().size()));
}

}  // namespace
}  // namespace gemini
