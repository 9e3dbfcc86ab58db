// Observability layer: metric semantics, deterministic JSON serialization,
// run tracing, and the end-to-end guarantees the layer makes — same-seed
// runs export byte-identical traces, and recovery spans reconcile with the
// RecoveryRecord the system reports.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/machine.h"
#include "src/common/json_writer.h"
#include "src/gemini/gemini_system.h"
#include "src/obs/metrics.h"
#include "src/obs/run_tracer.h"
#include "src/sim/simulator.h"
#include "src/storage/cpu_store.h"
#include "src/training/trainer.h"

namespace gemini {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, CompactObjectAndArray) {
  JsonWriter json;
  json.BeginObject();
  json.Key("a").Value(1);
  json.Key("b").BeginArray();
  json.Value("x").Value(true).Value(2.5);
  json.EndArray();
  json.EndObject();
  EXPECT_EQ(json.str(), R"({"a":1,"b":["x",true,2.5]})");
}

TEST(JsonWriterTest, IndentedOutput) {
  JsonWriter json(2);
  json.BeginObject();
  json.Key("k").Value("v");
  json.EndObject();
  EXPECT_EQ(json.str(), "{\n  \"k\": \"v\"\n}");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(JsonWriter::Escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, DoubleFormattingIsShortestRoundTrip) {
  EXPECT_EQ(JsonWriter::FormatDouble(62.0), "62");
  EXPECT_EQ(JsonWriter::FormatDouble(0.5), "0.5");
  EXPECT_EQ(JsonWriter::FormatDouble(1.0 / 0.0), "null");
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAccumulatesAndReadsBackByName) {
  MetricsRegistry metrics;
  metrics.counter("a.events").Increment();
  metrics.counter("a.events").Increment(4);
  EXPECT_EQ(metrics.counter_value("a.events"), 5);
  EXPECT_EQ(metrics.counter_value("never.touched"), 0);
  // The returned reference is stable: creating more metrics must not move it.
  Counter& counter = metrics.counter("a.events");
  for (int i = 0; i < 100; ++i) {
    metrics.counter("filler." + std::to_string(i));
  }
  counter.Increment();
  EXPECT_EQ(metrics.counter_value("a.events"), 6);
}

TEST(MetricsTest, GaugeSetsAndAdds) {
  MetricsRegistry metrics;
  metrics.gauge("queue.depth").Set(3.0);
  metrics.gauge("queue.depth").Add(-1.0);
  EXPECT_DOUBLE_EQ(metrics.gauge_value("queue.depth"), 2.0);
}

TEST(MetricsTest, HistogramTracksMomentsAndQuantiles) {
  MetricsRegistry metrics;
  Histogram& histogram = metrics.histogram("latency");
  for (int i = 1; i <= 100; ++i) {
    histogram.Observe(static_cast<double>(i));
  }
  EXPECT_EQ(histogram.count(), 100);
  EXPECT_DOUBLE_EQ(histogram.stat().mean(), 50.5);
  EXPECT_NEAR(histogram.Quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(histogram.Quantile(0.99), 99.0, 1.0);
  ASSERT_NE(metrics.find_histogram("latency"), nullptr);
  EXPECT_EQ(metrics.find_histogram("absent"), nullptr);
}

TEST(MetricsTest, ToJsonWalksNamesInSortedOrder) {
  MetricsRegistry metrics;
  metrics.counter("z.last").Increment(2);
  metrics.counter("a.first").Increment();
  metrics.gauge("m.level").Set(1.5);
  const std::string json = metrics.ToJson();
  EXPECT_EQ(json,
            R"({"counters":{"a.first":1,"z.last":2},"gauges":{"m.level":1.5},)"
            R"("histograms":{}})");
}

TEST(MetricsTest, HandlesRebindOnSetMetrics) {
  // A component counts into the registry only while one is attached: before
  // set_metrics and after set_metrics(nullptr) its handles hit the discard
  // sinks.
  Machine machine(0, 0, P4d24xlarge());
  CpuCheckpointStore store(machine);
  ASSERT_TRUE(store.HostOwner(0, 1000).ok());
  ShardedTrainer trainer(Gpt2_100B(), /*num_machines=*/1, /*payload_elements=*/8, /*seed=*/1);
  auto step_and_commit = [&] {
    trainer.Step();
    Checkpoint checkpoint = trainer.MakeCheckpoint(0);
    checkpoint.logical_bytes = 1000;
    ASSERT_TRUE(store.WriteComplete(std::move(checkpoint)).ok());
  };
  MetricsRegistry metrics;

  step_and_commit();
  store.set_metrics(&metrics);
  trainer.set_metrics(&metrics);
  step_and_commit();
  step_and_commit();
  store.set_metrics(nullptr);
  trainer.set_metrics(nullptr);
  step_and_commit();

  EXPECT_EQ(metrics.counter_value("trainer.steps"), 2);
  EXPECT_EQ(metrics.counter_value("cpu_store.commits"), 2);
  EXPECT_EQ(metrics.counter_value("cpu_store.bytes_committed"), 2 * 1000);
  EXPECT_EQ(trainer.iteration(), 4);
  EXPECT_EQ(store.LatestIteration(0), 4);
}

// ---------------------------------------------------------------------------
// RunTracer
// ---------------------------------------------------------------------------

TEST(RunTracerTest, RecordsEventsOnSimulatedTime) {
  Simulator sim;
  RunTracer tracer(sim);
  sim.ScheduleAt(Seconds(2), [&] { tracer.Event("tick", "test"); });
  sim.Run();
  ASSERT_EQ(tracer.records().size(), 1u);
  EXPECT_EQ(tracer.records()[0].start, Seconds(2));
  EXPECT_EQ(tracer.records()[0].kind, TraceRecordKind::kInstant);
}

TEST(RunTracerTest, SpansKeepDurationAndAttrs) {
  Simulator sim;
  RunTracer tracer(sim);
  tracer.Span("work", "test", Seconds(1), Seconds(3),
              {TraceAttr::Int("iteration", 7), TraceAttr::Text("source", "local")});
  const TraceRecord* record = tracer.Find("work");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->duration, Seconds(2));
  ASSERT_NE(record->FindAttr("iteration"), nullptr);
  EXPECT_EQ(record->FindAttr("iteration")->number, 7);
  ASSERT_NE(record->FindAttr("source"), nullptr);
  EXPECT_EQ(record->FindAttr("source")->text, "local");
  EXPECT_EQ(record->FindAttr("missing"), nullptr);
  EXPECT_EQ(tracer.CountNamed("work"), 1);
}

TEST(RunTracerTest, DisabledTracerDropsRecords) {
  Simulator sim;
  RunTracer tracer(sim);
  tracer.set_enabled(false);
  tracer.Event("dropped", "test");
  EXPECT_TRUE(tracer.records().empty());
}

TEST(RunTracerTest, ChromeTraceExportShape) {
  Simulator sim;
  RunTracer tracer(sim);
  tracer.Span("span", "rowA", Micros(1), Micros(3), {TraceAttr::Real("ratio", 0.5)});
  tracer.Event("instant", "rowB");
  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ratio\":0.5"), std::string::npos);
  // Balanced braces => parseable structure.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(RunTracerTest, JsonlExportOneRecordPerLine) {
  Simulator sim;
  RunTracer tracer(sim);
  tracer.Span("a", "t", 0, Seconds(1));
  tracer.Event("b", "t");
  const std::string jsonl = tracer.ToJsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  EXPECT_NE(jsonl.find("\"kind\":\"span\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"instant\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: GeminiSystem exports
// ---------------------------------------------------------------------------

GeminiConfig ObsConfig() {
  GeminiConfig config;
  config.model = Gpt2_100B();
  config.instance = P4d24xlarge();
  config.num_machines = 8;
  config.num_replicas = 2;
  config.payload_elements = 16;
  config.seed = 2024;
  config.cloud.num_standby = 2;
  return config;
}

struct RunExports {
  std::string chrome_trace;
  std::string jsonl;
  std::string metrics;
};

RunExports RunWithHardwareFailure() {
  GeminiSystem system(ObsConfig());
  EXPECT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(3), FailureType::kHardware, {6});
  const auto report = system.TrainUntil(6);
  EXPECT_TRUE(report.ok());
  RunExports exports;
  exports.chrome_trace = system.tracer().ToChromeTraceJson();
  exports.jsonl = system.tracer().ToJsonl();
  exports.metrics = system.metrics().ToJson();
  return exports;
}

TEST(ObsIntegrationTest, SameSeedRunsExportByteIdenticalArtifacts) {
  const RunExports first = RunWithHardwareFailure();
  const RunExports second = RunWithHardwareFailure();
  EXPECT_EQ(first.chrome_trace, second.chrome_trace)
      << "Chrome-trace export must be byte-identical across same-seed runs";
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.metrics, second.metrics);
  // Not trivially empty: the run recorded real spans and counters.
  EXPECT_NE(first.jsonl.find("\"name\":\"iteration\""), std::string::npos);
  EXPECT_NE(first.metrics.find("\"trainer.steps\""), std::string::npos);
}

TEST(ObsIntegrationTest, RecoverySpansReconcileWithRecoveryRecord) {
  GeminiSystem system(ObsConfig());
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(3), FailureType::kHardware, {6});
  const auto report = system.TrainUntil(6);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->recoveries.size(), 1u);
  const RecoveryRecord& record = report->recoveries[0];

  const RunTracer& tracer = system.tracer();
  // The failure->resume window appears as one "recovery" span whose timing
  // is the RecoveryRecord's, by construction.
  const TraceRecord* recovery = tracer.Find("recovery");
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(recovery->start, record.failure_detected_at);
  EXPECT_EQ(recovery->duration, record.downtime);
  ASSERT_NE(recovery->FindAttr("downtime_ns"), nullptr);
  EXPECT_EQ(recovery->FindAttr("downtime_ns")->number, record.downtime);
  ASSERT_NE(recovery->FindAttr("wasted_time_ns"), nullptr);
  EXPECT_EQ(recovery->FindAttr("wasted_time_ns")->number, record.wasted_time);
  ASSERT_NE(recovery->FindAttr("rollback_iteration"), nullptr);
  EXPECT_EQ(recovery->FindAttr("rollback_iteration")->number, record.rollback_iteration);
  ASSERT_NE(recovery->FindAttr("source"), nullptr);
  EXPECT_EQ(recovery->FindAttr("source")->text, RecoverySourceName(record.source));

  // Detection, retrieval, and resume all left their marks, in causal order
  // and inside the recovery window.
  const TraceRecord* detected = tracer.Find("failure_detected");
  ASSERT_NE(detected, nullptr);
  EXPECT_EQ(detected->start, record.failure_detected_at);
  const TraceRecord* retrieval = tracer.Find("retrieval");
  ASSERT_NE(retrieval, nullptr);
  EXPECT_GE(retrieval->start, record.failure_detected_at);
  EXPECT_LE(retrieval->start + retrieval->duration, record.training_resumed_at);
  const TraceRecord* resumed = tracer.Find("training_resumed");
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->start, record.training_resumed_at);

  // Metrics agree with the report.
  const MetricsRegistry& metrics = system.metrics();
  EXPECT_EQ(metrics.counter_value("system.recoveries"), 1);
  EXPECT_EQ(metrics.counter_value("system.recoveries.remote_cpu"),
            record.source == RecoverySource::kRemoteCpuMemory ? 1 : 0);
  EXPECT_EQ(metrics.counter_value("system.failures_detected"), 1);
  EXPECT_EQ(metrics.counter_value("injector.failures_injected"), 1);
  EXPECT_EQ(metrics.counter_value("cloud.replacements"), 1);
  EXPECT_EQ(metrics.counter_value("cloud.standby_activations"), 1);
  EXPECT_GE(metrics.counter_value("agent.heartbeat_misses"), 1);
  EXPECT_EQ(metrics.counter_value("trainer.restores"), 1);
  const Histogram* downtime = metrics.find_histogram("system.recovery.downtime_seconds");
  ASSERT_NE(downtime, nullptr);
  EXPECT_EQ(downtime->count(), 1);
  EXPECT_DOUBLE_EQ(downtime->stat().mean(), static_cast<double>(record.downtime) / 1e9);
}

TEST(ObsIntegrationTest, FailureFreeRunHasNoRecoveryRecords) {
  GeminiSystem system(ObsConfig());
  ASSERT_TRUE(system.Initialize().ok());
  ASSERT_TRUE(system.TrainUntil(4).ok());
  EXPECT_EQ(system.tracer().CountNamed("recovery"), 0);
  EXPECT_EQ(system.tracer().CountNamed("failure_detected"), 0);
  EXPECT_EQ(system.tracer().CountNamed("iteration"), 4);
  EXPECT_EQ(system.metrics().counter_value("system.recoveries"), 0);
  // The KV store elected a leader and proposals flowed (agent heartbeats).
  EXPECT_GE(system.metrics().counter_value("kv.elections_won"), 1);
  EXPECT_GT(system.metrics().counter_value("kv.proposals"), 0);
}

}  // namespace
}  // namespace gemini
