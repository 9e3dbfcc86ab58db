// Self-test of the benchmark's own arithmetic: layer self times over nested
// spans (children subtracted, overlapping children counted once, children
// clipped to their parent, other run ids ignored), span nesting, quantiles,
// and metric-name / unit emission in the table and the result JSON.
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "perfbench/report.h"
#include "perfbench/span_trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("selftest FAILED: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

perfbench::Span MakeSpan(const char* name, const char* layer, int64_t start, int64_t end,
                         int parent, int run_id = 1) {
  perfbench::Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  span.run_id = run_id;
  return span;
}

void TestSelfTime() {
  perfbench::SpanRecorder recorder;
  // root [0,100] x; children b [10,40] y and c [30,60] y overlap (union 50);
  // d [90,120] z sticks out of the root (10 ns inside it); e [15,20] x under b.
  const int root = recorder.Add(MakeSpan("root", "x", 0, 100, -1));
  const int b = recorder.Add(MakeSpan("b", "y", 10, 40, root));
  recorder.Add(MakeSpan("c", "y", 30, 60, root));
  recorder.Add(MakeSpan("d", "z", 90, 120, root));
  recorder.Add(MakeSpan("e", "x", 15, 20, b));
  // Another run id never counts.
  recorder.Add(MakeSpan("other", "x", 0, 1000, -1, /*run_id=*/2));
  const auto self = perfbench::LayerSelfSeconds(recorder.spans(), 1);
  Expect(Near(self.at("x"), 45e-9), "x = root 100-50-10 plus e 5 = 45 ns");
  Expect(Near(self.at("y"), 55e-9), "y = b 30-5 plus c 30 = 55 ns");
  Expect(Near(self.at("z"), 30e-9), "z = d 30 ns (its own duration)");
  Expect(self.size() == 3, "exactly three layers");
  const auto durations = perfbench::SpanDurationsMs(recorder.spans(), 1, "b");
  Expect(durations.size() == 1 && Near(durations[0], 30e-6), "duration of b is 30 ns");
}

void TestRecorderNesting() {
  perfbench::SpanRecorder recorder;
  recorder.set_run_id(7);
  {
    perfbench::SpanRecorder::Scope outer(recorder, "outer", "a");
    perfbench::SpanRecorder::Scope inner(recorder, "inner", "b");
  }
  { perfbench::SpanRecorder::Scope sibling(recorder, "sibling", "a"); }
  const auto& spans = recorder.spans();
  Expect(spans.size() == 3, "three spans recorded");
  Expect(spans[0].parent == -1 && spans[1].parent == 0 && spans[2].parent == -1,
         "parents follow the open-span stack");
  Expect(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns,
         "inner span lies inside outer");
  Expect(spans[0].run_id == 7, "spans carry the run id");
  const auto self = perfbench::LayerSelfSeconds(spans, 7);
  Expect(self.at("a") >= 0.0 && self.at("b") >= 0.0, "self times are non-negative");
  const std::string trace = perfbench::ChromeTraceJson(spans);
  Expect(trace.find("\"traceEvents\"") != std::string::npos &&
             trace.find("\"name\":\"inner\",\"cat\":\"b\",\"ph\":\"X\"") != std::string::npos &&
             trace.find("\"parent\":0") != std::string::npos,
         "Chrome trace names each span with its layer and parent");
}

void TestQuantiles() {
  Expect(Near(perfbench::Median({4, 1, 3, 2}), 2.5), "median of 1..4 is 2.5");
  std::vector<double> eleven;
  for (int i = 1; i <= 11; ++i) {
    eleven.push_back(i);
  }
  Expect(Near(perfbench::Quantile(eleven, 0.9), 10.0), "p90 of 1..11 is 10");
  Expect(Near(perfbench::Quantile({}, 0.5), 0.0), "empty quantile is 0");
}

void TestEmission() {
  perfbench::MetricSet metrics;
  metrics.Set("run_wall_s", 1.25, "s");
  metrics.Set("kvstore.proposals", 3, "count");
  metrics.Set("run_wall_s", 1.5, "s");  // Replaces, keeps one entry.
  std::ostringstream table;
  metrics.PrintTable(table);
  Expect(table.str().find("run_wall_s") != std::string::npos &&
             table.str().find("1.5  s\n") != std::string::npos &&
             table.str().find("count") != std::string::npos,
         "table rows carry name, value and unit");
  std::string json;
  Expect(perfbench::ResultJson(true, 4, 0, metrics, {"run_wall_s", "kvstore.proposals"}, json),
         "result JSON for present metrics");
  Expect(json ==
             "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": "
             "{\"run_wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, "
             "\"kvstore.proposals\": {\"value\": 3, \"unit\": \"count\"}}}",
         "result JSON layout: " + json);
  Expect(!perfbench::ResultJson(true, 1, 0, metrics, {"missing"}, json) && json.empty(),
         "a missing metric is refused");
  metrics.Set("bad", std::numeric_limits<double>::quiet_NaN(), "s");
  Expect(!perfbench::ResultJson(true, 1, 0, metrics, {"bad"}, json), "a NaN metric is refused");
}

}  // namespace

int main() {
  TestSelfTime();
  TestRecorderNesting();
  TestQuantiles();
  TestEmission();
  if (failures == 0) {
    std::printf("selftest passed\n");
  }
  return failures == 0 ? 0 : 1;
}
