// GeminiSystem benchmark: one workload per invocation.
//
//   perfbench --workload <ctrl_scale|datapath_dense|recovery_storm> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 runs the system untraced for about --seconds of host time and
// reports the end-to-end metrics; --trace 1 runs it once more for the
// per-layer counts, then replays each layer's load through its public entry
// points inside spans and reports the per-layer metrics (spans are written
// to --trace-out as Chrome-trace JSON). Either way the run's outputs are
// checked, and the last line of standard output is the result JSON:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 when any check failed, 2 on bad arguments.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "perfbench/end_to_end.h"
#include "perfbench/report.h"
#include "perfbench/traced_run.h"
#include "perfbench/workloads.h"
#include "src/common/logging.h"

namespace {

// The metrics BENCHMARK.json registers, in its order.
const std::vector<std::string> kEndToEndMetrics = {
    "setup_s", "run_wall_s", "host_ms_per_iter.p50", "peak_rss_mb", "effective_training_ratio",
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace-out") {
      args.trace_out = value;
      continue;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args.seconds > 0 &&
         (args.trace == 0 || args.trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  gemini::SetLogLevel(gemini::LogLevel::kError);
  // Pin glibc's mmap threshold where its dynamic adjustment tops out (32 MiB)
  // and keep freed heap memory for the next run. Left dynamic, the threshold
  // ratchets up with the sizes of the first large frees, so whether a run's
  // buffers came from warm heap pages or fresh mappings would depend on what
  // ran before it; pinned, every run after the first starts from a warm heap.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const gemini::StatusOr<perfbench::Workload> workload =
      perfbench::MakeWorkload(args.workload, args.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }

  perfbench::MetricSet metrics;
  perfbench::CheckLog checks;
  std::vector<std::string> names;
  std::cout << "workload " << args.workload << ", seed " << args.seed << ", trace "
            << args.trace << "\n";
  if (args.trace == 0) {
    perfbench::RunEndToEnd(*workload, args.seconds, metrics, checks, std::cout);
    names = kEndToEndMetrics;
  } else {
    const perfbench::SpanRecorder spans =
        perfbench::RunTraced(*workload, metrics, checks, std::cout);
    names = perfbench::PerLayerMetricNames();
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << perfbench::ChromeTraceJson(spans.spans());
      checks.Check(static_cast<bool>(out), "could not write the trace to " + args.trace_out);
    }
  }
  metrics.Set("ops_failed_ratio",
              checks.attempted() > 0
                  ? static_cast<double>(checks.failed()) / static_cast<double>(checks.attempted())
                  : 1.0,
              "ratio");
  metrics.PrintTable(std::cout);
  for (const std::string& failure : checks.failures()) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  const bool correct = checks.attempted() > 0 && checks.failed() == 0;
  std::string json;
  if (!perfbench::ResultJson(correct, checks.attempted(), checks.failed(), metrics, names, json)) {
    std::cout << "a registered metric is missing or not finite\n";
    return 1;
  }
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
