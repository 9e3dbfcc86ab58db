// Shared helpers for the figure/table reproduction benches.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "src/baselines/system_model.h"
#include "src/cluster/instance_spec.h"
#include "src/common/json_writer.h"
#include "src/common/table_printer.h"
#include "src/obs/metrics.h"
#include "src/schedule/executor.h"
#include "src/training/model_config.h"
#include "src/training/timeline.h"

namespace gemini {
namespace bench {

// The paper's primary setting: 16x p4d.24xlarge.
inline constexpr int kPaperMachines = 16;

inline TimelineParams P4dTimeline(const ModelConfig& model, int machines = kPaperMachines) {
  TimelineParams params;
  params.model = model;
  params.instance = P4d24xlarge();
  params.num_machines = machines;
  return params;
}

inline TimelineParams P3dnTimeline(const ModelConfig& model, int machines = kPaperMachines) {
  TimelineParams params;
  params.model = model;
  params.instance = P3dn24xlarge();
  params.num_machines = machines;
  return params;
}

inline ExecutorParams GeminiExecutor(const TimelineParams& timeline, int replicas = 2) {
  ExecutorParams params;
  params.timeline = timeline;
  params.scheme = InterleaveScheme::kPipelined;
  params.num_replicas = replicas;
  return params;
}

// Workload for the analytic system models, derived from the executor run.
inline CheckpointWorkload MakeWorkload(const TimelineParams& timeline,
                                       const ExecutionResult& execution, int replicas = 2) {
  CheckpointWorkload workload;
  workload.iteration_time = execution.baseline_iteration_time;
  workload.checkpoint_bytes_per_machine =
      timeline.model.CheckpointBytesPerMachine(timeline.num_machines);
  workload.num_machines = timeline.num_machines;
  workload.num_replicas = replicas;
  workload.nic_bandwidth = timeline.instance.network_bandwidth;
  workload.comm_alpha = timeline.comm_alpha;
  return workload;
}

inline void PrintHeader(const std::string& title, const std::string& paper_reference) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s)\n", paper_reference.c_str());
  std::printf("================================================================\n");
}

// Machine-readable bench reporting. A bench constructs one reporter, renders
// its tables through it, registers the headline metrics of its figure, states
// the shape check, and returns Finish() from main(). Besides the familiar
// stdout rendering this writes BENCH_<name>.json next to the sources (repo
// root; override the directory with $GEMINI_BENCH_OUT_DIR) so scripted
// comparisons across commits read numbers instead of scraping tables.
class BenchReporter {
 public:
  BenchReporter(std::string name, std::string title, std::string paper_reference)
      : name_(std::move(name)), title_(std::move(title)), reference_(paper_reference) {
    PrintHeader(title_, paper_reference);
  }

  // Renders a table to stdout (same look as before; kept on the reporter so
  // the human and machine outputs stay side by side at the call site).
  void Table(const TablePrinter& table) { table.Print(std::cout); }

  void Metric(const std::string& key, double value) {
    metrics_[key] = JsonWriter::FormatDouble(value);
  }
  void Metric(const std::string& key, int64_t value) {
    metrics_[key] = std::to_string(value);
  }

  // Registers a histogram's distribution under `key`: count plus mean and the
  // p50/p95/p99 quantiles ("<key>.count", "<key>.mean", "<key>.p50", ...) —
  // reports carry tail behaviour, not just means.
  void HistogramMetric(const std::string& key, const Histogram& histogram) {
    Metric(key + ".count", histogram.count());
    Metric(key + ".mean", histogram.stat().mean());
    Metric(key + ".p50", histogram.Quantile(0.5));
    Metric(key + ".p95", histogram.Quantile(0.95));
    Metric(key + ".p99", histogram.Quantile(0.99));
  }

  // Records the pass/fail verdict and prints the standard shape-check line.
  // `claim` is the one-paragraph statement of what the figure shows.
  void ShapeCheck(bool pass, const std::string& claim) {
    pass_ = pass;
    std::cout << "\nShape check: " << (pass ? "PASS" : "FAIL") << " — " << claim << "\n";
  }

  // Writes BENCH_<name>.json and returns the process exit code.
  int Finish() const {
    JsonWriter json(/*indent=*/2);
    json.BeginObject();
    json.Key("bench").Value(name_);
    json.Key("title").Value(title_);
    json.Key("reference").Value(reference_);
    json.Key("pass").Value(pass_);
    json.Key("metrics").BeginObject();
    for (const auto& [key, raw] : metrics_) {
      json.Key(key).RawValue(raw);
    }
    json.EndObject();
    json.EndObject();
    const std::string path = OutDir() + "/BENCH_" + name_ + ".json";
    const Status written = WriteTextFile(path, json.str());
    if (!written.ok()) {
      std::cerr << "bench report write failed: " << written << "\n";
      return 1;
    }
    std::cout << "Report: " << path << "\n";
    return pass_ ? 0 : 1;
  }

  // "GPT-2 100B" -> "gpt2_100b": lowercase, runs of non-alphanumerics
  // collapse to single underscores, so metric keys stay dotted-lowercase.
  static std::string MetricKey(const std::string& text) {
    std::string key;
    for (const char c : text) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        key.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      } else if (!key.empty() && key.back() != '_') {
        key.push_back('_');
      }
    }
    while (!key.empty() && key.back() == '_') {
      key.pop_back();
    }
    return key;
  }

 private:
  static std::string OutDir() {
    if (const char* dir = std::getenv("GEMINI_BENCH_OUT_DIR"); dir != nullptr && *dir != '\0') {
      return dir;
    }
#ifdef GEMINI_REPO_ROOT
    return GEMINI_REPO_ROOT;
#else
    return ".";
#endif
  }

  std::string name_;
  std::string title_;
  std::string reference_;
  bool pass_ = false;
  // Values are pre-rendered JSON literals, keyed in sorted order for
  // deterministic files.
  std::map<std::string, std::string> metrics_;
};

// Registers one executor run under `prefix`: times as integer nanoseconds
// (exact, so a report moves with any change to the walk), flags as 0/1.
inline void ReportExecution(BenchReporter& reporter, const std::string& prefix,
                            const ExecutionResult& result) {
  reporter.Metric(prefix + ".status_ok", static_cast<int64_t>(result.status.ok()));
  reporter.Metric(prefix + ".baseline_iteration_ns", result.baseline_iteration_time);
  reporter.Metric(prefix + ".iteration_ns", result.iteration_time);
  reporter.Metric(prefix + ".checkpoint_network_done_ns", result.checkpoint_network_done);
  reporter.Metric(prefix + ".checkpoint_done_ns", result.checkpoint_done);
  reporter.Metric(prefix + ".checkpoint_within_iteration",
                  static_cast<int64_t>(result.checkpoint_within_iteration));
  reporter.Metric(prefix + ".overhead_fraction", result.overhead_fraction);
  reporter.Metric(prefix + ".required_buffer_per_gpu_bytes", result.required_buffer_per_gpu);
  reporter.Metric(prefix + ".fits_within_idle_time",
                  static_cast<int64_t>(result.partition.fits_within_idle_time));
  reporter.Metric(prefix + ".chunks", static_cast<int64_t>(result.partition.chunks.size()));
  reporter.Metric(prefix + ".planned_transmission_ns",
                  result.partition.planned_transmission_time);
}

}  // namespace bench
}  // namespace gemini

#endif  // BENCH_BENCH_UTIL_H_
