// Large-model training walkthrough: GPT-2 100B on 16x p4d.24xlarge, the
// paper's primary evaluation setting. Shows the full GEMINI pipeline —
// placement, profiling, Algorithm 2 scheduling — then trains through a
// software failure and a hardware failure and compares the measured wasted
// time against the Strawman and HighFreq baselines.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build --target large_model_training
//   ./build/examples/large_model_training
#include <cstdio>

#include "src/baselines/system_model.h"
#include "src/common/logging.h"
#include "src/common/table_printer.h"
#include "src/gemini/gemini_system.h"

using namespace gemini;

int main() {
  SetLogLevel(LogLevel::kInfo);

  GeminiConfig config;
  config.model = Gpt2_100B();
  config.instance = P4d24xlarge();
  config.num_machines = 16;
  config.num_replicas = 2;
  config.cloud.num_standby = 1;

  GeminiSystem system(config);
  if (const Status status = system.Initialize(); !status.ok()) {
    std::fprintf(stderr, "initialize failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // ---- Scheduling summary -------------------------------------------------
  const ExecutionResult& execution = system.iteration_execution();
  std::printf("== workload ==\n");
  std::printf("model states:         %s total, %s per machine\n",
              FormatBytes(config.model.CheckpointBytesTotal()).c_str(),
              FormatBytes(config.model.CheckpointBytesPerMachine(16)).c_str());
  std::printf("iteration time:       %s\n", FormatDuration(execution.iteration_time).c_str());
  std::printf("profiled idle spans:  %zu spans, normalized stddev %.1f%% (paper: <10%%)\n",
              system.profile().spans.size(),
              system.profile().max_normalized_stddev * 100.0);
  std::printf("checkpoint schedule:  %zu chunks, largest %s, transmission %s, fits: %s\n\n",
              execution.partition.chunks.size(),
              FormatBytes(execution.partition.max_chunk_bytes).c_str(),
              FormatDuration(execution.partition.planned_transmission_time).c_str(),
              execution.partition.fits_within_idle_time ? "yes" : "no");

  // ---- Train through two failures ------------------------------------------
  system.failure_injector().InjectAt(Minutes(3), FailureType::kSoftware, {11});
  system.failure_injector().InjectAt(Minutes(25), FailureType::kHardware, {4});
  const StatusOr<TrainingReport> report = system.TrainUntil(20);
  if (!report.ok()) {
    std::fprintf(stderr, "training failed: %s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("\n== training report ==\n");
  std::printf("iterations completed: %lld\n",
              static_cast<long long>(report->iterations_completed));
  std::printf("wall time:            %s\n", FormatDuration(report->wall_time).c_str());
  std::printf("cpu checkpoints:      %lld (one per iteration)\n",
              static_cast<long long>(system.Snapshot().cpu_checkpoints_committed));
  std::printf("effective ratio:      %.3f\n\n", report->effective_training_ratio());

  // ---- Wasted-time comparison ----------------------------------------------
  CheckpointWorkload workload;
  workload.iteration_time = execution.baseline_iteration_time;
  workload.checkpoint_bytes_per_machine = config.model.CheckpointBytesPerMachine(16);
  workload.num_machines = 16;
  const SystemModel strawman = BuildStrawman(workload);
  const SystemModel highfreq = BuildHighFreq(workload);

  TablePrinter table({"Failure", "Source", "GEMINI wasted", "HighFreq (model)",
                      "Strawman (model)", "Reduction vs HighFreq"});
  for (const RecoveryRecord& recovery : report->recoveries) {
    const double reduction = static_cast<double>(highfreq.AverageWastedTime()) /
                             static_cast<double>(std::max<TimeNs>(recovery.wasted_time, 1));
    table.AddRow({std::string(FailureTypeName(recovery.type)),
                  std::string(RecoverySourceName(recovery.source)),
                  FormatDuration(recovery.wasted_time),
                  FormatDuration(highfreq.AverageWastedTime()),
                  FormatDuration(strawman.AverageWastedTime()),
                  TablePrinter::Fmt(reduction, 0) + "x"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("The paper's headline: failure recovery more than 13x faster than the\n"
              "best remote-storage configuration, with zero training-throughput cost.\n");
  return 0;
}
