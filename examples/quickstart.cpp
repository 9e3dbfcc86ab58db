// Quickstart: train a large model with per-iteration in-memory checkpoints,
// inject a hardware failure, and watch GEMINI recover from a group peer's
// CPU memory in seconds instead of re-reading remote storage.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build --target quickstart
//   ./build/examples/quickstart
#include <cstdio>

#include "src/common/logging.h"
#include "src/gemini/gemini_system.h"

using namespace gemini;

int main() {
  SetLogLevel(LogLevel::kInfo);

  GeminiConfig config;
  config.model = Gpt2_100B();
  config.instance = P4d24xlarge();
  config.num_machines = 16;
  config.num_replicas = 2;   // One local + one group-peer replica.
  config.cloud.num_standby = 1;  // A standby machine makes replacement fast.

  GeminiSystem system(config);
  if (const Status status = system.Initialize(); !status.ok()) {
    std::fprintf(stderr, "initialize failed: %s\n", status.ToString().c_str());
    return 1;
  }

  const SystemSnapshot snapshot = system.Snapshot();
  std::printf("== GEMINI quickstart ==\n");
  std::printf("model:            %s\n", config.model.name.c_str());
  std::printf("cluster:          %d x %s\n", config.num_machines, config.instance.name.c_str());
  std::printf("placement:        %s, %d groups\n", snapshot.placement_strategy.c_str(),
              snapshot.num_placement_groups);
  std::printf("iteration time:   %s (baseline %s -> overhead %.2f%%)\n",
              FormatDuration(snapshot.iteration_time).c_str(),
              FormatDuration(snapshot.baseline_iteration_time).c_str(),
              snapshot.checkpoint_overhead_fraction * 100.0);
  std::printf("ckpt per machine: %s, transmission %s, fits in idle time: %s\n",
              FormatBytes(config.model.CheckpointBytesPerMachine(config.num_machines)).c_str(),
              FormatDuration(system.iteration_execution().partition.planned_transmission_time)
                  .c_str(),
              snapshot.checkpoint_fits_iteration ? "yes" : "no");

  // Kill one machine (hardware failure) two and a half iterations in.
  const TimeNs failure_at = system.iteration_execution().iteration_time * 5 / 2;
  system.failure_injector().InjectAt(failure_at, FailureType::kHardware, {5});

  const StatusOr<TrainingReport> report = system.TrainUntil(8);
  if (!report.ok()) {
    std::fprintf(stderr, "training failed: %s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("\n== results ==\n");
  std::printf("iterations completed: %lld\n",
              static_cast<long long>(report->iterations_completed));
  std::printf("wall time:            %s\n", FormatDuration(report->wall_time).c_str());
  std::printf("cpu checkpoints:      %lld\n",
              static_cast<long long>(system.Snapshot().cpu_checkpoints_committed));
  for (const RecoveryRecord& recovery : report->recoveries) {
    std::printf("recovery:             %s failure of %zu machine(s), source=%s,\n"
                "                      rolled back to iteration %lld, wasted %s, downtime %s\n",
                std::string(FailureTypeName(recovery.type)).c_str(),
                recovery.failed_ranks.size(),
                std::string(RecoverySourceName(recovery.source)).c_str(),
                static_cast<long long>(recovery.rollback_iteration),
                FormatDuration(recovery.wasted_time).c_str(),
                FormatDuration(recovery.downtime).c_str());
  }
  std::printf("effective ratio:      %.3f\n", report->effective_training_ratio());

  // The observability layer watched the whole run; dump the highlights.
  const SystemSnapshot after = system.Snapshot();
  std::printf("\n== observability ==\n");
  std::printf("recoveries:           %lld (local=%lld remote=%lld persistent=%lld)\n",
              static_cast<long long>(after.recoveries),
              static_cast<long long>(after.recoveries_from_local_cpu),
              static_cast<long long>(after.recoveries_from_remote_cpu),
              static_cast<long long>(after.recoveries_from_persistent));
  std::printf("trainer steps:        %lld\n",
              static_cast<long long>(system.metrics().counter_value("trainer.steps")));
  std::printf("store commits:        %lld\n",
              static_cast<long long>(system.metrics().counter_value("cpu_store.commits")));
  std::printf("trace records:        %zu (write a Chrome trace with\n"
              "                      system.tracer().WriteChromeTrace(\"run.trace.json\"))\n",
              system.tracer().records().size());
  return 0;
}
