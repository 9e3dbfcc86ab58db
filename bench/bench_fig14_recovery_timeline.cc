// Figure 14: the anatomy of one failure recovery for GPT-2 100B on 16
// machines, measured end-to-end on the full system (agents, KV store, cloud
// operator, stores). Claims: detection ~15 s, checkpoint serialization
// ~162 s, machine replacement 4-7 min (or seconds with standby machines),
// restart warm-up >4 min; totalling ~7 min for software failures and
// ~12 min for hardware failures.
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench/bench_util.h"
#include "src/common/calibration.h"
#include "src/gemini/gemini_system.h"
#include "src/policy/cost_model.h"

using namespace gemini;

namespace {

struct Scenario {
  std::string name;
  FailureType type;
  int num_standby;
};

struct Measurement {
  TimeNs detection = 0;
  TimeNs downtime = 0;
  TimeNs wasted = 0;
  RecoverySource source = RecoverySource::kLocalCpuMemory;
  int64_t rollback = 0;
};

StatusOr<Measurement> RunScenario(const Scenario& scenario) {
  GeminiConfig config;
  config.model = Gpt2_100B();
  config.instance = P4d24xlarge();
  config.num_machines = 16;
  config.payload_elements = 16;
  config.cloud.num_standby = scenario.num_standby;
  GeminiSystem system(config);
  GEMINI_RETURN_IF_ERROR(system.Initialize());
  const TimeNs inject_at = Minutes(4);
  system.failure_injector().InjectAt(inject_at, scenario.type, {9});
  GEMINI_ASSIGN_OR_RETURN(const TrainingReport report, system.TrainUntil(8));
  if (report.recoveries.size() != 1) {
    return InternalError("expected exactly one recovery");
  }
  const RecoveryRecord& recovery = report.recoveries[0];
  Measurement measurement;
  measurement.detection = recovery.failure_detected_at - inject_at;
  measurement.downtime = recovery.downtime;
  measurement.wasted = recovery.wasted_time;
  measurement.source = recovery.source;
  measurement.rollback = recovery.rollback_iteration;
  return measurement;
}

}  // namespace

int main() {
  bench::BenchReporter reporter(
      "fig14_recovery_timeline",
      "Figure 14: failure recovery timeline (GPT-2 100B, 16x p4d)",
      "paper Figure 14 and Section 7.3 'Overheads incurred by failures'");

  // Each phase printed from the constant (or default) that defines it.
  const Bytes replica = Gpt2_100B().CheckpointBytesPerMachine(16);
  const AgentConfig agent;
  std::ostringstream warmup;
  warmup << std::fixed << std::setprecision(1) << ToSeconds(kRestartWarmup) / 60.0;
  std::cout << "Phase model (per failure):\n"
            << "  failure detection        ~"
            << (agent.health_lease_ttl + agent.root_scan_interval) / kSecond
            << " s   (heartbeat lease TTL + root scan)\n"
            << "  checkpoint serialization "
            << FormatDuration(2 * SerializationStall(replica, kSerializationBandwidth))
            << " (torch.save of 2 replicas; paper: 162 s)\n"
            << "  machine replacement      " << kProvisionDelayMin / kMinute << "-"
            << kProvisionDelayMax / kMinute << " min via ASG, ~"
            << kStandbyActivationDelay / kSecond << " s with standby\n"
            << "  restart warm-up          ~" << warmup.str() << " min\n\n";

  TablePrinter table({"Scenario", "Detection (s)", "Downtime (min)", "Wasted time",
                      "Recovery source"});
  bool pass = true;
  std::vector<double> downtimes;
  for (const Scenario& scenario :
       {Scenario{"software failure", FailureType::kSoftware, 0},
        Scenario{"hardware failure (ASG)", FailureType::kHardware, 0},
        Scenario{"hardware failure (standby)", FailureType::kHardware, 1}}) {
    const auto measurement = RunScenario(scenario);
    if (!measurement.ok()) {
      std::cerr << scenario.name << ": " << measurement.status() << "\n";
      return 1;
    }
    table.AddRow({scenario.name, TablePrinter::Fmt(ToSeconds(measurement->detection), 1),
                  TablePrinter::Fmt(ToSeconds(measurement->downtime) / 60.0),
                  FormatDuration(measurement->wasted),
                  std::string(RecoverySourceName(measurement->source))});
    const std::string key = bench::BenchReporter::MetricKey(scenario.name);
    reporter.Metric(key + ".detection_seconds", ToSeconds(measurement->detection));
    reporter.Metric(key + ".downtime_minutes", ToSeconds(measurement->downtime) / 60.0);
    reporter.Metric(key + ".wasted_seconds", ToSeconds(measurement->wasted));
    downtimes.push_back(ToSeconds(measurement->downtime) / 60.0);
    pass &= measurement->detection < Seconds(30);
    pass &= measurement->wasted <= Seconds(140);  // ~<2 iterations + retrieval.
  }
  reporter.Table(table);

  // Software ~7 min; hardware with ASG ~8-13 min; standby between.
  pass &= downtimes[0] > 5.5 && downtimes[0] < 8.5;
  pass &= downtimes[1] > downtimes[2];
  reporter.ShapeCheck(pass,
                      "~7 min total for software failures, ~12 min for hardware failures\n"
                      "via ASG, with standby machines removing most of the replacement wait;\n"
                      "the training-progress loss itself stays under two iterations.");
  return reporter.Finish();
}
