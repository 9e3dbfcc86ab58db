#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"

namespace perfbench {

using gemini::FailureType;
using gemini::TimeNs;

namespace {

// Shared shape: GPT-2 100B on p4d.24xlarge, two replicas, everything inline
// on one host thread.
gemini::GeminiConfig BaseConfig(uint64_t seed) {
  gemini::GeminiConfig config;
  config.model = gemini::Gpt2_100B();
  config.instance = gemini::P4d24xlarge();
  config.num_replicas = 2;
  config.pipeline_threads = 1;
  config.seed = seed;
  return config;
}

// 256 machines with a tiny payload: the KV store and the agents do nearly
// all the host work. One hardware failure on one rank at 2.5 iterations.
Workload CtrlScale(uint64_t seed) {
  Workload workload;
  workload.config = BaseConfig(seed);
  workload.config.num_machines = 256;
  workload.config.payload_elements = 64;
  workload.config.kv_server_count = 3;
  workload.config.cloud.num_standby = 1;
  workload.failure_at_iterations = 2.5;
  // A worker rank that hosts no KV server, so every seed does the same
  // control-plane work (no leader failover).
  gemini::Rng rng(seed ^ 0x637472ULL);
  workload.failure_rank = static_cast<int>(rng.UniformInt(8, 255));
  // Enough iterations that the one recovery is under 5% of the host-latency
  // samples, so p90 stays among steady-state iterations.
  workload.target_iterations = 30;
  return workload;
}

// 16 machines with 4 MiB shards, dense updates, full snapshots and no
// failures: the trainer, the capture copy + CRC and the CPU stores dominate.
Workload DatapathDense(uint64_t seed) {
  Workload workload;
  workload.config = BaseConfig(seed);
  workload.config.num_machines = 16;
  workload.config.payload_elements = 1 << 20;
  workload.target_iterations = 40;
  return workload;
}

// 64 machines, sparse updates through the delta write path, and a failure
// storm of 1 failure per machine-day (70% software) until the horizon. The
// arrivals are a Poisson process conditioned on its count: the count is
// fixed, the seed draws times, victims and the order of the failure types,
// so every seed does a comparable amount of recovery work.
Workload RecoveryStorm(uint64_t seed) {
  Workload workload;
  workload.config = BaseConfig(seed);
  workload.config.num_machines = 64;
  workload.config.payload_elements = 65536;
  workload.config.incremental.enabled = true;
  workload.config.incremental.sparse_update_fraction = 0.25;
  workload.config.incremental.chunk_elements = 1024;
  workload.config.kv_server_count = 5;
  workload.config.cloud.num_standby = 2;
  workload.horizon = gemini::Hours(3) + gemini::Minutes(20);
  workload.victim_seed = seed ^ 0x76696374ULL;

  constexpr double kRatePerMachineDay = 1.0;
  constexpr double kSoftwareFraction = 0.7;
  const double expected = kRatePerMachineDay * workload.config.num_machines *
                          static_cast<double>(workload.horizon) /
                          static_cast<double>(gemini::Hours(24));
  const int count = static_cast<int>(std::lround(expected));
  const int software = static_cast<int>(std::lround(kSoftwareFraction * count));
  gemini::Rng rng(seed ^ 0x73746f726dULL);
  std::vector<FailureType> types(static_cast<size_t>(count), FailureType::kHardware);
  std::fill_n(types.begin(), software, FailureType::kSoftware);
  rng.Shuffle(types);
  // Arrivals start once the agents' health keys are authoritative.
  const TimeNs first = gemini::Minutes(2);
  std::vector<TimeNs> times;
  for (int i = 0; i < count; ++i) {
    times.push_back(first + static_cast<TimeNs>(rng.NextDouble() *
                                                static_cast<double>(workload.horizon - first)));
  }
  std::sort(times.begin(), times.end());
  for (int i = 0; i < count; ++i) {
    workload.failures.push_back(
        PlannedFailure{times[static_cast<size_t>(i)], types[static_cast<size_t>(i)], -1});
  }
  return workload;
}

}  // namespace

gemini::StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "ctrl_scale") {
    return CtrlScale(seed);
  }
  if (name == "datapath_dense") {
    return DatapathDense(seed);
  }
  if (name == "recovery_storm") {
    return RecoveryStorm(seed);
  }
  return gemini::InvalidArgumentError("unknown workload '" + name +
                                      "' (expected ctrl_scale, datapath_dense or recovery_storm)");
}

int64_t TargetIterations(const Workload& workload, TimeNs iteration_time) {
  int64_t target = workload.target_iterations;
  if (workload.horizon > 0 && iteration_time > 0) {
    target = std::max<int64_t>(target, workload.horizon / iteration_time + 1);
  }
  return target;
}

std::vector<PlannedFailure> ResolveFailures(const Workload& workload, TimeNs iteration_time) {
  std::vector<PlannedFailure> failures = workload.failures;
  if (workload.failure_at_iterations >= 0.0) {
    failures.push_back(PlannedFailure{
        static_cast<TimeNs>(workload.failure_at_iterations * static_cast<double>(iteration_time)),
        FailureType::kHardware, workload.failure_rank});
  }
  return failures;
}

}  // namespace perfbench
