// The benchmark's workloads: GeminiSystem configurations plus the failure
// schedule each run injects, all derived from the workload name and seed.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/gemini/gemini_system.h"

namespace perfbench {

// One scheduled failure. Times are absolute simulated times; `rank` -1 means
// "a uniformly random alive machine at the moment it fires".
struct PlannedFailure {
  gemini::TimeNs at = 0;
  gemini::FailureType type = gemini::FailureType::kSoftware;
  int rank = -1;
};

struct Workload {
  gemini::GeminiConfig config;
  // Failures are placed in iterations when `failure_at_iterations` >= 0 (the
  // time is only known once the schedule is planned), else by `failures`.
  double failure_at_iterations = -1.0;
  int failure_rank = -1;
  std::vector<PlannedFailure> failures;
  // Training runs to `target_iterations`, or, when `horizon` > 0, to the
  // first iteration boundary past the failure horizon (whichever is larger).
  int64_t target_iterations = 0;
  gemini::TimeNs horizon = 0;
  // Seeds the victim choice of rank -1 failures.
  uint64_t victim_seed = 0;
};

gemini::StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// The iteration count a run of `workload` trains to, given the planned
// iteration time.
int64_t TargetIterations(const Workload& workload, gemini::TimeNs iteration_time);

// The failure schedule with iteration-relative entries resolved.
std::vector<PlannedFailure> ResolveFailures(const Workload& workload,
                                            gemini::TimeNs iteration_time);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
