#include "src/policy/gemini_policy.h"

#include <algorithm>

#include "src/policy/cost_model.h"

namespace gemini {

IterationPlan GeminiPolicy::PlanIteration(PolicyHost& host, int64_t iteration) {
  // Checkpoint block structure (Section 5.3): stage at the start of a
  // k-iteration block, commit during the block's last iteration once the
  // Algorithm-2 transmission time has elapsed (never past iteration end).
  const int interval = host.checkpoint_interval_iterations();
  IterationPlan plan;
  plan.stage_snapshot = iteration % interval == 0;
  plan.commit_staged = host.num_replicas() >= 1 && iteration % interval == interval - 1;
  plan.commit_delay =
      std::min(host.execution().checkpoint_done, host.execution().iteration_time);
  plan.iteration_duration = host.execution().iteration_time;
  return plan;
}

TimeNs GeminiPolicy::PersistentInterval(const PolicyHost& host) const {
  return host.default_persistent_interval();
}

TimeNs GeminiPolicy::RecoverySerializationTime(const PolicyHost& host) const {
  return RecoverySerializationStall(host.num_replicas(), host.replica_bytes());
}

RecoveryPlan GeminiPolicy::BuildRecoveryPlan(const RecoverySituation& situation) const {
  // Section 6.2's cases, as fallback chains: software restores locally,
  // hardware case 1 fetches from group peers, and everything degrades to the
  // persistent tier (case 2, or any exhausted/corrupted chain above it).
  RecoveryPlan plan;
  if (situation.type == FailureType::kSoftware) {
    plan.push_back(RecoverySource::kLocalCpuMemory);
  } else if (situation.peer_recoverable) {
    plan.push_back(RecoverySource::kRemoteCpuMemory);
  }
  plan.push_back(RecoverySource::kPersistentStorage);
  return plan;
}

PolicyCostReport GeminiPolicy::CostReport(const PolicyHost& host) const {
  PolicyCostReport report;
  // Incremental delta checkpoints shrink the steady-state traffic to the
  // observed delta-to-full byte ratio (1.0 when the mode is off).
  report.steady_state_overhead_fraction =
      host.execution().overhead_fraction * host.incremental_delta_fraction();
  // CPU checkpoints land every interval; a uniform failure instant loses
  // half an interval on average.
  report.expected_rollback_iterations =
      static_cast<double>(host.checkpoint_interval_iterations()) / 2.0;
  return report;
}

}  // namespace gemini
