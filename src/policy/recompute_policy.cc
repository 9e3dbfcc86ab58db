#include "src/policy/recompute_policy.h"

namespace gemini {

IterationPlan RecomputePolicy::PlanIteration(PolicyHost& host, int64_t iteration) {
  (void)iteration;
  // Nothing is captured, staged, or committed: pure baseline iterations.
  IterationPlan plan;
  plan.iteration_duration = host.execution().baseline_iteration_time;
  return plan;
}

TimeNs RecomputePolicy::PersistentInterval(const PolicyHost& host) const {
  (void)host;
  // Checkpoint-free by definition; <= 0 disables the persistent cadence.
  return 0;
}

TimeNs RecomputePolicy::RecoverySerializationTime(const PolicyHost& host) const {
  (void)host;
  return 0;
}

RecoveryPlan RecomputePolicy::BuildRecoveryPlan(const RecoverySituation& situation) const {
  // Rebuild in place from peer redundancy; only a full-group loss (no peers
  // hold the needed redundancy) degrades to the persistent seed.
  RecoveryPlan plan;
  if (situation.peer_recoverable) {
    plan.push_back(RecoverySource::kPeerRecompute);
  }
  plan.push_back(RecoverySource::kPersistentStorage);
  return plan;
}

PolicyCostReport RecomputePolicy::CostReport(const PolicyHost& host) const {
  (void)host;
  PolicyCostReport report;
  report.steady_state_overhead_fraction = 0.0;
  report.expected_rollback_iterations = 0.0;
  return report;
}

}  // namespace gemini
