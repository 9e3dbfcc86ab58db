#include "src/policy/recompute_policy.h"

#include "src/common/calibration.h"

namespace gemini {

IterationPlan RecomputePolicy::PlanIteration(PolicyHost& host, int64_t iteration,
                                             bool has_staged_block) {
  (void)iteration;
  (void)has_staged_block;
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

RecoveryPlan RecomputePolicy::BuildRecoveryPlan(const PolicyHost& host,
                                                const RecoverySituation& situation) const {
  (void)host;
  // Rebuild in place from peer redundancy; only a full-group loss (no peers
  // hold the needed redundancy) degrades to the persistent seed.
  RecoveryPlan plan;
  if (situation.peer_recoverable) {
    RecoveryStep recompute;
    recompute.source = RecoverySource::kPeerRecompute;
    recompute.recompute_iterations = kRecomputeIterations;
    plan.steps.push_back(recompute);
  }
  plan.steps.push_back({RecoverySource::kPersistentStorage});
  return plan;
}

PolicyCostReport RecomputePolicy::CostReport(const PolicyHost& host) const {
  PolicyCostReport report;
  report.steady_state_overhead_fraction = 0.0;
  // Recompute moves no checkpoint bytes; its recovery bill is compute time.
  report.expected_recovery_fetch_time = static_cast<TimeNs>(
      kRecomputeIterations * static_cast<double>(host.execution().baseline_iteration_time));
  report.expected_rollback_iterations = 0.0;
  return report;
}

}  // namespace gemini
