#include "src/policy/checkmate_policy.h"

#include "src/common/calibration.h"

namespace gemini {

void CheckmatePolicy::Activate(PolicyHost& host) {
  ProtectionPolicy::Activate(host);
  gradient_bytes_counter_ = &host.metrics().counter("policy.checkmate.gradient_bytes");
  logged_iterations_counter_ = &host.metrics().counter("policy.checkmate.logged_iterations");
}

IterationPlan CheckmatePolicy::PlanIteration(PolicyHost& host, int64_t iteration) {
  (void)iteration;
  // No CPU checkpoints: the iteration runs at the checkpoint-free baseline,
  // plus the small replication stall of shipping this iteration's gradients
  // to peers alongside the backward pass.
  IterationPlan plan;
  plan.iteration_duration = host.execution().baseline_iteration_time;
  plan.added_stall = static_cast<TimeNs>(
      kCheckmateStallFraction * static_cast<double>(plan.iteration_duration));
  const Bytes gradient_bytes = static_cast<Bytes>(
      kCheckmateGradientBytesFraction * static_cast<double>(host.replica_bytes()));
  gradient_bytes_counter_->Increment(gradient_bytes);
  logged_iterations_counter_->Increment();
  return plan;
}

TimeNs CheckmatePolicy::PersistentInterval(const PolicyHost& host) const {
  // The persistent base bounds the gradient log the replay must traverse;
  // the default hours-scale cadence is kept.
  return host.default_persistent_interval();
}

TimeNs CheckmatePolicy::RecoverySerializationTime(const PolicyHost& host) const {
  (void)host;
  // No in-memory replicas to serialize before recovery starts.
  return 0;
}

RecoveryPlan CheckmatePolicy::BuildRecoveryPlan(const RecoverySituation& situation) const {
  (void)situation;
  // Replay the logged gradients on top of the persistent base; if the log or
  // base is unusable, degrade to a plain persistent rollback.
  return {RecoverySource::kGradientReplay, RecoverySource::kPersistentStorage};
}

PolicyCostReport CheckmatePolicy::CostReport(const PolicyHost& host) const {
  (void)host;
  PolicyCostReport report;
  report.steady_state_overhead_fraction = kCheckmateStallFraction;
  // Replay lands exactly at the failure iteration: zero lost progress.
  report.expected_rollback_iterations = 0.0;
  return report;
}

}  // namespace gemini
