#include "src/policy/tiercheck_policy.h"

#include <algorithm>

#include "src/policy/cost_model.h"

namespace gemini {

IterationPlan TierCheckPolicy::PlanIteration(PolicyHost& host, int64_t iteration,
                                             bool has_staged_block) {
  (void)has_staged_block;
  // The CPU tier runs exactly GEMINI's block structure; the split is all in
  // the persistent cadence.
  const int interval = host.checkpoint_interval_iterations();
  IterationPlan plan;
  plan.stage_snapshot = iteration % interval == 0;
  plan.commit_staged = host.num_replicas() >= 1 && iteration % interval == interval - 1;
  plan.commit_delay =
      std::min(host.execution().checkpoint_done, host.execution().iteration_time);
  plan.iteration_duration = host.execution().iteration_time;
  return plan;
}

TimeNs TierCheckPolicy::PersistentInterval(const PolicyHost& host) const {
  // The requested cadence, stretched (never shrunk) until the serialization
  // stall it implies stays under the overhead budget.
  const TimeNs stall =
      SerializationStall(host.replica_bytes(), host.serialization_bandwidth());
  const TimeNs budgeted = BudgetedInterval(stall, options_.overhead_budget,
                                           options_.persistent_interval,
                                           host.execution().iteration_time);
  return std::max(options_.persistent_interval, budgeted);
}

TimeNs TierCheckPolicy::RecoverySerializationTime(const PolicyHost& host) const {
  return host.num_replicas() *
         TransferTime(host.replica_bytes(), host.serialization_bandwidth());
}

RecoveryPlan TierCheckPolicy::BuildRecoveryPlan(const PolicyHost& host,
                                                const RecoverySituation& situation) const {
  (void)host;
  // Same chains as GEMINI — the persistent fallback is simply much fresher.
  RecoveryPlan plan;
  if (situation.type == FailureType::kSoftware) {
    plan.steps.push_back({RecoverySource::kLocalCpuMemory});
  } else if (situation.peer_recoverable) {
    plan.steps.push_back({RecoverySource::kRemoteCpuMemory});
  }
  plan.steps.push_back({RecoverySource::kPersistentStorage});
  return plan;
}

PolicyCostReport TierCheckPolicy::CostReport(const PolicyHost& host) const {
  PolicyCostReport report;
  const TimeNs stall =
      SerializationStall(host.replica_bytes(), host.serialization_bandwidth());
  const TimeNs interval = PersistentInterval(host);
  // CPU-tier overhead (Algorithm 2) plus the amortized persistent stall.
  report.steady_state_overhead_fraction =
      host.execution().overhead_fraction +
      static_cast<double>(stall) / static_cast<double>(std::max<TimeNs>(1, interval));
  report.expected_recovery_fetch_time =
      TransferTime(host.replica_bytes(), host.network_bandwidth());
  report.expected_rollback_iterations =
      static_cast<double>(host.checkpoint_interval_iterations()) / 2.0;
  return report;
}

}  // namespace gemini
