// Checkmate-style network gradient replication (PAPERS.md).
//
// Instead of checkpointing model states, every iteration's gradients are
// logged to peer machines, riding the backward pass's existing collective
// traffic — a near-zero steady-state tax. Recovery restores the latest
// persistent base checkpoint and deterministically replays the logged
// gradients forward to the failure iteration: no progress is ever rolled
// back, at the price of replay time proportional to the log length.
#ifndef SRC_POLICY_CHECKMATE_POLICY_H_
#define SRC_POLICY_CHECKMATE_POLICY_H_

#include "src/policy/protection_policy.h"

namespace gemini {

class CheckmatePolicy : public ProtectionPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kCheckmate; }
  std::string_view name() const override { return "checkmate"; }
  bool uses_cpu_checkpoints() const override { return false; }

  void Activate(PolicyHost& host) override;
  IterationPlan PlanIteration(PolicyHost& host, int64_t iteration) override;
  TimeNs PersistentInterval(const PolicyHost& host) const override;
  TimeNs RecoverySerializationTime(const PolicyHost& host) const override;
  RecoveryPlan BuildRecoveryPlan(const RecoverySituation& situation) const override;
  PolicyCostReport CostReport(const PolicyHost& host) const override;

 private:
  // Hot-path metric handles (resolved on Activate, per src/obs/metrics.h).
  Counter* gradient_bytes_counter_ = DiscardCounter();
  Counter* logged_iterations_counter_ = DiscardCounter();
};

}  // namespace gemini

#endif  // SRC_POLICY_CHECKMATE_POLICY_H_
