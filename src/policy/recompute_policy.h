// Recompute-from-peers baseline ("All is Not Lost", PAPERS.md).
//
// No checkpoints at all: zero steady-state overhead. When a machine is
// lost, its model-state shard is rebuilt from the redundancy naturally
// present on peers (ZeRO's replicated optimizer inputs / layer-level
// activations), costing a fixed few iterations of recompute work. The
// fallback — when the whole redundancy group is gone — is a rollback to
// whatever the persistent tier last saw (the seed checkpoint, absent any
// other policy writing to it).
#ifndef SRC_POLICY_RECOMPUTE_POLICY_H_
#define SRC_POLICY_RECOMPUTE_POLICY_H_

#include "src/policy/protection_policy.h"

namespace gemini {

class RecomputePolicy : public ProtectionPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kRecompute; }
  std::string_view name() const override { return "recompute"; }
  bool uses_cpu_checkpoints() const override { return false; }

  IterationPlan PlanIteration(PolicyHost& host, int64_t iteration) override;
  TimeNs PersistentInterval(const PolicyHost& host) const override;
  TimeNs RecoverySerializationTime(const PolicyHost& host) const override;
  RecoveryPlan BuildRecoveryPlan(const RecoverySituation& situation) const override;
  PolicyCostReport CostReport(const PolicyHost& host) const override;
};

}  // namespace gemini

#endif  // SRC_POLICY_RECOMPUTE_POLICY_H_
