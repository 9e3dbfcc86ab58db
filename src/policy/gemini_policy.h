// The paper's strategy, extracted behind the policy seam: CPU-memory
// checkpoints every interval (Algorithm 2 traffic inside idle spans),
// hours-scale persistent checkpoints, and the Section 6.2 recovery chains.
//
// Every decision reproduces the pre-refactor GeminiSystem conditions exactly
// — same stage/commit predicates, same commit instant, same fallback order —
// so default-config runs stay byte-identical (fig07/09/14 acceptance).
#ifndef SRC_POLICY_GEMINI_POLICY_H_
#define SRC_POLICY_GEMINI_POLICY_H_

#include "src/policy/protection_policy.h"

namespace gemini {

class GeminiPolicy : public ProtectionPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kGemini; }
  std::string_view name() const override { return "gemini"; }
  bool uses_cpu_checkpoints() const override { return true; }

  IterationPlan PlanIteration(PolicyHost& host, int64_t iteration) override;
  TimeNs PersistentInterval(const PolicyHost& host) const override;
  TimeNs RecoverySerializationTime(const PolicyHost& host) const override;
  RecoveryPlan BuildRecoveryPlan(const RecoverySituation& situation) const override;
  PolicyCostReport CostReport(const PolicyHost& host) const override;
};

}  // namespace gemini

#endif  // SRC_POLICY_GEMINI_POLICY_H_
