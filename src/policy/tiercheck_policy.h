// TierCheck: tiered CPU + persistent checkpointing with a frequency split.
//
// Keeps GEMINI's per-interval CPU-memory checkpoints (fast common-case
// recovery) and its recovery chains, but runs the persistent tier on a
// minutes-scale cadence instead of hours, so the worst-case rollback after a
// group loss is bounded by the tight persistent interval rather than by
// Figure 1's multi-hour gap. The price is paying the blocking serialization
// stall far more often; the cadence is stretched just enough to keep that
// stall under CheckFreq's overhead budget (priced through cost_model.h).
#ifndef SRC_POLICY_TIERCHECK_POLICY_H_
#define SRC_POLICY_TIERCHECK_POLICY_H_

#include "src/policy/gemini_policy.h"

namespace gemini {

class TierCheckPolicy : public GeminiPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kTierCheck; }
  std::string_view name() const override { return "tiercheck"; }

  TimeNs PersistentInterval(const PolicyHost& host) const override;
  PolicyCostReport CostReport(const PolicyHost& host) const override;
};

}  // namespace gemini

#endif  // SRC_POLICY_TIERCHECK_POLICY_H_
