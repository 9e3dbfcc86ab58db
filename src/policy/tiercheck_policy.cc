#include "src/policy/tiercheck_policy.h"

#include <algorithm>

#include "src/common/calibration.h"
#include "src/policy/cost_model.h"

namespace gemini {

TimeNs TierCheckPolicy::PersistentInterval(const PolicyHost& host) const {
  // The requested cadence, stretched (never shrunk) until the serialization
  // stall it implies stays under the overhead budget.
  const TimeNs stall = SerializationStall(host.replica_bytes(), kSerializationBandwidth);
  const TimeNs budgeted =
      BudgetedInterval(stall, kCheckFreqOverheadBudget, kTierCheckPersistentInterval,
                       host.execution().iteration_time);
  return std::max(kTierCheckPersistentInterval, budgeted);
}

PolicyCostReport TierCheckPolicy::CostReport(const PolicyHost& host) const {
  PolicyCostReport report;
  const TimeNs stall = SerializationStall(host.replica_bytes(), kSerializationBandwidth);
  const TimeNs interval = PersistentInterval(host);
  // CPU-tier overhead (Algorithm 2) plus the amortized persistent stall.
  report.steady_state_overhead_fraction =
      host.execution().overhead_fraction +
      static_cast<double>(stall) / static_cast<double>(std::max<TimeNs>(1, interval));
  report.expected_rollback_iterations =
      static_cast<double>(host.checkpoint_interval_iterations()) / 2.0;
  return report;
}

}  // namespace gemini
