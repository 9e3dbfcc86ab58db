// Chameleon: online protection-policy selection.
//
// Owns one instance of every concrete policy and delegates the full
// ProtectionPolicy surface to the active one, re-evaluating the choice at
// fixed iteration intervals against three live signals:
//
//  * the auditor-observed failure rate (failures/hour over a sliding
//    window) — frequent failures buy GEMINI's fast in-memory recovery,
//    rare ones shed its overhead for Checkmate's near-free logging;
//  * growth of `system.redundancy.degraded_seconds` — when hardware churn
//    keeps the replica sets degraded, TierCheck's tight persistent cadence
//    bounds the exposure;
//  * growth of auditor-attributed interference inflation — when checkpoint
//    traffic is colliding with training, Checkmate removes the traffic.
//
// Rules are evaluated in that priority order every
// kChameleonDecisionIntervalIterations, with hysteresis (a minimum iteration
// gap between switches); the thresholds are the kChameleon* constants in
// src/common/calibration.h. All inputs are simulated-time
// deterministic, so same-seed runs switch at identical iterations.
#ifndef SRC_POLICY_CHAMELEON_SELECTOR_H_
#define SRC_POLICY_CHAMELEON_SELECTOR_H_

#include <array>
#include <memory>
#include <string>

#include "src/policy/protection_policy.h"

namespace gemini {

// One recorded switch, for tests, benches, and the trace timeline.
struct PolicySwitchEvent {
  int64_t iteration = 0;
  TimeNs at = 0;
  PolicyKind from = PolicyKind::kGemini;
  PolicyKind to = PolicyKind::kGemini;
  std::string reason;
};

class ChameleonSelector : public ProtectionPolicy {
 public:
  explicit ChameleonSelector(ChameleonOptions options);

  PolicyKind kind() const override { return PolicyKind::kChameleon; }
  std::string_view name() const override { return "chameleon"; }
  bool uses_cpu_checkpoints() const override { return active_->uses_cpu_checkpoints(); }

  void Activate(PolicyHost& host) override;
  IterationPlan PlanIteration(PolicyHost& host, int64_t iteration) override;
  TimeNs PersistentInterval(const PolicyHost& host) const override;
  TimeNs RecoverySerializationTime(const PolicyHost& host) const override;
  RecoveryPlan BuildRecoveryPlan(const RecoverySituation& situation) const override;
  PolicyCostReport CostReport(const PolicyHost& host) const override;

  const std::vector<PolicySwitchEvent>& switches() const { return switches_; }

 private:
  // Evaluates the switch rules at a decision boundary; swaps the active
  // policy (DiscardStagedBlock -> Activate) when one fires.
  void MaybeSwitch(PolicyHost& host, int64_t iteration);
  void SwitchTo(PolicyHost& host, PolicyKind want, std::string_view reason,
                int64_t iteration);
  ProtectionPolicy& policy_for(PolicyKind kind);

  std::array<std::unique_ptr<ProtectionPolicy>, 4> policies_;
  ProtectionPolicy* active_ = nullptr;
  std::vector<PolicySwitchEvent> switches_;
  int64_t last_switch_iteration_ = 0;
  bool switched_yet_ = false;
  // Signal levels sampled at the previous decision, for growth deltas.
  double degraded_seen_ = 0.0;
  TimeNs inflation_seen_ = 0;
  // Metric handles (resolved on Activate).
  Counter* switches_counter_ = DiscardCounter();
  Gauge* active_kind_gauge_ = DiscardGauge();
};

}  // namespace gemini

#endif  // SRC_POLICY_CHAMELEON_SELECTOR_H_
