#include "src/policy/chameleon_selector.h"

#include <string>

#include "src/common/calibration.h"
#include "src/common/logging.h"
#include "src/policy/checkmate_policy.h"
#include "src/policy/gemini_policy.h"
#include "src/policy/recompute_policy.h"
#include "src/policy/tiercheck_policy.h"

namespace gemini {

ChameleonSelector::ChameleonSelector(ChameleonOptions options) {
  policies_[0] = std::make_unique<GeminiPolicy>();
  policies_[1] = std::make_unique<TierCheckPolicy>();
  policies_[2] = std::make_unique<CheckmatePolicy>();
  policies_[3] = std::make_unique<RecomputePolicy>();
  active_ = &policy_for(options.initial);
}

ProtectionPolicy& ChameleonSelector::policy_for(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGemini:
      return *policies_[0];
    case PolicyKind::kTierCheck:
      return *policies_[1];
    case PolicyKind::kCheckmate:
      return *policies_[2];
    case PolicyKind::kRecompute:
      return *policies_[3];
    case PolicyKind::kChameleon:
      break;  // Validated out; fall through to the default below.
  }
  return *policies_[0];
}

void ChameleonSelector::Activate(PolicyHost& host) {
  switches_counter_ = &host.metrics().counter("policy.switches");
  active_kind_gauge_ = &host.metrics().gauge("policy.active_kind");
  active_kind_gauge_->Set(static_cast<double>(static_cast<int>(active_->kind())));
  degraded_seen_ = host.degraded_seconds();
  inflation_seen_ = host.interference_inflation();
  active_->Activate(host);
}

IterationPlan ChameleonSelector::PlanIteration(PolicyHost& host, int64_t iteration) {
  MaybeSwitch(host, iteration);
  return active_->PlanIteration(host, iteration);
}

TimeNs ChameleonSelector::PersistentInterval(const PolicyHost& host) const {
  return active_->PersistentInterval(host);
}

TimeNs ChameleonSelector::RecoverySerializationTime(const PolicyHost& host) const {
  return active_->RecoverySerializationTime(host);
}

RecoveryPlan ChameleonSelector::BuildRecoveryPlan(const RecoverySituation& situation) const {
  return active_->BuildRecoveryPlan(situation);
}

PolicyCostReport ChameleonSelector::CostReport(const PolicyHost& host) const {
  return active_->CostReport(host);
}

void ChameleonSelector::MaybeSwitch(PolicyHost& host, int64_t iteration) {
  if (iteration % kChameleonDecisionIntervalIterations != 0) {
    return;
  }
  if (switched_yet_ &&
      iteration - last_switch_iteration_ < kChameleonMinIterationsBetweenSwitches) {
    return;
  }
  const double rate = host.observed_failure_rate_per_hour();
  const double degraded = host.degraded_seconds();
  const TimeNs inflation = host.interference_inflation();
  const double degraded_delta = degraded - degraded_seen_;
  const TimeNs inflation_delta = inflation - inflation_seen_;
  degraded_seen_ = degraded;
  inflation_seen_ = inflation;

  PolicyKind want = active_->kind();
  std::string_view reason;
  if (rate >= kChameleonHighFailureRatePerHour) {
    want = PolicyKind::kGemini;
    reason = "failure_rate_high";
  } else if (degraded_delta >= kChameleonDegradedSecondsThreshold) {
    want = PolicyKind::kTierCheck;
    reason = "redundancy_degrading";
  } else if (inflation_delta >= kChameleonInterferenceInflationThreshold) {
    want = PolicyKind::kCheckmate;
    reason = "checkpoint_interference";
  } else if (rate <= kChameleonLowFailureRatePerHour) {
    want = PolicyKind::kCheckmate;
    reason = "failure_rate_low";
  }
  if (want == active_->kind()) {
    return;
  }
  SwitchTo(host, want, reason, iteration);
}

void ChameleonSelector::SwitchTo(PolicyHost& host, PolicyKind want, std::string_view reason,
                                 int64_t iteration) {
  const PolicyKind from = active_->kind();
  // The staged block (if any) was captured under the old policy's block
  // structure; the new policy starts a fresh block on its own terms.
  host.DiscardStagedBlock();
  active_ = &policy_for(want);
  active_->Activate(host);
  switches_counter_->Increment();
  active_kind_gauge_->Set(static_cast<double>(static_cast<int>(want)));
  PolicySwitchEvent event;
  event.iteration = iteration;
  event.at = host.sim().now();
  event.from = from;
  event.to = want;
  event.reason = std::string(reason);
  switches_.push_back(event);
  host.tracer().Event("policy_switch", "policy",
                      {TraceAttr::Text("from", std::string(PolicyKindName(from))),
                       TraceAttr::Text("to", std::string(PolicyKindName(want))),
                       TraceAttr::Text("reason", std::string(reason)),
                       TraceAttr::Int("iteration", iteration)});
  last_switch_iteration_ = iteration;
  switched_yet_ = true;
  GEMINI_LOG(kInfo) << "chameleon: switched " << PolicyKindName(from) << " -> "
                    << PolicyKindName(want) << " at iteration " << iteration << " ("
                    << reason << ")";
}

}  // namespace gemini
