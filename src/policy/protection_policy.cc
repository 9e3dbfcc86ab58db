#include "src/policy/protection_policy.h"

#include <string>

#include "src/policy/chameleon_selector.h"
#include "src/policy/checkmate_policy.h"
#include "src/policy/gemini_policy.h"
#include "src/policy/recompute_policy.h"
#include "src/policy/tiercheck_policy.h"

namespace gemini {

std::string_view PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGemini:
      return "gemini";
    case PolicyKind::kTierCheck:
      return "tiercheck";
    case PolicyKind::kCheckmate:
      return "checkmate";
    case PolicyKind::kRecompute:
      return "recompute";
    case PolicyKind::kChameleon:
      return "chameleon";
  }
  return "unknown";
}

std::string_view RecoverySourceName(RecoverySource source) {
  switch (source) {
    case RecoverySource::kLocalCpuMemory:
      return "local_cpu_memory";
    case RecoverySource::kRemoteCpuMemory:
      return "remote_cpu_memory";
    case RecoverySource::kPersistentStorage:
      return "persistent_storage";
    case RecoverySource::kGradientReplay:
      return "gradient_replay";
    case RecoverySource::kPeerRecompute:
      return "peer_recompute";
  }
  return "unknown";
}

void ProtectionPolicy::Activate(PolicyHost& host) {
  // Publish the self-reported overhead so selectors and benches read every
  // policy's economics from one place, whether or not it ever ran.
  const PolicyCostReport report = CostReport(host);
  host.metrics()
      .gauge("policy." + std::string(name()) + ".overhead_fraction")
      .Set(report.steady_state_overhead_fraction);
  host.metrics()
      .gauge("policy." + std::string(name()) + ".expected_rollback_iterations")
      .Set(report.expected_rollback_iterations);
}

Status PolicyConfig::Validate() const {
  if (chameleon.initial == PolicyKind::kChameleon) {
    return InvalidArgumentError("chameleon.initial must name a concrete policy");
  }
  return Status::Ok();
}

std::unique_ptr<ProtectionPolicy> MakeProtectionPolicy(const PolicyConfig& config) {
  switch (config.kind) {
    case PolicyKind::kGemini:
      return std::make_unique<GeminiPolicy>();
    case PolicyKind::kTierCheck:
      return std::make_unique<TierCheckPolicy>();
    case PolicyKind::kCheckmate:
      return std::make_unique<CheckmatePolicy>();
    case PolicyKind::kRecompute:
      return std::make_unique<RecomputePolicy>();
    case PolicyKind::kChameleon:
      return std::make_unique<ChameleonSelector>(config.chameleon);
  }
  return std::make_unique<GeminiPolicy>();
}

}  // namespace gemini
