// Pluggable protection-policy engine (the ROADMAP's Chameleon direction).
//
// GEMINI's in-memory checkpointing is one point in the failure-recovery
// design space; Checkmate-style gradient replication, tiered CPU+persistent
// checkpointing, and recompute-from-peers occupy others. This seam makes the
// *strategy* pluggable while GeminiSystem keeps owning the *mechanisms*
// (event loop, replacement, retrieval cascades, resume bookkeeping):
//
//  * `ProtectionPolicy` decides per-iteration capture/commit, the persistent
//    cadence, the recovery serialization bill, and — per failure — an ordered
//    fallback chain of `RecoverySource`s the host executes. The host runs
//    each source as fetch -> restore -> resume, and any step that fails
//    (missing or corrupt checkpoint, exhausted retries, failed restore or
//    replay) falls through to the next. Only an exhausted chain ends the run.
//    It self-reports its steady-state cost so selectors and benches compare
//    policies uniformly.
//  * `PolicyHost` is the narrow view of GeminiSystem a policy programs
//    against (simulated clock, observability, schedule facts, and the
//    auditor-derived signals the online selector feeds on). Policies never
//    see concrete system types, so they cannot reach around the seam.
//
// The default `GeminiPolicy` reproduces the pre-refactor behavior decision
// for decision: same event order, same timing, byte-identical BENCH exports.
#ifndef SRC_POLICY_PROTECTION_POLICY_H_
#define SRC_POLICY_PROTECTION_POLICY_H_

#include <memory>
#include <string_view>
#include <vector>

#include "src/agent/failure_injector.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/obs/run_tracer.h"
#include "src/schedule/executor.h"
#include "src/sim/simulator.h"

namespace gemini {

enum class PolicyKind {
  kGemini,     // In-memory CPU checkpoints every iteration (the paper).
  kTierCheck,  // CPU checkpoints + a much faster persistent cadence.
  kCheckmate,  // Per-iteration gradient replication; recovery replays the log.
  kRecompute,  // No checkpoints; recompute lost state from peer redundancy.
  kChameleon,  // Online selector switching between the four above.
};

std::string_view PolicyKindName(PolicyKind kind);

// What the policy wants done for one iteration, decided at iteration start.
struct IterationPlan {
  // Capture a consistent snapshot of every alive rank into the staging
  // buffers (the start of a checkpoint block).
  bool stage_snapshot = false;
  // Schedule the staged block's commit into the holders' CPU stores,
  // `commit_delay` after iteration start (the Algorithm-2 transmission time).
  bool commit_staged = false;
  TimeNs commit_delay = 0;
  // The iteration's duration under this policy, before any audit-attributed
  // interference inflation. GeminiPolicy returns the Algorithm-2 scheduled
  // iteration time; checkpoint-free policies return the baseline.
  TimeNs iteration_duration = 0;
  // Extra per-iteration stall the policy charges on top (e.g. Checkmate's
  // gradient-replication tax).
  TimeNs added_stall = 0;
};

// Where a recovery restores training state from; also the kind of a
// recovery step.
enum class RecoverySource {
  kLocalCpuMemory,     // Every rank reloads its own CPU replica.
  kRemoteCpuMemory,    // Replaced ranks fetch replicas from group peers.
  kPersistentStorage,  // Everyone rolls back to the persistent tier.
  // Persistent base + deterministic gradient replay (Checkmate-style).
  kGradientReplay,
  // Lost state rebuilt in place from peer redundancy (recompute policies).
  kPeerRecompute,
};

std::string_view RecoverySourceName(RecoverySource source);

// A recovery fallback chain: the host executes the sources in order, and a
// source that cannot produce a restorable state falls through to the next.
// The host prices replay and recompute from src/common/calibration.h.
using RecoveryPlan = std::vector<RecoverySource>;

// Everything a policy may condition a recovery plan on.
struct RecoverySituation {
  FailureType type = FailureType::kSoftware;
  // Whether every replaced rank's checkpoint is servable from surviving
  // group peers (Algorithm 1's Recoverable predicate).
  bool peer_recoverable = true;
};

// Self-reported steady-state economics, on the fig09/fig14 cost vocabulary.
struct PolicyCostReport {
  // Fraction of iteration time spent on protection (checkpoint traffic,
  // replication stall, serialization amortization).
  double steady_state_overhead_fraction = 0.0;
  // Expected iterations of progress lost at a random failure instant.
  double expected_rollback_iterations = 0.0;
};

// The slice of GeminiSystem a policy sees. Const accessors answer questions;
// the non-const ones let a policy (or the selector) touch shared services.
class PolicyHost {
 public:
  virtual ~PolicyHost() = default;

  virtual Simulator& sim() = 0;
  virtual MetricsRegistry& metrics() = 0;
  virtual RunTracer& tracer() = 0;

  // Schedule facts (Algorithm 2 outcome, Section 5.3 interval).
  virtual const ExecutionResult& execution() const = 0;
  virtual int checkpoint_interval_iterations() const = 0;

  virtual int num_replicas() const = 0;
  virtual Bytes replica_bytes() const = 0;

  // The configured persistent cadence (the fixed costs — serialization,
  // persistent bandwidth — are the constants in src/common/calibration.h).
  virtual TimeNs default_persistent_interval() const = 0;

  // Online signals (auditor + redundancy gauge) the Chameleon selector keys
  // its switch rules on.
  virtual double observed_failure_rate_per_hour() const = 0;
  virtual TimeNs interference_inflation() const = 0;
  virtual double degraded_seconds() const = 0;

  // Observed delta-to-full byte ratio of CPU-tier commits when the host runs
  // incremental delta checkpoints; 1.0 otherwise. Policies scale their
  // steady-state checkpoint-traffic cost by it.
  virtual double incremental_delta_fraction() const = 0;

  // Drops any half-built checkpoint block (used when a policy switch makes
  // the staged snapshots meaningless).
  virtual void DiscardStagedBlock() = 0;
};

class ProtectionPolicy {
 public:
  virtual ~ProtectionPolicy() = default;

  virtual PolicyKind kind() const = 0;
  virtual std::string_view name() const = 0;

  // Called when the policy becomes the active strategy. Activate resolves
  // metric handles and publishes the policy's overhead gauge
  // ("policy.<name>.overhead_fraction").
  virtual void Activate(PolicyHost& host);

  // Whether the policy maintains CPU-memory replicas (drives re-protection
  // after hardware recovery and the group-loss warning).
  virtual bool uses_cpu_checkpoints() const = 0;

  // Decide this iteration's capture/commit/stall.
  virtual IterationPlan PlanIteration(PolicyHost& host, int64_t iteration) = 0;

  // Cadence of the blocking persistent-tier checkpoint; <= 0 disables it.
  virtual TimeNs PersistentInterval(const PolicyHost& host) const = 0;

  // torch.save bill paid before recovery proceeds (serializing the in-memory
  // replicas each machine holds); zero for policies without CPU replicas.
  virtual TimeNs RecoverySerializationTime(const PolicyHost& host) const = 0;

  // The ordered fallback chain for this failure.
  virtual RecoveryPlan BuildRecoveryPlan(const RecoverySituation& situation) const = 0;

  virtual PolicyCostReport CostReport(const PolicyHost& host) const = 0;
};

// ---- Policy configuration ---------------------------------------------------

// Policy knobs (TierCheck's cadence and budget, Checkmate's and Recompute's
// costs, the Chameleon switch rules) are constants in
// src/common/calibration.h; only the policy choice itself is configured.
struct ChameleonOptions {
  // The policy the selector starts on.
  PolicyKind initial = PolicyKind::kGemini;
};

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kGemini;
  ChameleonOptions chameleon;

  // Rejects a selector configured to start as itself.
  Status Validate() const;
};

// Builds the configured policy (a ChameleonSelector for kChameleon).
std::unique_ptr<ProtectionPolicy> MakeProtectionPolicy(const PolicyConfig& config);

}  // namespace gemini

#endif  // SRC_POLICY_PROTECTION_POLICY_H_
