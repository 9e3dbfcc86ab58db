// Protection-policy engine tests: PolicyConfig validation, the four concrete
// policies' decisions and recovery chains driven end-to-end through
// GeminiSystem, and the ChameleonSelector's deterministic online switching.
// The strongest assertions compare post-recovery trainer state bit-exactly
// against an uninterrupted reference run — the same bar the pre-refactor
// recovery paths were held to.
#include <gtest/gtest.h>

#include "src/common/calibration.h"
#include "src/gemini/gemini_system.h"
#include "src/policy/chameleon_selector.h"
#include "src/policy/cost_model.h"
#include "src/policy/protection_policy.h"

namespace gemini {
namespace {

GeminiConfig SmallConfig() {
  GeminiConfig config;
  config.model = Gpt2_100B();
  config.instance = P4d24xlarge();
  config.num_machines = 8;
  config.num_replicas = 2;
  config.payload_elements = 32;
  config.seed = 2024;
  config.cloud.num_standby = 2;
  return config;
}

// Reference trainer state after `iterations` uninterrupted steps.
std::vector<std::vector<float>> ReferenceShards(const GeminiConfig& config, int64_t iterations) {
  ShardedTrainer reference(config.model, config.num_machines, config.payload_elements,
                           config.seed);
  for (int64_t i = 0; i < iterations; ++i) {
    reference.Step();
  }
  std::vector<std::vector<float>> shards;
  for (int rank = 0; rank < config.num_machines; ++rank) {
    shards.push_back(reference.shard(rank));
  }
  return shards;
}

void ExpectStateMatchesReference(GeminiSystem& system, const GeminiConfig& config,
                                 int64_t iterations) {
  const auto reference = ReferenceShards(config, iterations);
  for (int rank = 0; rank < config.num_machines; ++rank) {
    EXPECT_EQ(system.trainer().shard(rank), reference[static_cast<size_t>(rank)])
        << "rank " << rank << " state diverged from the uninterrupted reference";
  }
}

// ---------------------------------------------------------------------------
// Configuration validation
// ---------------------------------------------------------------------------

TEST(PolicyConfigTest, DefaultsValidate) {
  EXPECT_TRUE(PolicyConfig{}.Validate().ok());
  EXPECT_TRUE(SmallConfig().Validate().ok());
}

TEST(PolicyConfigTest, RejectsBadKnobs) {
  // A selector cannot start as itself.
  PolicyConfig config;
  config.chameleon.initial = PolicyKind::kChameleon;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(PolicyConfigTest, CreateRejectsBadConfigsUniformly) {
  GeminiConfig config = SmallConfig();
  config.num_replicas = 20;
  EXPECT_FALSE(GeminiSystem::Create(config).ok());

  config = SmallConfig();
  config.gamma = 1.5;
  EXPECT_FALSE(GeminiSystem::Create(config).ok());

  config = SmallConfig();
  config.policy.kind = PolicyKind::kChameleon;
  config.policy.chameleon.initial = PolicyKind::kChameleon;
  EXPECT_FALSE(GeminiSystem::Create(config).ok());

  // Without a KV server the store has no members: no leader, no leases, and
  // a failure that is never detected.
  config = SmallConfig();
  config.kv_server_count = 0;
  const auto no_kv = GeminiSystem::Create(config);
  ASSERT_FALSE(no_kv.ok());
  EXPECT_EQ(no_kv.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(no_kv.status().message(), "kv_server_count must be positive");

  for (const int threads : {0, 4}) {
    config = SmallConfig();
    config.pipeline_threads = threads;
    const auto created = GeminiSystem::Create(config);
    ASSERT_FALSE(created.ok()) << threads << " threads";
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(created.status().message(),
              "pipeline_threads must be 1: host-side threading was removed");
  }

  // And a valid config builds a fully initialized system in one call.
  const StatusOr<std::unique_ptr<GeminiSystem>> system = GeminiSystem::Create(SmallConfig());
  ASSERT_TRUE(system.ok()) << system.status();
  EXPECT_EQ((*system)->policy().kind(), PolicyKind::kGemini);
}

TEST(PolicyFactoryTest, BuildsEveryKind) {
  PolicyConfig config;
  const struct {
    PolicyKind kind;
    std::string_view name;
    bool cpu;
  } expected[] = {
      {PolicyKind::kGemini, "gemini", true},
      {PolicyKind::kTierCheck, "tiercheck", true},
      {PolicyKind::kCheckmate, "checkmate", false},
      {PolicyKind::kRecompute, "recompute", false},
      {PolicyKind::kChameleon, "chameleon", true},  // Delegates to initial=gemini.
  };
  for (const auto& want : expected) {
    config.kind = want.kind;
    const std::unique_ptr<ProtectionPolicy> policy = MakeProtectionPolicy(config);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->kind(), want.kind);
    EXPECT_EQ(policy->name(), want.name);
    EXPECT_EQ(policy->uses_cpu_checkpoints(), want.cpu);
  }
}

// ---------------------------------------------------------------------------
// Recovery plans: each policy's fallback chain per failure shape
// ---------------------------------------------------------------------------

TEST(RecoveryPlanTest, EveryPolicyBuildsItsDocumentedChains) {
  RecoverySituation software;
  software.type = FailureType::kSoftware;
  RecoverySituation hardware;
  hardware.type = FailureType::kHardware;
  RecoverySituation group_loss;
  group_loss.type = FailureType::kHardware;
  group_loss.peer_recoverable = false;

  constexpr RecoverySource kLocal = RecoverySource::kLocalCpuMemory;
  constexpr RecoverySource kRemote = RecoverySource::kRemoteCpuMemory;
  constexpr RecoverySource kPersistent = RecoverySource::kPersistentStorage;
  constexpr RecoverySource kReplay = RecoverySource::kGradientReplay;
  constexpr RecoverySource kRecompute = RecoverySource::kPeerRecompute;
  using Chain = std::vector<RecoverySource>;
  const struct {
    PolicyKind kind;
    Chain software, hardware, group_loss;
  } expected[] = {
      {PolicyKind::kGemini, {kLocal, kPersistent}, {kRemote, kPersistent}, {kPersistent}},
      {PolicyKind::kTierCheck, {kLocal, kPersistent}, {kRemote, kPersistent}, {kPersistent}},
      {PolicyKind::kCheckmate, {kReplay, kPersistent}, {kReplay, kPersistent},
       {kReplay, kPersistent}},
      {PolicyKind::kRecompute, {kRecompute, kPersistent}, {kRecompute, kPersistent},
       {kPersistent}},
  };
  PolicyConfig config;
  for (const auto& want : expected) {
    config.kind = want.kind;
    const std::unique_ptr<ProtectionPolicy> policy = MakeProtectionPolicy(config);
    const std::pair<const RecoverySituation*, const Chain*> cases[] = {
        {&software, &want.software}, {&hardware, &want.hardware}, {&group_loss, &want.group_loss}};
    for (const auto& [situation, chain] : cases) {
      EXPECT_EQ(policy->BuildRecoveryPlan(*situation), *chain)
          << policy->name() << " / " << FailureTypeName(situation->type)
          << (situation->peer_recoverable ? "" : " (group loss)");
    }
  }
}

// The host prices replay and recompute from the calibrated constants, and a
// software recovery pays the restart warm-up once: before its chain starts,
// never again at resume. A hardware recovery warms its replacements up after
// the step.
TEST(RecoveryPlanTest, ReplayAndRecomputeStepsPayTheirPriceAndOneWarmup) {
  const struct {
    PolicyKind kind;
    std::string_view span;
  } policies[] = {{PolicyKind::kCheckmate, "gradient_replay"},
                  {PolicyKind::kRecompute, "peer_recompute"}};
  for (const auto& policy : policies) {
    for (const FailureType type : {FailureType::kSoftware, FailureType::kHardware}) {
      SCOPED_TRACE(std::string(policy.span) + " / " + std::string(FailureTypeName(type)));
      GeminiConfig config = SmallConfig();
      config.policy.kind = policy.kind;
      GeminiSystem system(config);
      ASSERT_TRUE(system.Initialize().ok());
      const double baseline =
          static_cast<double>(system.iteration_execution().baseline_iteration_time);
      system.failure_injector().InjectAt(Minutes(4), type, {6});
      const StatusOr<TrainingReport> report = system.TrainUntil(60);
      ASSERT_TRUE(report.ok()) << report.status();
      ASSERT_EQ(report->recoveries.size(), 1u);
      ExpectStateMatchesReference(system, config, 60);

      const TraceRecord* step = system.tracer().Find(policy.span);
      ASSERT_NE(step, nullptr);
      const TimeNs step_end = step->start + step->duration;
      if (policy.kind == PolicyKind::kCheckmate) {
        // The replay runs from the persistent base's restore instant.
        const TraceRecord* restore = system.tracer().Find("trainer_restore");
        ASSERT_NE(restore, nullptr);
        const TraceAttr* replayed = step->FindAttr("replayed_iterations");
        ASSERT_NE(replayed, nullptr);
        EXPECT_GT(replayed->number, 0);
        EXPECT_EQ(step_end - restore->start,
                  static_cast<TimeNs>(static_cast<double>(replayed->number) *
                                      kCheckmateReplayCostFraction * baseline));
      } else {
        EXPECT_EQ(step->duration, static_cast<TimeNs>(kRecomputeIterations * baseline));
      }
      const TimeNs warmup = type == FailureType::kSoftware ? 0 : kRestartWarmup;
      EXPECT_EQ(report->recoveries[0].training_resumed_at, step_end + warmup);
    }
  }
}

// ---------------------------------------------------------------------------
// GeminiPolicy: the extracted default must behave exactly as before
// ---------------------------------------------------------------------------

TEST(GeminiPolicyTest, SoftwareRecoveryRestoresBitExactState) {
  GeminiConfig config = SmallConfig();
  config.policy.kind = PolicyKind::kGemini;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kSoftware, {5});
  const StatusOr<TrainingReport> report = system.TrainUntil(60);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kLocalCpuMemory);
  ExpectStateMatchesReference(system, config, 60);
}

TEST(GeminiPolicyTest, HardwareRecoveryRestoresBitExactState) {
  GeminiConfig config = SmallConfig();
  config.policy.kind = PolicyKind::kGemini;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {6});
  const StatusOr<TrainingReport> report = system.TrainUntil(60);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kRemoteCpuMemory);
  ExpectStateMatchesReference(system, config, 60);
}

TEST(GeminiPolicyTest, PlanMatchesScheduledIteration) {
  GeminiSystem system(SmallConfig());
  ASSERT_TRUE(system.Initialize().ok());
  // The extracted policy must reproduce the host's scheduled conditions
  // decision for decision: stage at block start, commit on the block's last
  // iteration at the Algorithm-2 transmission instant.
  const IterationPlan plan = system.policy().PlanIteration(system, /*iteration=*/0);
  EXPECT_TRUE(plan.stage_snapshot);
  EXPECT_EQ(plan.iteration_duration, system.iteration_execution().iteration_time);
  EXPECT_EQ(plan.added_stall, 0);
  const PolicyCostReport cost = system.policy().CostReport(system);
  EXPECT_DOUBLE_EQ(cost.steady_state_overhead_fraction,
                   system.iteration_execution().overhead_fraction);
}

// ---------------------------------------------------------------------------
// TierCheckPolicy: tight, budget-capped persistent cadence
// ---------------------------------------------------------------------------

TEST(TierCheckPolicyTest, RunsPersistentCheckpointsAtTightCadence) {
  GeminiConfig config = SmallConfig();
  config.policy.kind = PolicyKind::kTierCheck;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  // The 100B shard's ~161 s serialization stall under the 3.5% budget
  // stretches the 30 min cadence to about 77 min.
  const TimeNs stall = SerializationStall(system.replica_bytes(), kSerializationBandwidth);
  const TimeNs interval = system.policy().PersistentInterval(system);
  EXPECT_GT(interval, kTierCheckPersistentInterval);
  EXPECT_LT(interval, Hours(3));
  // The cadence never violates the serialization-stall budget (CheckFreq's
  // budgeted-frequency rule, shared through the cost model).
  EXPECT_LE(static_cast<double>(stall) / static_cast<double>(interval),
            kCheckFreqOverheadBudget + 1e-9);
  // 200 iterations of ~65 s plus the stalls span about 3.7 h: two intervals.
  const StatusOr<TrainingReport> report = system.TrainUntil(200, Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->iterations_completed, 200);
  // GEMINI's default 3 h cadence would commit one persistent checkpoint in
  // this window; the tiered policy commits one every interval.
  EXPECT_EQ(system.config().persistent_checkpoint_interval, Hours(3));
  EXPECT_GE(system.Snapshot().persistent_checkpoints_committed, 2);
}

// ---------------------------------------------------------------------------
// CheckmatePolicy: gradient logging + zero-rollback replay recovery
// ---------------------------------------------------------------------------

TEST(CheckmatePolicyTest, ReplayRecoveryLosesNoProgress) {
  GeminiConfig config = SmallConfig();
  config.policy.kind = PolicyKind::kCheckmate;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kSoftware, {3});
  const StatusOr<TrainingReport> report = system.TrainUntil(60);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->recoveries.size(), 1u);
  const RecoveryRecord& recovery = report->recoveries[0];
  EXPECT_EQ(recovery.source, RecoverySource::kGradientReplay);
  // The replayed gradient stream reproduces the pre-failure state bit-exactly:
  // zero iterations of progress are lost.
  EXPECT_EQ(recovery.rollback_iteration, recovery.iteration_at_failure);
  ExpectStateMatchesReference(system, config, 60);
  // No CPU checkpoint traffic at all; the gradient log was counted instead.
  EXPECT_EQ(system.Snapshot().cpu_checkpoints_committed, 0);
  EXPECT_EQ(system.Snapshot().recoveries_from_replay, 1);
  EXPECT_GT(system.metrics().counter_value("policy.checkmate.logged_iterations"), 0);
}

TEST(CheckmatePolicyTest, FailedReplayFallsThroughToPersistentStep) {
  // Rank 0's first persistent fetch fails every attempt, so the replay step
  // cannot build its base; the chain's next step (a plain persistent
  // rollback) must take over instead of ending the run.
  GeminiConfig config = SmallConfig();
  config.policy.kind = PolicyKind::kCheckmate;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  int rank0_failures = 0;
  system.persistent_store().set_fault_hook([&](int owner_rank, int64_t, int) {
    if (owner_rank == 0 && rank0_failures < kPersistentRetrievalMaxAttempts) {
      ++rank0_failures;
      return UnavailableError("injected persistent fetch failure");
    }
    return Status::Ok();
  });
  system.failure_injector().InjectAt(Minutes(4), FailureType::kSoftware, {3});
  const StatusOr<TrainingReport> report = system.TrainUntil(60);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(rank0_failures, kPersistentRetrievalMaxAttempts);
  ASSERT_EQ(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kPersistentStorage);
  EXPECT_EQ(report->iterations_completed, 60);
  ExpectStateMatchesReference(system, config, 60);
}

// ---------------------------------------------------------------------------
// RecomputePolicy: checkpoint-free, fixed-cost in-place rebuild
// ---------------------------------------------------------------------------

TEST(RecomputePolicyTest, HardwareRecoveryRecomputesWithoutCheckpoints) {
  GeminiConfig config = SmallConfig();
  config.policy.kind = PolicyKind::kRecompute;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {6});
  const StatusOr<TrainingReport> report = system.TrainUntil(60);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kPeerRecompute);
  EXPECT_EQ(report->recoveries[0].rollback_iteration,
            report->recoveries[0].iteration_at_failure);
  ExpectStateMatchesReference(system, config, 60);
  const SystemSnapshot snapshot = system.Snapshot();
  EXPECT_EQ(snapshot.cpu_checkpoints_committed, 0);
  // The persistent tier is disabled too (only the iteration-0 seed exists).
  EXPECT_EQ(snapshot.persistent_checkpoints_committed, 0);
  EXPECT_EQ(snapshot.recoveries_from_recompute, 1);
}

// ---------------------------------------------------------------------------
// ChameleonSelector: deterministic online switching
// ---------------------------------------------------------------------------

GeminiConfig ChameleonStormConfig() {
  GeminiConfig config = SmallConfig();
  config.policy.kind = PolicyKind::kChameleon;
  config.policy.chameleon.initial = PolicyKind::kGemini;
  return config;
}

// Runs the quiet-then-storm scenario and returns the recorded switches:
// a quiet first stretch (rate 0 -> shed overhead, switch to Checkmate),
// then a burst of software failures inside the rate window (rate high ->
// buy back GEMINI's fast recovery).
std::vector<PolicySwitchEvent> RunStorm(const GeminiConfig& config) {
  GeminiSystem system(config);
  EXPECT_TRUE(system.Initialize().ok());
  for (const int minute : {20, 22, 24}) {
    system.failure_injector().InjectAt(Minutes(minute), FailureType::kSoftware, {4});
  }
  const StatusOr<TrainingReport> report = system.TrainUntil(200, Hours(3));
  EXPECT_TRUE(report.ok());
  const auto* selector = dynamic_cast<const ChameleonSelector*>(&system.policy());
  if (selector == nullptr) {
    ADD_FAILURE() << "kChameleon config did not build a ChameleonSelector";
    return {};
  }
  // The selector's bookkeeping and the exported metrics must agree.
  EXPECT_EQ(system.metrics().counter_value("policy.switches"),
            static_cast<int64_t>(selector->switches().size()));
  return selector->switches();
}

TEST(ChameleonSelectorTest, SwitchesOnFailureRateShift) {
  const std::vector<PolicySwitchEvent> switches = RunStorm(ChameleonStormConfig());
  ASSERT_GE(switches.size(), 2u);
  // Quiet cluster first: shed checkpoint overhead.
  EXPECT_EQ(switches[0].to, PolicyKind::kCheckmate);
  EXPECT_EQ(switches[0].reason, "failure_rate_low");
  // The storm pushes the observed rate over the high-water mark: buy the
  // fastest recovery back.
  EXPECT_EQ(switches[1].from, PolicyKind::kCheckmate);
  EXPECT_EQ(switches[1].to, PolicyKind::kGemini);
  EXPECT_EQ(switches[1].reason, "failure_rate_high");
  // Hysteresis: successive switches respect the minimum iteration gap.
  for (size_t i = 1; i < switches.size(); ++i) {
    EXPECT_GE(switches[i].iteration - switches[i - 1].iteration,
              kChameleonMinIterationsBetweenSwitches);
  }
}

TEST(ChameleonSelectorTest, SwitchHistoryIsDeterministic) {
  const std::vector<PolicySwitchEvent> first = RunStorm(ChameleonStormConfig());
  const std::vector<PolicySwitchEvent> second = RunStorm(ChameleonStormConfig());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].iteration, second[i].iteration);
    EXPECT_EQ(first[i].at, second[i].at);
    EXPECT_EQ(first[i].from, second[i].from);
    EXPECT_EQ(first[i].to, second[i].to);
    EXPECT_EQ(first[i].reason, second[i].reason);
  }
}

TEST(ChameleonSelectorTest, RecoversCorrectlyAcrossASwitch) {
  // Failures land while the selector is on Checkmate (post-quiet switch);
  // recovery must still restore bit-exact state, and training must finish.
  GeminiConfig config = ChameleonStormConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(20), FailureType::kSoftware, {4});
  const StatusOr<TrainingReport> report = system.TrainUntil(120, Hours(3));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->iterations_completed, 120);
  ExpectStateMatchesReference(system, config, 120);
}

}  // namespace
}  // namespace gemini
