// Chaos tests for the hardened recovery path: overlapping (cascading)
// failures merged into one recovery case, the per-rank retrieval retry
// cascade with CRC verification, and background replica re-protection. The
// strongest assertions compare post-recovery trainer state bit-exactly
// against an uninterrupted reference run and account for every injected
// FailureReport (none silently dropped).
#include <gtest/gtest.h>

#include "src/gemini/gemini_system.h"

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
  config.cloud.num_standby = 4;
  return config;
}

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

// Every report the root agent issued must be accounted for: it either became
// its own RecoveryRecord (fresh case or absorbed into one) or was recognized
// as a duplicate of an in-flight case. Nothing falls on the floor.
void ExpectNoDroppedReports(const GeminiSystem& system, const TrainingReport& report) {
  const int64_t reported = system.metrics().counter_value("agent.failures_reported");
  const int64_t deduplicated =
      system.metrics().counter_value("system.failure_reports.deduplicated");
  EXPECT_EQ(reported, static_cast<int64_t>(report.recoveries.size()) + deduplicated)
      << "some FailureReports were neither recorded nor deduplicated";
}

TEST(ChaosTest, SecondHardwareFailureDuringPeerRetrievalYieldsTwoRecords) {
  // Rank 7 dies; while its recovery is serializing, rank 5 (a different
  // placement group) dies too. The second failure must be absorbed into the
  // active case — not dropped — and both machines must come back from CPU
  // memory with bit-identical state, recorded as TWO RecoveryRecords.
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {7});
  system.failure_injector().ArmOnTrigger(kTriggerRecoveryStart, FailureType::kHardware, {5},
                                         Seconds(20));
  const auto report = system.TrainUntil(8, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_EQ(report->recoveries.size(), 2u) << "the absorbed failure must keep its own record";
  for (const RecoveryRecord& recovery : report->recoveries) {
    EXPECT_EQ(recovery.type, FailureType::kHardware);
    EXPECT_EQ(recovery.source, RecoverySource::kRemoteCpuMemory)
        << "groups {4,5} and {6,7} each kept a survivor; CPU memory suffices";
  }
  // The two records share the resolution but keep their own detection times.
  EXPECT_LT(report->recoveries[0].failure_detected_at,
            report->recoveries[1].failure_detected_at);
  EXPECT_EQ(report->recoveries[0].training_resumed_at,
            report->recoveries[1].training_resumed_at);
  EXPECT_GE(system.metrics().counter_value("system.recoveries.preempted"), 1);
  ExpectNoDroppedReports(system, *report);
  EXPECT_EQ(report->iterations_completed, 8);
  ExpectStateMatchesReference(system, config, 8);
}

TEST(ChaosTest, FlakyHolderLinkResolvesFromCpuMemoryAfterRetry) {
  // m=2 leaves exactly one remote holder (rank 6) for the dead rank 7. The
  // 6->7 link drops the first retrieval transfer; the retry cascade must try
  // again (same holder — it is the only one) and still resolve from CPU
  // memory rather than falling back to the persistent tier.
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {7});
  // Pair (6,7) carries only retrieval traffic in this configuration (KV
  // servers are ranks 0-2), so failing its first use hits exactly the
  // retrieval transfer.
  auto drops_remaining = std::make_shared<int>(1);
  system.cluster().fabric().set_partition_check([drops_remaining](int src, int dst) {
    const bool pair67 = (src == 6 && dst == 7) || (src == 7 && dst == 6);
    if (pair67 && *drops_remaining > 0) {
      --*drops_remaining;
      return false;
    }
    return true;
  });
  const auto report = system.TrainUntil(8, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_GE(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kRemoteCpuMemory)
      << "a transient link failure must not force a persistent-tier rollback";
  EXPECT_GE(system.metrics().counter_value("replicator.retries"), 1);
  ExpectNoDroppedReports(system, *report);
  EXPECT_EQ(report->iterations_completed, 8);
  ExpectStateMatchesReference(system, config, 8);
}

TEST(ChaosTest, CorruptedReplicaForcesRetryCascadeToNextHolder) {
  // m=3 gives the dead rank 8 two remote holders (6 and 7). The first
  // holder's replica is bit-flipped right as retrieval starts; the CRC check
  // must reject it and the cascade must fetch the intact copy from the next
  // holder — still from CPU memory, still bit-identical.
  GeminiConfig config = SmallConfig();
  config.num_machines = 9;
  config.num_replicas = 3;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {8});
  system.failure_injector().ArmCorruptionOnTrigger(
      kTriggerRetrievalStart,
      CorruptionTarget{.holder = 6, .owner = 8, .bit = 7, .chain_index = std::nullopt});
  const auto report = system.TrainUntil(8, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_GE(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kRemoteCpuMemory);
  EXPECT_GE(system.metrics().counter_value("cpu_store.crc_failures"), 1)
      << "the corrupted replica must be caught by its CRC";
  EXPECT_GE(system.metrics().counter_value("replicator.retries"), 1);
  EXPECT_GE(system.metrics().counter_value("injector.corruptions_injected"), 1);
  ExpectNoDroppedReports(system, *report);
  EXPECT_EQ(report->iterations_completed, 8);
  ExpectStateMatchesReference(system, config, 8);
}

TEST(ChaosTest, AbandonedPeerFetchDoesNotLeakIntoTheFallbackStep) {
  // Ranks 5 and 7 die in different groups. Rank 7's only remote holder
  // (rank 6) has its replica bit-flipped as retrieval starts, and with a
  // single attempt the peer step falls through to the persistent tier while
  // rank 5's transfer is still in flight. That late transfer belongs to the
  // abandoned step: it must not count as one of the persistent step's
  // fetches, or the restore would mix a CPU replica into the rollback.
  GeminiConfig config = SmallConfig();
  config.retrieval_max_attempts = 1;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {5, 7});
  system.failure_injector().ArmCorruptionOnTrigger(
      kTriggerRetrievalStart,
      CorruptionTarget{.holder = 6, .owner = 7, .bit = 7, .chain_index = std::nullopt});
  const auto report = system.TrainUntil(8, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_EQ(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kPersistentStorage);
  EXPECT_EQ(system.metrics().counter_value("injector.corruptions_injected"), 1);
  ExpectNoDroppedReports(system, *report);
  EXPECT_EQ(report->iterations_completed, 8);
  ExpectStateMatchesReference(system, config, 8);
}

TEST(ChaosTest, CorruptedDeltaChainLinkForcesCascadeToIntactHolder) {
  // Incremental mode, m=3: the dead rank 8 has two remote holders (6 and 7),
  // each protecting it with a redo chain (base + deltas). A mid-chain link on
  // the first holder is bit-flipped as retrieval starts; materialization must
  // reject the whole chain at the CRC gate (serving the intact prefix would
  // hand recovery a stale mix) and the retry cascade must fall back to the
  // next holder's verified chain — still CPU memory, still bit-identical.
  GeminiConfig config = SmallConfig();
  config.num_machines = 9;
  config.num_replicas = 3;
  config.incremental.enabled = true;
  config.incremental.chunk_elements = 4;
  // Keep every delta in the chain (no folds) so the armed link index exists.
  config.incremental.max_chain_length = 64;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {8});
  system.failure_injector().ArmCorruptionOnTrigger(
      kTriggerRetrievalStart,
      CorruptionTarget{.holder = 6, .owner = 8, .bit = 7, .chain_index = 0});
  const auto report = system.TrainUntil(8, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_GE(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kRemoteCpuMemory);
  EXPECT_GE(system.metrics().counter_value("injector.corruptions_injected"), 1)
      << "the armed chain link was never flipped (chain empty at the trigger?)";
  EXPECT_GE(system.metrics().counter_value("cpu_store.crc_failures"), 1)
      << "the corrupted chain must be rejected at materialization";
  EXPECT_GE(system.metrics().counter_value("replicator.retries"), 1);
  ExpectNoDroppedReports(system, *report);
  EXPECT_EQ(report->iterations_completed, 8);
  ExpectStateMatchesReference(system, config, 8);
}

TEST(ChaosTest, SoftwareFailureWithCorruptLocalChainFallsBackToDurableBase) {
  // Software failure on rank 7: local CPU memory survives and would normally
  // serve the restore (GEMINI's case-2 plan is local CPU -> persistent; no
  // peer fetch). Rank 7's own delta chain for itself is corrupted right as
  // recovery starts, so the local materialization must fail its CRC gate and
  // the cascade must fall back to the last verified durable base in the
  // persistent tier — never a silently mixed-iteration state.
  GeminiConfig config = SmallConfig();
  config.incremental.enabled = true;
  config.incremental.chunk_elements = 4;
  config.incremental.max_chain_length = 64;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kSoftware, {7});
  system.failure_injector().ArmCorruptionOnTrigger(
      kTriggerRecoveryStart,
      CorruptionTarget{.holder = 7, .owner = 7, .bit = 11, .chain_index = 0});
  const auto report = system.TrainUntil(8, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_GE(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries[0].type, FailureType::kSoftware);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kPersistentStorage)
      << "the corrupt local chain must push recovery to the durable tier";
  EXPECT_GE(system.metrics().counter_value("injector.corruptions_injected"), 1);
  EXPECT_GE(system.metrics().counter_value("cpu_store.crc_failures"), 1);
  EXPECT_LE(report->recoveries[0].rollback_iteration, report->recoveries[0].iteration_at_failure)
      << "the durable base can only be at or before the failure point";
  ExpectNoDroppedReports(system, *report);
  EXPECT_EQ(report->iterations_completed, 8);
  ExpectStateMatchesReference(system, config, 8);
}

TEST(ChaosTest, SoftwareFailureDuringReprotectionBothRecover) {
  // A hardware failure leaves the replaced machine's replica slots empty;
  // the background re-protection pass starts at resume. A software failure
  // landing right then must recover independently, and re-protection must
  // still restore full replica sets and export the degraded window.
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {7});
  system.failure_injector().ArmOnTrigger(kTriggerReprotectionStart, FailureType::kSoftware, {3});
  const auto report = system.TrainUntil(10, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_GE(report->recoveries.size(), 2u);
  EXPECT_EQ(report->recoveries[0].type, FailureType::kHardware);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kRemoteCpuMemory);
  EXPECT_EQ(report->recoveries[1].type, FailureType::kSoftware);
  // Re-protection completed and the vulnerability window was measured.
  EXPECT_GE(system.metrics().counter_value("system.reprotections"), 1);
  EXPECT_GT(system.metrics().gauge_value("system.redundancy.degraded_seconds"), 0.0);
  EXPECT_GE(system.metrics().counter_value("replicator.reprotected_replicas"), 1);
  // The replaced machine holds current replicas for all its owners again.
  for (int owner : {6, 7}) {
    EXPECT_GE(system.cpu_store(7).LatestIteration(owner), 0) << "owner " << owner;
  }
  ExpectNoDroppedReports(system, *report);
  EXPECT_EQ(report->iterations_completed, 10);
  ExpectStateMatchesReference(system, config, 10);
}

TEST(ChaosTest, NoIterationRunsWhileAParticipantIsDown) {
  // Rank 5 dies 579 s into rank 2's software recovery, just before training
  // resumes, and is detected only after the resume. Synchronous training
  // hangs from the moment a participant is down: no iteration may start with
  // rank 5 dead, so none may complete (or commit its checkpoint) while the
  // second recovery runs, and no record may roll back past its failure.
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kSoftware, {2});
  system.failure_injector().ArmOnTrigger(kTriggerRecoveryStart, FailureType::kHardware, {5},
                                         Seconds(579));
  const auto report = system.TrainUntil(12, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_EQ(report->recoveries.size(), 2u);
  EXPECT_LT(report->recoveries[1].failure_detected_at - report->recoveries[0].training_resumed_at,
            Seconds(30))
      << "the scenario needs rank 5 detected shortly after the first resume";
  for (const RecoveryRecord& recovery : report->recoveries) {
    EXPECT_LE(recovery.rollback_iteration, recovery.iteration_at_failure);
    for (const TraceRecord& record : system.tracer().records()) {
      const bool iteration_end = record.name == "iteration";
      const bool commit = record.name == "checkpoint_commit";
      if (!iteration_end && !commit) {
        continue;
      }
      const TimeNs at = record.start + record.duration;
      EXPECT_FALSE(at >= recovery.failure_detected_at && at <= recovery.training_resumed_at)
          << record.name << " at " << FormatDuration(at) << " inside the recovery window ["
          << FormatDuration(recovery.failure_detected_at) << ", "
          << FormatDuration(recovery.training_resumed_at) << "]";
    }
  }
  ExpectNoDroppedReports(system, *report);
  EXPECT_EQ(report->iterations_completed, 12);
  ExpectStateMatchesReference(system, config, 12);
}

TEST(ChaosTest, CorrelatedBurstAcrossGroupsRecoversFromCpuMemory) {
  // Rack-style correlated burst: three machines in three different placement
  // groups die two seconds apart. Every group keeps a survivor, so all three
  // must come back from CPU memory, with every report accounted for.
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectBurstAt(Minutes(4), FailureType::kHardware, {3, 5, 7},
                                          Seconds(2));
  const auto report = system.TrainUntil(8, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_GE(report->recoveries.size(), 1u);
  for (const RecoveryRecord& recovery : report->recoveries) {
    EXPECT_EQ(recovery.source, RecoverySource::kRemoteCpuMemory);
  }
  // All three victims were replaced and re-protected or refilled by later
  // foreground commits.
  EXPECT_EQ(system.cloud_operator().total_replacements(), 3);
  ExpectNoDroppedReports(system, *report);
  EXPECT_EQ(report->iterations_completed, 8);
  ExpectStateMatchesReference(system, config, 8);
}

TEST(ChaosTest, FailureSoakNoReportDroppedAndStateBitIdentical) {
  // Soak: a scripted storm of software and hardware failures (KV quorum
  // ranks 0-2 spared so detection keeps working), including back-to-back
  // arrivals that overlap recovery windows. Training must reach the target
  // with bit-identical state and zero dropped FailureReports.
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  FailureInjector& injector = system.failure_injector();
  injector.InjectAt(Minutes(3), FailureType::kSoftware, {4});
  injector.InjectAt(Minutes(3) + Seconds(30), FailureType::kSoftware, {6});
  injector.InjectAt(Minutes(30), FailureType::kHardware, {7});
  injector.InjectAt(Minutes(30) + Seconds(45), FailureType::kSoftware, {3});
  injector.InjectAt(Minutes(70), FailureType::kHardware, {5});
  injector.InjectAt(Minutes(100), FailureType::kSoftware, {6});
  const auto report = system.TrainUntil(24, /*sim_deadline=*/Hours(8));
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_EQ(report->iterations_completed, 24);
  EXPECT_GE(report->recoveries.size(), 4u);
  ExpectNoDroppedReports(system, *report);
  ExpectStateMatchesReference(system, config, 24);
  // Machines all healthy at the end of the storm.
  for (int rank = 0; rank < config.num_machines; ++rank) {
    EXPECT_TRUE(system.cluster().machine(rank).process_running()) << "rank " << rank;
  }
}

TEST(ChaosTest, ReprotectionRestoresReplicasWithoutSlowingTraining) {
  // Fig 7 invariant: background re-protection traffic must not change the
  // steady-state iteration time. Compare wall clock of the post-recovery
  // iterations against the analytic iteration time.
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {7});
  const auto report = system.TrainUntil(12, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_GE(report->recoveries.size(), 1u);
  const RecoveryRecord& recovery = report->recoveries[0];
  // Everything after resume ran at exactly the scheduled iteration time even
  // while re-protection streamed replicas in the background.
  const int64_t iterations_after_resume =
      report->iterations_completed - recovery.rollback_iteration;
  const TimeNs elapsed_after_resume =
      system.sim().now() - recovery.training_resumed_at;
  EXPECT_EQ(elapsed_after_resume, iterations_after_resume * report->iteration_time)
      << "re-protection must ride the idle spans, not stretch iterations";
  EXPECT_GE(system.metrics().counter_value("system.reprotections"), 1);
  EXPECT_GT(system.metrics().gauge_value("system.redundancy.degraded_seconds"), 0.0);
  ExpectStateMatchesReference(system, config, 12);
}

}  // namespace
}  // namespace gemini
