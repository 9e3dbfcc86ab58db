// End-to-end integration tests for GeminiSystem: training with
// per-iteration in-memory checkpoints, failure detection through the
// distributed KV store, and the three recovery paths of Section 6.2. The
// strongest assertions compare post-recovery trainer state bit-exactly
// against an uninterrupted reference run.
#include <gtest/gtest.h>

#include "src/baselines/system_model.h"
#include "src/common/calibration.h"
#include "src/common/stats.h"
#include "src/gemini/gemini_system.h"
#include "src/policy/cost_model.h"

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

TEST(GeminiSystemTest, InitializeBuildsPlacementAndReservations) {
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());

  const SystemSnapshot snapshot = system.Snapshot();
  EXPECT_EQ(snapshot.placement_strategy, "mixed");
  EXPECT_EQ(snapshot.num_machines, 8);
  EXPECT_EQ(snapshot.num_replicas, 2);
  EXPECT_EQ(snapshot.num_placement_groups, 4);

  // Every machine hosts exactly its replica-set owners, double-buffered.
  const Bytes replica = config.model.CheckpointBytesPerMachine(8);
  for (int rank = 0; rank < 8; ++rank) {
    EXPECT_EQ(system.cpu_store(rank).reserved_bytes(), 2 * 2 * replica);
    // The checkpoint communication buffer is reserved on every GPU.
    EXPECT_EQ(system.cluster().machine(rank).gpu(0).used(), config.reserved_buffer_per_gpu);
  }
  // Scheduling found a zero-overhead plan checkpointing every iteration.
  EXPECT_LT(snapshot.checkpoint_overhead_fraction, 0.005);
  EXPECT_TRUE(snapshot.checkpoint_fits_iteration);
  EXPECT_EQ(snapshot.checkpoint_interval_iterations, 1);
  EXPECT_TRUE(system.iteration_execution().partition.fits_within_idle_time);
  // Profiling matched the paper's stability observation.
  EXPECT_EQ(snapshot.profiled_iterations, config.profile_iterations);
  EXPECT_LT(snapshot.profile_max_normalized_stddev, 0.10);
  // Nothing has run yet.
  EXPECT_EQ(snapshot.iterations_completed, 0);
  EXPECT_EQ(snapshot.recoveries, 0);
  // The persistent tier holds the initial global checkpoint.
  EXPECT_EQ(system.persistent_store().LatestCompleteIteration(), 0);
}

TEST(GeminiSystemTest, InitializeRejectsBadConfig) {
  GeminiConfig config = SmallConfig();
  config.num_replicas = 20;
  GeminiSystem system(config);
  EXPECT_FALSE(system.Initialize().ok());
}

TEST(GeminiSystemTest, DoubleInitializeFails) {
  GeminiSystem system(SmallConfig());
  ASSERT_TRUE(system.Initialize().ok());
  EXPECT_EQ(system.Initialize().code(), StatusCode::kFailedPrecondition);
}

TEST(GeminiSystemTest, FailureFreeTrainingCheckpointsEveryIteration) {
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  const auto report = system.TrainUntil(10);
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_EQ(report->iterations_completed, 10);
  EXPECT_TRUE(report->recoveries.empty());
  // Optimal checkpoint frequency: one CPU checkpoint per iteration.
  EXPECT_EQ(system.Snapshot().cpu_checkpoints_committed, 10);
  // Wall time is just 10 iterations (no overhead from checkpointing).
  EXPECT_EQ(report->wall_time, 10 * report->iteration_time);
  EXPECT_NEAR(report->effective_training_ratio(), 1.0, 1e-9);
  ExpectStateMatchesReference(system, config, 10);

  // Every machine holds the latest committed checkpoint for all its owners.
  for (int owner = 0; owner < 8; ++owner) {
    for (const int holder : system.placement().replica_sets[static_cast<size_t>(owner)]) {
      EXPECT_GE(system.cpu_store(holder).LatestIteration(owner), 9);
    }
  }

  // The metrics registry saw the same run: 10 steps, 10 global commits, one
  // store-level commit per (owner, holder) pair each iteration, no failures.
  const MetricsRegistry& metrics = system.metrics();
  EXPECT_EQ(metrics.counter_value("trainer.steps"), 10);
  EXPECT_EQ(metrics.counter_value("system.cpu_checkpoint_commits"), 10);
  EXPECT_EQ(metrics.counter_value("cpu_store.commits"), 10 * 8 * 2);
  EXPECT_EQ(metrics.counter_value("system.failures_detected"), 0);
  EXPECT_GT(metrics.counter_value("agent.keepalives"), 0);
  EXPECT_GE(metrics.counter_value("kv.elections_won"), 1);

  // And the tracer recorded one iteration span per iteration plus the
  // commits, all on simulated time.
  EXPECT_EQ(system.tracer().CountNamed("iteration"), 10);
  EXPECT_EQ(system.tracer().CountNamed("checkpoint_commit"), 10);
  const SystemSnapshot snapshot = system.Snapshot();
  EXPECT_EQ(snapshot.iterations_completed, 10);
  EXPECT_EQ(snapshot.cpu_checkpoints_committed, 10);
  EXPECT_EQ(snapshot.recoveries, 0);
}

TEST(GeminiSystemTest, RootAgentElectedDuringTraining) {
  GeminiSystem system(SmallConfig());
  ASSERT_TRUE(system.Initialize().ok());
  ASSERT_TRUE(system.TrainUntil(2).ok());
  const auto root = system.kvstore().Get(kRootKey);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->value, std::to_string(system.root_rank()));
}

TEST(GeminiSystemTest, SoftwareFailureRecoversFromLocalCpuMemory) {
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  // Crash a process mid-training.
  system.failure_injector().InjectAt(Minutes(3), FailureType::kSoftware, {6});
  const auto report = system.TrainUntil(8);
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_EQ(report->recoveries.size(), 1u);
  const RecoveryRecord& recovery = report->recoveries[0];
  EXPECT_EQ(recovery.type, FailureType::kSoftware);
  EXPECT_EQ(recovery.source, RecoverySource::kLocalCpuMemory);
  EXPECT_EQ(recovery.failed_ranks, (std::vector<int>{6}));
  // Rollback loses at most one iteration of progress (per-iteration ckpts).
  EXPECT_LE(recovery.iteration_at_failure - recovery.rollback_iteration, 1);
  // Downtime is dominated by serialization (m replicas of C bytes each at
  // ~1 GB/s) plus the restart warm-up (Figure 14's structure).
  const TimeNs expected =
      RecoverySerializationStall(config.num_replicas, config.model.CheckpointBytesPerMachine(8)) +
      kRestartWarmup;
  EXPECT_NEAR(ToSeconds(recovery.downtime), ToSeconds(expected), 10.0);
  // Wasted time is bounded by ~1 iteration + retrieval, far below baselines.
  EXPECT_LE(recovery.wasted_time, 2 * report->iteration_time);
  EXPECT_EQ(report->iterations_completed, 8);
  ExpectStateMatchesReference(system, config, 8);
}

TEST(GeminiSystemTest, SoftwareFailureBeforeFirstLeaseIsRecovered) {
  // At t = 1 s no KV leader exists yet, so the worker holds no health lease
  // when its process crashes. The process_down status must still reach the
  // store once the first lease is granted.
  GeminiConfig config = SmallConfig();
  config.seed = 7;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Seconds(1), FailureType::kSoftware, {3});
  const auto report = system.TrainUntil(3, Hours(3));
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_EQ(report->iterations_completed, 3);
  ASSERT_EQ(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries[0].type, FailureType::kSoftware);
  EXPECT_EQ(report->recoveries[0].failed_ranks, (std::vector<int>{3}));
  ExpectStateMatchesReference(system, config, 3);
}

TEST(GeminiSystemTest, HardwareFailureRecoversFromGroupPeer) {
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {7});
  const auto report = system.TrainUntil(8);
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_EQ(report->recoveries.size(), 1u);
  const RecoveryRecord& recovery = report->recoveries[0];
  EXPECT_EQ(recovery.type, FailureType::kHardware);
  EXPECT_EQ(recovery.source, RecoverySource::kRemoteCpuMemory);
  // The machine was actually replaced.
  EXPECT_EQ(system.cluster().machine(7).incarnation(), 1);
  EXPECT_EQ(system.cloud_operator().total_replacements(), 1);
  // Retrieval from the peer is seconds, so wasted time stays ~1.5 iteration.
  EXPECT_LE(recovery.wasted_time, 2 * report->iteration_time);
  ExpectStateMatchesReference(system, config, 8);

  // The replaced machine hosts its owners again and receives new replicas.
  for (int owner : {6, 7}) {
    EXPECT_GE(system.cpu_store(7).LatestIteration(owner), 7) << "owner " << owner;
  }
}

TEST(GeminiSystemTest, TwoFailuresInDifferentGroupsStillUseCpuMemory) {
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  // Ranks 5 and 7 sit in groups {4,5} and {6,7}: both have alive peers.
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {5, 7});
  const auto report = system.TrainUntil(8);
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_GE(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kRemoteCpuMemory);
  ExpectStateMatchesReference(system, config, 8);
}

TEST(GeminiSystemTest, WholeGroupLossFallsBackToPersistentStorage) {
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  // Group {4,5} dies entirely: both replicas of both checkpoints are gone.
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {4, 5});
  const auto report = system.TrainUntil(6);
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_GE(report->recoveries.size(), 1u);
  const RecoveryRecord& recovery = report->recoveries[0];
  EXPECT_EQ(recovery.source, RecoverySource::kPersistentStorage);
  // The only complete persistent checkpoint is the initial one: training
  // rolled all the way back (the paper's motivating disaster case).
  EXPECT_EQ(recovery.rollback_iteration, 0);
  EXPECT_GT(recovery.wasted_time, 3 * report->iteration_time);
  ExpectStateMatchesReference(system, config, 6);
}

TEST(GeminiSystemTest, RootMachineFailurePromotesNewRootAndRecovers) {
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  // Train briefly so a root gets elected, then kill that exact machine.
  ASSERT_TRUE(system.TrainUntil(2).ok());
  const int old_root = system.root_rank();
  // Keep the KV quorum alive: if the root sits on a KV rank (0..2), that is
  // fine — two of three servers survive.
  system.failure_injector().InjectAt(system.sim().now() + Minutes(1), FailureType::kHardware,
                                     {old_root});
  const auto report = system.TrainUntil(6);
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_NE(system.root_rank(), old_root) << "a new root agent must have been promoted";
  ASSERT_GE(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries.back().type, FailureType::kHardware);
  ExpectStateMatchesReference(system, config, 6);
}

TEST(GeminiSystemTest, MultipleSequentialFailures) {
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(3), FailureType::kSoftware, {3});
  system.failure_injector().InjectAt(Minutes(16), FailureType::kHardware, {6});
  const auto report = system.TrainUntil(12);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->recoveries.size(), 2u);
  EXPECT_EQ(report->iterations_completed, 12);
  ExpectStateMatchesReference(system, config, 12);
}

TEST(GeminiSystemTest, PersistentCheckpointsHappenOnSchedule) {
  GeminiConfig config = SmallConfig();
  config.persistent_checkpoint_interval = Minutes(5);
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  const auto report = system.TrainUntil(10);  // ~11 minutes of training.
  ASSERT_TRUE(report.ok());
  EXPECT_GE(system.Snapshot().persistent_checkpoints_committed, 1);
  EXPECT_GT(system.persistent_store().LatestCompleteIteration(), 0);
  // Serialization for persistent checkpoints blocks training briefly.
  EXPECT_GT(report->wall_time, 10 * report->iteration_time);
}

TEST(GeminiSystemTest, ThreeReplicasSurviveTwoGroupMembersFailing) {
  GeminiConfig config = SmallConfig();
  config.num_machines = 9;
  config.num_replicas = 3;  // Groups of three.
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  // Two of group {6,7,8} die; the third member still holds their replicas.
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {7, 8});
  const auto report = system.TrainUntil(8);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GE(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kRemoteCpuMemory);
  ExpectStateMatchesReference(system, config, 8);
}

TEST(GeminiSystemTest, WastedTimeBeatsBaselineByOrderOfMagnitude) {
  // The headline 13x claim, measured end-to-end: GEMINI's measured wasted
  // time for a hardware failure vs the analytic HighFreq baseline.
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {7});
  const auto report = system.TrainUntil(8);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->recoveries.size(), 1u);

  CheckpointWorkload workload;
  workload.iteration_time = report->iteration_time;
  workload.checkpoint_bytes_per_machine = config.model.CheckpointBytesPerMachine(8);
  workload.num_machines = 8;
  const SystemModel highfreq = BuildHighFreq(workload);
  const double speedup = static_cast<double>(highfreq.AverageWastedTime()) /
                         static_cast<double>(report->recoveries[0].wasted_time);
  EXPECT_GT(speedup, 13.0);
}

TEST(GeminiSystemTest, KvProposalsDoNotGrowWithTrainingLength) {
  // Lease keepalives are served on the KV leader, so the Raft log only sees
  // grants, puts and revokes: a handful per machine, however long the run.
  GeminiConfig config = SmallConfig();
  config.num_machines = 64;
  std::vector<int64_t> proposals;
  for (const int64_t iterations : {10, 40}) {
    GeminiSystem system(config);
    ASSERT_TRUE(system.Initialize().ok());
    ASSERT_TRUE(system.TrainUntil(iterations).ok());
    ASSERT_GT(system.metrics().counter_value("agent.keepalives"), 10 * config.num_machines);
    proposals.push_back(system.metrics().counter_value("kv.proposals"));
  }
  EXPECT_LE(proposals[0], 4 * config.num_machines);
  EXPECT_EQ(proposals[1], proposals[0]) << "KV proposals grew with simulated duration";
}

TEST(GeminiSystemTest, WatermarkOffByDefaultLeavesKvStateUntouched) {
  GeminiSystem system(SmallConfig());
  ASSERT_TRUE(system.Initialize().ok());
  ASSERT_TRUE(system.TrainUntil(3).ok());
  EXPECT_TRUE(system.kvstore().List("ckpt/").empty());
}

TEST(GeminiSystemTest, DeterministicAcrossRuns) {
  GeminiConfig config = SmallConfig();
  std::vector<TimeNs> wall_times;
  for (int run = 0; run < 2; ++run) {
    GeminiSystem system(config);
    ASSERT_TRUE(system.Initialize().ok());
    system.failure_injector().InjectAt(Minutes(3), FailureType::kHardware, {6});
    const auto report = system.TrainUntil(6);
    ASSERT_TRUE(report.ok());
    wall_times.push_back(report->wall_time);
  }
  EXPECT_EQ(wall_times[0], wall_times[1]) << "simulation must be bit-reproducible";
}

TEST(GeminiSystemTest, HolderDeathDuringRecoveryFallsBackToPersistent) {
  // Rank 7 dies; while its recovery is under way its group peer (rank 6,
  // the only CPU-memory holder of rank 7's checkpoint) also dies. Retrieval
  // must detect the loss and fall back to the persistent tier instead of
  // hanging or restoring stale state.
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {7});
  // Detection takes ~15 s and replacement ~10 s (standby); the peer dies in
  // the middle of the serialization window, before retrieval begins.
  system.failure_injector().InjectAt(Minutes(5), FailureType::kHardware, {6});
  const auto report = system.TrainUntil(8, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GE(report->recoveries.size(), 1u);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kPersistentStorage);
  // State still converges to the uninterrupted reference.
  if (report->iterations_completed == 8) {
    ExpectStateMatchesReference(system, config, 8);
  }
}

TEST(GeminiSystemTest, PersistentFallbackUsesLatestPersistentCheckpoint) {
  // With frequent persistent checkpoints, a whole-group loss rolls back to
  // the latest *complete* persistent iteration, not to zero.
  GeminiConfig config = SmallConfig();
  config.persistent_checkpoint_interval = Minutes(4);
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(10), FailureType::kHardware, {4, 5});
  const auto report = system.TrainUntil(12, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GE(report->recoveries.size(), 1u);
  const RecoveryRecord& recovery = report->recoveries[0];
  EXPECT_EQ(recovery.source, RecoverySource::kPersistentStorage);
  EXPECT_GT(recovery.rollback_iteration, 0)
      << "should roll back to the mid-training persistent checkpoint";
  ExpectStateMatchesReference(system, config, report->iterations_completed);
}

TEST(GeminiSystemTest, SingleReplicaConfigSurvivesSoftwareButNotHardware) {
  // m=1 keeps only the local replica: software failures recover locally,
  // but losing a machine loses its only CPU copy.
  GeminiConfig config = SmallConfig();
  config.num_replicas = 1;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(3), FailureType::kSoftware, {2});
  system.failure_injector().InjectAt(Minutes(15), FailureType::kHardware, {7});
  const auto report = system.TrainUntil(10, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GE(report->recoveries.size(), 2u);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kLocalCpuMemory);
  EXPECT_EQ(report->recoveries[1].source, RecoverySource::kPersistentStorage);
  ExpectStateMatchesReference(system, config, report->iterations_completed);
}

TEST(GeminiSystemTest, AverageWastedTimeMatchesEquation1) {
  // Property test of Eq. (1): failures uniformly distributed within the
  // checkpoint interval waste on average t_ckpt + 1/(2f) + t_rtvl. With
  // per-iteration checkpoints and near-zero retrieval that is 1.5 T_iter.
  // We sweep the failure instant across one iteration and average the
  // measured wasted time (including the discarded in-flight fraction).
  RunningStat wasted_iterations;
  double commit_fraction = 1.0;
  for (int phase = 0; phase < 8; ++phase) {
    GeminiConfig config = SmallConfig();
    GeminiSystem system(config);
    ASSERT_TRUE(system.Initialize().ok());
    const TimeNs iteration = system.iteration_execution().iteration_time;
    commit_fraction = static_cast<double>(std::min(
                          system.iteration_execution().checkpoint_done, iteration)) /
                      static_cast<double>(iteration);
    // A failure somewhere within the 4th iteration.
    const TimeNs inject_at = 3 * iteration + iteration * phase / 8 + Seconds(1);
    system.failure_injector().InjectAt(inject_at, FailureType::kSoftware, {5});
    const auto report = system.TrainUntil(8);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->recoveries.size(), 1u);
    const TimeNs in_flight = inject_at - 3 * iteration;
    wasted_iterations.Add(
        (static_cast<double>(report->recoveries[0].wasted_time) +
         static_cast<double>(in_flight)) /
        static_cast<double>(iteration));
  }
  // With the checkpoint committing at fraction c of the iteration, a
  // uniformly-placed failure wastes on average (c + 0.5) iterations: one
  // extra iteration is lost only when the failure precedes the commit.
  // Eq. (1)'s 1.5 T_iter is the conservative c = 1 case and upper-bounds us.
  EXPECT_NEAR(wasted_iterations.mean(), commit_fraction + 0.5, 0.2);
  EXPECT_LE(wasted_iterations.mean(), 1.5 + 1e-9);
}

TEST(GeminiSystemTest, FrequencyAmortizationKeepsTrainingFree) {
  // Four replicas of GPT-2 40B on 16x p3dn cannot checkpoint every
  // iteration; the system amortizes across k iterations (Section 5.3) while
  // keeping iteration time at baseline and recovery correct.
  GeminiConfig config;
  config.model = Gpt2_40B();
  config.instance = P3dn24xlarge();
  config.num_machines = 16;
  config.num_replicas = 4;
  config.payload_elements = 32;
  config.seed = 99;
  config.cloud.num_standby = 1;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  const int interval = system.checkpoint_interval_iterations();
  EXPECT_GT(interval, 1);
  EXPECT_LT(system.iteration_execution().overhead_fraction, 0.005);

  system.failure_injector().InjectAt(Minutes(8), FailureType::kHardware, {13});
  const auto report = system.TrainUntil(12, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();
  // Fewer commits than iterations (one per k-block).
  const int64_t commits = system.Snapshot().cpu_checkpoints_committed;
  EXPECT_LE(commits, 12 / interval + 1);
  EXPECT_GE(commits, 12 / interval - 1);
  ASSERT_GE(report->recoveries.size(), 1u);
  // Rollback distance is bounded by two checkpoint blocks.
  const RecoveryRecord& recovery = report->recoveries[0];
  EXPECT_LE(recovery.iteration_at_failure - recovery.rollback_iteration, 2 * interval);
  // Bit-exact convergence still holds.
  ShardedTrainer reference(config.model, config.num_machines, config.payload_elements,
                           config.seed);
  for (int64_t i = 0; i < report->iterations_completed; ++i) {
    reference.Step();
  }
  for (int rank = 0; rank < config.num_machines; ++rank) {
    EXPECT_EQ(system.trainer().shard(rank), reference.shard(rank)) << "rank " << rank;
  }
}

TEST(GeminiSystemTest, ReportMetricsAreInternallyConsistent) {
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(3), FailureType::kSoftware, {6});
  const auto report = system.TrainUntil(10);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->recoveries.size(), 1u);
  const RecoveryRecord& recovery = report->recoveries[0];
  // Wall time decomposes into productive iterations, the re-done rollback
  // iterations, detection latency, the discarded in-flight fraction, and
  // the recovery downtime (all non-negative, summing within one iteration
  // of the measured wall time).
  const TimeNs redone = (recovery.iteration_at_failure - recovery.rollback_iteration) *
                        report->iteration_time;
  const TimeNs accounted =
      report->iterations_completed * report->iteration_time + redone + recovery.downtime;
  EXPECT_GE(report->wall_time, accounted - report->iteration_time);
  EXPECT_LE(report->wall_time, accounted + 2 * report->iteration_time);
  EXPECT_GT(report->effective_training_ratio(), 0.0);
  EXPECT_LE(report->effective_training_ratio(), 1.0);
  EXPECT_GE(recovery.training_resumed_at, recovery.failure_detected_at);
}

TEST(GeminiSystemTest, SnapshotRecoveryCountsComeFromTheRegistry) {
  // One run hits all three Section 6.2 paths: a software failure (local CPU),
  // a single-machine hardware failure (group peer), then a whole-group loss
  // (persistent tier).
  GeminiConfig config = SmallConfig();
  config.cloud.num_standby = 4;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(3), FailureType::kSoftware, {2});
  system.failure_injector().InjectAt(Minutes(16), FailureType::kHardware, {6});
  system.failure_injector().InjectAt(Minutes(32), FailureType::kHardware, {4, 5});
  const auto report = system.TrainUntil(30, /*sim_deadline=*/Hours(4));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->recoveries.size(), 3u);
  EXPECT_EQ(report->recoveries[0].source, RecoverySource::kLocalCpuMemory);
  EXPECT_EQ(report->recoveries[1].source, RecoverySource::kRemoteCpuMemory);
  EXPECT_EQ(report->recoveries[2].source, RecoverySource::kPersistentStorage);

  int64_t tally[5] = {};
  for (const RecoveryRecord& record : report->recoveries) {
    ++tally[static_cast<int>(record.source)];
  }
  const SystemSnapshot snapshot = system.Snapshot();
  const MetricsRegistry& metrics = system.metrics();
  EXPECT_EQ(snapshot.recoveries, metrics.counter_value("system.recoveries"));
  EXPECT_EQ(snapshot.recoveries, static_cast<int64_t>(report->recoveries.size()));
  const struct {
    int64_t snapshot_field;
    std::string_view counter;
    RecoverySource source;
  } fields[] = {
      {snapshot.recoveries_from_local_cpu, "system.recoveries.local_cpu",
       RecoverySource::kLocalCpuMemory},
      {snapshot.recoveries_from_remote_cpu, "system.recoveries.remote_cpu",
       RecoverySource::kRemoteCpuMemory},
      {snapshot.recoveries_from_persistent, "system.recoveries.persistent",
       RecoverySource::kPersistentStorage},
      {snapshot.recoveries_from_replay, "system.recoveries.replay",
       RecoverySource::kGradientReplay},
      {snapshot.recoveries_from_recompute, "system.recoveries.recompute",
       RecoverySource::kPeerRecompute},
  };
  for (const auto& field : fields) {
    EXPECT_EQ(field.snapshot_field, metrics.counter_value(field.counter)) << field.counter;
    EXPECT_EQ(field.snapshot_field, tally[static_cast<int>(field.source)]) << field.counter;
  }
  ExpectStateMatchesReference(system, config, report->iterations_completed);
}

TEST(GeminiSystemTest, KvQuorumLossStopsDetectionButDeadlineTerminates) {
  // Losing two of three KV servers removes the quorum: failures can no
  // longer be detected (a real etcd deployment would page an operator).
  // The simulated-time deadline guarantees the run still terminates and
  // reports the stall.
  GeminiConfig config = SmallConfig();
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  system.failure_injector().InjectAt(Minutes(3), FailureType::kHardware, {0, 1});
  const auto report = system.TrainUntil(10, /*sim_deadline=*/Minutes(12));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LT(report->iterations_completed, 10);
  EXPECT_TRUE(report->recoveries.empty())
      << "no quorum means no root-agent detection, so no recovery can run";
}

TEST(GeminiSystemTest, TrainUntilStopsExactlyAtItsDeadline) {
  // Every event due by the deadline runs and the run ends there, whatever
  // events exist around it: an idle KV store schedules none.
  GeminiSystem system(SmallConfig());
  ASSERT_TRUE(system.Initialize().ok());
  const TimeNs deadline = Minutes(7) + Millis(1);
  const auto report = system.TrainUntil(1000, deadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LT(report->iterations_completed, 1000);
  EXPECT_EQ(system.sim().now(), deadline);
  EXPECT_EQ(report->wall_time, deadline);
}

TEST(GeminiSystemTest, KvLeaderMachineFailureIsDetectedWithinOneRenewalAndElection) {
  // KV servers share ranks 0..kv_server_count-1 with workers, so one machine
  // failure can take the KV leader and that rank's health lease together.
  // The new leader never saw the lease renewed and gives it a full TTL from
  // its election: detection may slip by up to one keepalive interval plus one
  // election timeout, rounded up to the root agent's next scan. Offsets of
  // 0.25-0.75 s put a root scan inside the leaderless window, which must not
  // report the healthy ranks as failed.
  const GeminiConfig config = SmallConfig();
  const TimeNs bound = config.agent.health_lease_ttl + config.agent.keepalive_interval +
                       config.kvstore.election_timeout_max + config.agent.root_scan_interval;
  for (const TimeNs offset : {Millis(0), Millis(250), Millis(500), Millis(750), Millis(2000)}) {
    GeminiSystem system(config);
    ASSERT_TRUE(system.Initialize().ok());
    ASSERT_TRUE(system.TrainUntil(2).ok());
    const std::optional<int> kv_leader = system.kvstore().LeaderRank();
    ASSERT_TRUE(kv_leader.has_value());
    ASSERT_NE(*kv_leader, system.root_rank()) << "root failover would dominate detection";
    const TimeNs fail_at = system.sim().now() + Minutes(1) + offset;
    system.failure_injector().InjectAt(fail_at, FailureType::kHardware, {*kv_leader});
    const auto report = system.TrainUntil(6);
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->recoveries.size(), 1u);
    const RecoveryRecord& recovery = report->recoveries[0];
    EXPECT_EQ(recovery.failed_ranks, (std::vector<int>{*kv_leader}));
    EXPECT_LE(recovery.failure_detected_at - fail_at, bound) << "offset " << ToSeconds(offset);
    EXPECT_NE(system.kvstore().LeaderRank(), kv_leader);
    ExpectStateMatchesReference(system, config, 6);
  }
}

TEST(GeminiSystemTest, ScriptedFailuresPinDetectionResumeAndControlPlaneCounts) {
  // Four scripted failures on 64 machines: a software crash, a hardware
  // loss, the KV leader's machine, and a hardware loss at exactly one of the
  // dead rank's keepalive instants (workers start at t = 0 and renew every
  // 3 s, so 60 min is one; the injection is scheduled before that tick is,
  // so the death comes first and the tick does not renew). Every detection
  // and resume instant and the control plane's counts are pinned: a change
  // to how health leases are renewed must leave the modeled run identical.
  GeminiConfig config = SmallConfig();
  config.num_machines = 64;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  ASSERT_TRUE(system.TrainUntil(1).ok());
  const std::optional<int> kv_leader = system.kvstore().LeaderRank();
  ASSERT_TRUE(kv_leader.has_value());
  FailureInjector& injector = system.failure_injector();
  injector.InjectAt(Minutes(5), FailureType::kSoftware, {9});
  injector.InjectAt(Minutes(20) + Millis(1500), FailureType::kHardware, {17});
  injector.InjectAt(Minutes(40) + Millis(500), FailureType::kHardware, {*kv_leader});
  const TimeNs tick_instant = Minutes(60);
  ASSERT_EQ(tick_instant % config.agent.keepalive_interval, 0);
  injector.InjectAt(tick_instant, FailureType::kHardware, {40});
  const auto report = system.TrainUntil(60);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->iterations_completed, 60);
  // Captured from a run that simulated every keepalive as a timer event.
  struct Expected {
    int rank;
    TimeNs detected_at;
    TimeNs resumed_at;
  };
  const std::vector<Expected> expected = {
      {9, 305000100000, 605322680646},
      {17, 1215000100000, 1515697780646},
      {*kv_leader, 2415000100000, 2715697780646},
      {40, 3610000100000, 3910697780646},
  };
  ASSERT_EQ(report->recoveries.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const RecoveryRecord& recovery = report->recoveries[i];
    EXPECT_EQ(recovery.failed_ranks, (std::vector<int>{expected[i].rank})) << "record " << i;
    EXPECT_EQ(recovery.failure_detected_at, expected[i].detected_at) << "record " << i;
    EXPECT_EQ(recovery.training_resumed_at, expected[i].resumed_at) << "record " << i;
  }
  const MetricsRegistry& metrics = system.metrics();
  EXPECT_EQ(metrics.counter_value("kv.proposals"), 203);
  EXPECT_EQ(metrics.counter_value("agent.lease_acquired"), 67);
  EXPECT_EQ(metrics.counter_value("agent.keepalives"), 117801);
  ExpectStateMatchesReference(system, config, 60);
}

TEST(GeminiSystemTest, ScriptedKvLeaderFailurePinsElectionInstants) {
  // The scripted 64-machine run above, read for the KV store's elections:
  // the first leader, the one elected after the KV leader's machine dies at
  // 40 min 0.5 s, and any after its replacement rejoins. Every election's
  // instant, term and rank is pinned: a change to how the store simulates
  // heartbeat rounds must leave each follower's election timer, and so each
  // election, where ticking puts it.
  GeminiConfig config = SmallConfig();
  config.num_machines = 64;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  ASSERT_TRUE(system.TrainUntil(1).ok());
  const std::optional<int> kv_leader = system.kvstore().LeaderRank();
  ASSERT_TRUE(kv_leader.has_value());
  FailureInjector& injector = system.failure_injector();
  injector.InjectAt(Minutes(5), FailureType::kSoftware, {9});
  injector.InjectAt(Minutes(20) + Millis(1500), FailureType::kHardware, {17});
  injector.InjectAt(Minutes(40) + Millis(500), FailureType::kHardware, {*kv_leader});
  injector.InjectAt(Minutes(60), FailureType::kHardware, {40});
  const auto report = system.TrainUntil(60);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->iterations_completed, 60);

  struct Election {
    TimeNs at;
    int64_t term;
    int64_t rank;
    bool operator==(const Election&) const = default;
  };
  std::vector<Election> elections;
  for (const TraceRecord& record : system.tracer().records()) {
    if (record.name == "kv_leader_elected") {
      elections.push_back(
          {record.start, record.FindAttr("term")->number, record.FindAttr("rank")->number});
    }
  }
  // Captured from a run that simulated every heartbeat round as events.
  const std::vector<Election> expected = {
      {861466952, 1, 2},
      {2400975457425, 2, 1},
  };
  EXPECT_EQ(elections, expected);
  EXPECT_EQ(*kv_leader, 2);
  EXPECT_EQ(system.metrics().counter_value("kv.elections_won"), 2);
}

TEST(GeminiSystemTest, RootScansWalkTheHealthKeysOnlyAfterKvWrites) {
  // The scripted 64-machine run above, read for the root's scans: a scan
  // walks the health keys only when the KV leader's applied index moved since
  // the last walk, so the walks are bounded by the log's length and are a
  // small share of the counted scans.
  GeminiConfig config = SmallConfig();
  config.num_machines = 64;
  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  ASSERT_TRUE(system.TrainUntil(1).ok());
  const std::optional<int> kv_leader = system.kvstore().LeaderRank();
  ASSERT_TRUE(kv_leader.has_value());
  FailureInjector& injector = system.failure_injector();
  injector.InjectAt(Minutes(5), FailureType::kSoftware, {9});
  injector.InjectAt(Minutes(20) + Millis(1500), FailureType::kHardware, {17});
  injector.InjectAt(Minutes(40) + Millis(500), FailureType::kHardware, {*kv_leader});
  injector.InjectAt(Minutes(60), FailureType::kHardware, {40});
  const auto report = system.TrainUntil(60);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->recoveries.size(), 4u);
  const RootAgent* root = system.root_agent();
  ASSERT_NE(root, nullptr);
  const std::optional<int> leader = system.kvstore().LeaderRank();
  ASSERT_TRUE(leader.has_value());
  uint64_t commit_index = 0;
  for (int i = 0; i < system.kvstore().num_nodes(); ++i) {
    if (system.kvstore().server_ranks()[static_cast<size_t>(i)] == *leader) {
      commit_index = system.kvstore().node(i).commit_index();
    }
  }
  const int64_t scans = system.metrics().counter_value("agent.root_scans");
  // 9 walks, 203 log entries and 1,098 scans when written.
  EXPECT_GT(root->health_walks(), 0);
  EXPECT_LE(static_cast<uint64_t>(root->health_walks()), commit_index);
  EXPECT_LT(root->health_walks() * 20, scans);
}

TEST(GeminiSystemTest, StandbyMachinesShortenHardwareDowntime) {
  // At 16 machines the per-machine serialization (~150 s) no longer masks
  // the ASG provisioning delay (4-7 min), so standby machines visibly
  // shorten recovery, as Section 6.2 argues.
  GeminiConfig with_standby = SmallConfig();
  with_standby.num_machines = 16;
  with_standby.cloud.num_standby = 2;
  GeminiConfig without_standby = SmallConfig();
  without_standby.num_machines = 16;
  without_standby.cloud.num_standby = 0;

  auto measure_downtime = [](const GeminiConfig& config) -> TimeNs {
    GeminiSystem system(config);
    EXPECT_TRUE(system.Initialize().ok());
    system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {7});
    const auto report = system.TrainUntil(8);
    EXPECT_TRUE(report.ok());
    if (!report.ok() || report->recoveries.empty()) {
      return 0;
    }
    return report->recoveries[0].downtime;
  };
  const TimeNs downtime_with = measure_downtime(with_standby);
  const TimeNs downtime_without = measure_downtime(without_standby);
  // ASG provisioning (4-7 min) vs standby activation (~10 s); recovery-time
  // serialization (~161 s) overlaps the replacement, so the net saving is
  // the provisioning tail beyond serialization.
  EXPECT_LT(downtime_with + Minutes(1), downtime_without);
}

}  // namespace
}  // namespace gemini
