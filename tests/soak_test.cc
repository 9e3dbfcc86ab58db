// Randomized cross-subsystem soak tests: each seed drives a different
// schedule of failures, chunkings, or membership churn, and the invariants
// must hold for all of them. These are the "would I trust this in
// production" tests — they combine subsystems the unit suites exercise in
// isolation.
#include <gtest/gtest.h>

// GCC 12's inliner raises a false-positive -Wrestrict for std::string
// operator+ with a std::to_string temporary at -O2 (same optimizer-diagnostic
// family as GCC bug 105705, handled the same way in serializer.cc).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include "src/common/rng.h"
#include "src/gemini/gemini_system.h"
#include "src/gemini/replicator.h"
#include "src/kvstore/kv_store.h"
#include "src/schedule/partition.h"
#include "src/training/trainer.h"

namespace gemini {
namespace {

// ---------------------------------------------------------------------------
// Replicator x random chunkings: bytes must reassemble exactly no matter how
// Algorithm 2 (or anything else) slices the checkpoint.
// ---------------------------------------------------------------------------

class ReplicatorChunkFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ReplicatorChunkFuzz, ArbitraryChunkingsReassembleExactly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6271 + 3);
  const int machines = 4;
  Simulator sim;
  FabricConfig fabric_config;
  fabric_config.link_bandwidth = P4d24xlarge().network_bandwidth;
  Cluster cluster(sim, machines, P4d24xlarge(), fabric_config);
  const PlacementPlan placement = *BuildMixedPlacement(machines, 2);
  ShardedTrainer trainer(Gpt2_10B(), machines, 128, rng.NextU64());
  for (int step = 0; step < static_cast<int>(rng.UniformInt(0, 5)); ++step) {
    trainer.Step();
  }
  const Bytes replica = Gpt2_10B().CheckpointBytesPerMachine(machines);
  std::vector<std::unique_ptr<CpuCheckpointStore>> stores;
  std::vector<CpuCheckpointStore*> store_pointers;
  for (int rank = 0; rank < machines; ++rank) {
    stores.push_back(std::make_unique<CpuCheckpointStore>(cluster.machine(rank)));
    store_pointers.push_back(stores.back().get());
  }
  for (int owner = 0; owner < machines; ++owner) {
    for (const int holder : placement.replica_sets[static_cast<size_t>(owner)]) {
      ASSERT_TRUE(stores[static_cast<size_t>(holder)]->HostOwner(owner, replica).ok());
    }
  }
  // Random chunking: random count, random uneven sizes covering the replica.
  std::vector<ChunkAssignment> chunks;
  Bytes offset = 0;
  const int target_chunks = static_cast<int>(rng.UniformInt(1, 64));
  int index = 0;
  while (offset < replica) {
    Bytes size = std::min<Bytes>(replica - offset,
                                 rng.UniformInt(1, 2 * replica / target_chunks + 1));
    chunks.push_back(ChunkAssignment{index++, size, 0, offset});
    offset += size;
  }

  std::vector<Checkpoint> snapshots;
  for (int rank = 0; rank < machines; ++rank) {
    snapshots.push_back(trainer.MakeCheckpoint(rank));
  }
  ReplicatorConfig config;
  config.num_buffers = static_cast<int>(rng.UniformInt(1, 8));
  std::optional<ReplicationOutcome> outcome;
  ReplicateSnapshot(cluster, placement, store_pointers, snapshots, chunks, config,
                    [&](ReplicationOutcome result) { outcome = result; });
  sim.Run();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->status.ok()) << outcome->status;
  for (int owner = 0; owner < machines; ++owner) {
    for (const int holder : placement.replica_sets[static_cast<size_t>(owner)]) {
      const auto stored = stores[static_cast<size_t>(holder)]->Latest(owner);
      ASSERT_TRUE(stored.has_value());
      EXPECT_EQ(*stored, snapshots[static_cast<size_t>(owner)])
          << "owner " << owner << " at holder " << holder << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicatorChunkFuzz, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// KV store churn: machines die and resurrect at random; whenever a quorum
// exists long enough, exactly one leader emerges and committed data is never
// lost.
// ---------------------------------------------------------------------------

class KvChurnFuzz : public ::testing::TestWithParam<int> {};

TEST_P(KvChurnFuzz, CommittedDataSurvivesMembershipChurn) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 911 + 7);
  Simulator sim;
  std::vector<bool> alive(5, true);
  FabricConfig fabric_config;
  Fabric fabric(sim, 5, fabric_config);
  fabric.set_liveness_check([&](int rank) { return alive[static_cast<size_t>(rank)]; });
  KvStoreCluster kv(
      sim, fabric, {0, 1, 2, 3, 4},
      [&](int rank) { return alive[static_cast<size_t>(rank)]; }, KvStoreConfig{},
      rng.NextU64());
  kv.Start();
  // Flips a rank's liveness and announces it, as Machine::set_health does.
  const auto set_alive = [&](int rank, bool up) {
    alive[static_cast<size_t>(rank)] = up;
    fabric.NotifyLivenessChanged(rank, up);
  };

  std::map<std::string, std::string> committed;
  int sequence = 0;
  for (int round = 0; round < 15; ++round) {
    // Random churn: kill or revive one node, keeping a quorum (>= 3 alive).
    const int victim = static_cast<int>(rng.UniformInt(0, 4));
    const int alive_count =
        static_cast<int>(std::count(alive.begin(), alive.end(), true));
    if (alive[static_cast<size_t>(victim)] && alive_count > 3 && rng.Bernoulli(0.5)) {
      set_alive(victim, false);
    } else if (!alive[static_cast<size_t>(victim)]) {
      set_alive(victim, true);
      kv.node(victim).ResetAndRestart();
    }
    // Let the cluster settle, then write if a leader exists.
    sim.RunUntil(sim.now() + Seconds(5));
    if (kv.LeaderRank().has_value()) {
      const std::string key = "/soak/" + std::to_string(sequence);
      const std::string value = "v" + std::to_string(sequence);
      Status result = InternalError("pending");
      kv.Put(key, value, kNoLease, [&](Status status) { result = status; });
      sim.RunUntil(sim.now() + Seconds(2));
      if (result.ok()) {
        committed[key] = value;
        ++sequence;
      }
    }
  }
  // Heal everything and verify all acknowledged writes survived.
  for (size_t rank = 0; rank < alive.size(); ++rank) {
    if (!alive[rank]) {
      set_alive(static_cast<int>(rank), true);
      kv.node(static_cast<int>(rank)).ResetAndRestart();
    }
  }
  sim.RunUntil(sim.now() + Seconds(10));
  ASSERT_TRUE(kv.LeaderRank().has_value());
  EXPECT_GT(committed.size(), 0u) << "churn prevented every write; weak test";
  for (const auto& [key, value] : committed) {
    const StatusOr<KvEntry> entry = kv.Get(key);
    ASSERT_TRUE(entry.ok()) << key << " lost after churn (seed " << GetParam() << ")";
    EXPECT_EQ(entry->value, value);
  }
  // Single-leader convergence after heal.
  int leaders = 0;
  for (int i = 0; i < kv.num_nodes(); ++i) {
    leaders += kv.node(i).role() == KvNode::Role::kLeader ? 1 : 0;
  }
  EXPECT_EQ(leaders, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvChurnFuzz, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Full-system soak: random failure schedules; whenever training reaches the
// target, the state must equal the uninterrupted reference bit-for-bit.
// ---------------------------------------------------------------------------

class GeminiSoak : public ::testing::TestWithParam<int> {};

TEST_P(GeminiSoak, RandomFailureSchedulesConvergeToReference) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 4099 + 11);
  GeminiConfig config;
  config.model = Gpt2_100B();
  config.instance = P4d24xlarge();
  config.num_machines = 8;
  config.payload_elements = 24;
  config.seed = 1000 + static_cast<uint64_t>(GetParam());
  config.cloud.num_standby = 2;
  config.kv_server_count = 3;

  GeminiSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  // 1-3 random failures at random instants; avoid the KV quorum ranks for
  // hardware failures so detection always stays possible.
  const int failures = static_cast<int>(rng.UniformInt(1, 3));
  for (int f = 0; f < failures; ++f) {
    const TimeNs when = rng.UniformInt(Minutes(2), Minutes(25));
    const bool software = rng.Bernoulli(0.5);
    const int victim = static_cast<int>(rng.UniformInt(software ? 0 : 3, 7));
    system.failure_injector().InjectAt(
        when, software ? FailureType::kSoftware : FailureType::kHardware, {victim});
  }
  const auto report = system.TrainUntil(16, /*sim_deadline=*/Hours(6));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->iterations_completed, 16)
      << "seed " << GetParam() << " failed to reach the target";

  ShardedTrainer reference(config.model, config.num_machines, config.payload_elements,
                           config.seed);
  for (int i = 0; i < 16; ++i) {
    reference.Step();
  }
  for (int rank = 0; rank < config.num_machines; ++rank) {
    EXPECT_EQ(system.trainer().shard(rank), reference.shard(rank))
        << "rank " << rank << " diverged under seed " << GetParam();
  }
  // Every recovery left the stores re-protected: the latest committed
  // checkpoint exists at every holder.
  for (int owner = 0; owner < config.num_machines; ++owner) {
    for (const int holder : system.placement().replica_sets[static_cast<size_t>(owner)]) {
      EXPECT_GE(system.cpu_store(holder).LatestIteration(owner), 14) << "owner " << owner;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeminiSoak, ::testing::Range(0, 8));

}  // namespace
}  // namespace gemini
