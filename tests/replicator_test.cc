// Tests for the chunked checkpoint replicator: real bytes flowing through
// the fabric and PCIe engines into the double-buffered CPU stores, and
// cross-validation of the analytic scheduling model.
#include <gtest/gtest.h>

#include "src/gemini/replicator.h"
#include "src/training/trainer.h"

namespace gemini {
namespace {

class ReplicatorTest : public ::testing::Test {
 protected:
  static constexpr int kMachines = 4;

  ReplicatorTest() {
    FabricConfig fabric;
    fabric.link_bandwidth = P4d24xlarge().network_bandwidth;
    cluster_ = std::make_unique<Cluster>(sim_, kMachines, P4d24xlarge(), fabric);
    placement_ = *BuildMixedPlacement(kMachines, 2);
    trainer_ = std::make_unique<ShardedTrainer>(Gpt2_10B(), kMachines, 64, /*seed=*/5);
    const Bytes replica = Gpt2_10B().CheckpointBytesPerMachine(kMachines);
    for (int rank = 0; rank < kMachines; ++rank) {
      stores_.push_back(std::make_unique<CpuCheckpointStore>(cluster_->machine(rank)));
      for (const int owner : {rank, placement_.replica_sets[static_cast<size_t>(rank)][1]}) {
        (void)owner;
      }
    }
    for (int owner = 0; owner < kMachines; ++owner) {
      for (const int holder : placement_.replica_sets[static_cast<size_t>(owner)]) {
        EXPECT_TRUE(stores_[static_cast<size_t>(holder)]->HostOwner(owner, replica).ok());
      }
    }
  }

  std::vector<CpuCheckpointStore*> StorePointers() {
    std::vector<CpuCheckpointStore*> out;
    for (auto& store : stores_) {
      out.push_back(store.get());
    }
    return out;
  }

  std::vector<Checkpoint> Snapshots() {
    std::vector<Checkpoint> snapshots;
    for (int rank = 0; rank < kMachines; ++rank) {
      snapshots.push_back(trainer_->MakeCheckpoint(rank));
    }
    return snapshots;
  }

  // Chunks for one remote replica: fixed-size slices of the checkpoint.
  std::vector<ChunkAssignment> EvenChunks(int count) {
    const Bytes replica = Gpt2_10B().CheckpointBytesPerMachine(kMachines);
    std::vector<ChunkAssignment> chunks;
    Bytes offset = 0;
    for (int i = 0; i < count; ++i) {
      const Bytes size = i + 1 == count ? replica - offset : replica / count;
      chunks.push_back(ChunkAssignment{i, size, 0, offset});
      offset += size;
    }
    return chunks;
  }

  Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
  PlacementPlan placement_;
  std::unique_ptr<ShardedTrainer> trainer_;
  std::vector<std::unique_ptr<CpuCheckpointStore>> stores_;
};

TEST_F(ReplicatorTest, CommitsBitIdenticalCheckpointsAtAllHolders) {
  trainer_->Step();
  trainer_->Step();
  const std::vector<Checkpoint> snapshots = Snapshots();
  std::optional<ReplicationOutcome> outcome;
  ReplicateSnapshot(*cluster_, placement_, StorePointers(), snapshots, EvenChunks(16),
                    ReplicatorConfig{}, [&](ReplicationOutcome result) { outcome = result; });
  sim_.Run();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->status.ok()) << outcome->status;
  for (int owner = 0; owner < kMachines; ++owner) {
    for (const int holder : placement_.replica_sets[static_cast<size_t>(owner)]) {
      const auto stored = stores_[static_cast<size_t>(holder)]->Latest(owner);
      ASSERT_TRUE(stored.has_value()) << "holder " << holder << " missing owner " << owner;
      EXPECT_EQ(*stored, snapshots[static_cast<size_t>(owner)])
          << "holder " << holder << " owner " << owner << " bytes diverged";
    }
  }
  // 3 remote streams... every owner sends one remote copy: 4 x 16 chunks.
  EXPECT_EQ(outcome->chunks_transferred, kMachines * 16);
}

TEST_F(ReplicatorTest, CommitRejectsPayloadDigestMismatch) {
  // A snapshot whose stamped digest does not match its bytes must be refused
  // at commit (the pre-commit integrity CRC), not silently replicated.
  trainer_->Step();
  std::vector<Checkpoint> snapshots = Snapshots();
  snapshots[1].payload_crc ^= 0x5A5A5A5Au;
  std::optional<ReplicationOutcome> outcome;
  ReplicateSnapshot(*cluster_, placement_, StorePointers(), snapshots, EvenChunks(4),
                    ReplicatorConfig{}, [&](ReplicationOutcome result) { outcome = result; });
  sim_.Run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status.code(), StatusCode::kDataLoss) << outcome->status;
}

TEST_F(ReplicatorTest, TimingMatchesAnalyticTransmission) {
  const std::vector<Checkpoint> snapshots = Snapshots();
  const std::vector<ChunkAssignment> chunks = EvenChunks(16);
  std::optional<ReplicationOutcome> outcome;
  ReplicateSnapshot(*cluster_, placement_, StorePointers(), snapshots, chunks,
                    ReplicatorConfig{}, [&](ReplicationOutcome result) { outcome = result; });
  sim_.Run();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->status.ok());
  // Every machine exchanges one full replica with its group peer over the
  // full-duplex NIC: network completion ~= C/B plus per-chunk alphas.
  const Bytes replica = Gpt2_10B().CheckpointBytesPerMachine(kMachines);
  const TimeNs expected = TransferTime(replica, P4d24xlarge().network_bandwidth) +
                          16 * FabricConfig{}.alpha;
  EXPECT_NEAR(ToSeconds(outcome->network_done), ToSeconds(expected),
              ToSeconds(expected) * 0.05);
  // The pipelined copies drain shortly after (copy bandwidth == NIC rate on
  // p4d): commit lands within one chunk-copy of the last receive.
  EXPECT_LE(outcome->committed_at,
            outcome->network_done + TransferTime(replica / 16, P4d24xlarge().network_bandwidth) +
                Millis(1));
}

TEST_F(ReplicatorTest, HolderDeathMidReplicationFailsButPreservesCompleted) {
  // Commit a first snapshot fully.
  const std::vector<Checkpoint> first = Snapshots();
  bool first_ok = false;
  ReplicateSnapshot(*cluster_, placement_, StorePointers(), first, EvenChunks(8),
                    ReplicatorConfig{},
                    [&](ReplicationOutcome result) { first_ok = result.status.ok(); });
  sim_.Run();
  ASSERT_TRUE(first_ok);

  // Second snapshot: kill machine 1 mid-stream.
  trainer_->Step();
  std::optional<ReplicationOutcome> outcome;
  ReplicateSnapshot(*cluster_, placement_, StorePointers(), Snapshots(), EvenChunks(8),
                    ReplicatorConfig{}, [&](ReplicationOutcome result) { outcome = result; });
  sim_.ScheduleAfter(Millis(200), [&] {
    cluster_->machine(1).set_health(MachineHealth::kDead);
  });
  sim_.Run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->status.ok());
  // Double buffering: machine 0's store still serves machine 1's *previous*
  // complete checkpoint — exactly what recovery will need.
  const auto preserved = stores_[0]->Latest(1);
  ASSERT_TRUE(preserved.has_value());
  EXPECT_EQ(*preserved, first[1]);
}

TEST_F(ReplicatorTest, SingleChunkDegenerateCase) {
  const std::vector<Checkpoint> snapshots = Snapshots();
  std::optional<ReplicationOutcome> outcome;
  ReplicateSnapshot(*cluster_, placement_, StorePointers(), snapshots, EvenChunks(1),
                    ReplicatorConfig{}, [&](ReplicationOutcome result) { outcome = result; });
  sim_.Run();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->status.ok());
  EXPECT_EQ(stores_[1]->Latest(0)->payload, snapshots[0].payload);
}

TEST_F(ReplicatorTest, ManySmallChunksStillReassembleExactly) {
  trainer_->Step();
  const std::vector<Checkpoint> snapshots = Snapshots();
  std::optional<ReplicationOutcome> outcome;
  ReplicateSnapshot(*cluster_, placement_, StorePointers(), snapshots, EvenChunks(257),
                    ReplicatorConfig{}, [&](ReplicationOutcome result) { outcome = result; });
  sim_.Run();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->status.ok()) << outcome->status;
  for (int owner = 0; owner < kMachines; ++owner) {
    const int peer = placement_.replica_sets[static_cast<size_t>(owner)][1];
    EXPECT_EQ(stores_[static_cast<size_t>(peer)]->Latest(owner)->payload,
              snapshots[static_cast<size_t>(owner)].payload);
  }
}

}  // namespace
}  // namespace gemini
