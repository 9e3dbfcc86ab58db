// Tests for the chunked checkpoint replicator: real bytes flowing through
// the fabric and PCIe engines into the double-buffered CPU stores, and
// cross-validation of the analytic scheduling model.
#include <gtest/gtest.h>

#include "src/gemini/replicator.h"
#include "src/obs/metrics.h"
#include "src/storage/delta.h"
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

  // Lands `snapshots` whole on every holder except `target`'s copy of
  // `owner`, which re-protection then has to stream.
  void CommitAllBut(const std::vector<Checkpoint>& snapshots, int target, int owner) {
    for (int o = 0; o < kMachines; ++o) {
      for (const int holder : placement_.replica_sets[static_cast<size_t>(o)]) {
        if (holder != target || o != owner) {
          ASSERT_TRUE(stores_[static_cast<size_t>(holder)]
                          ->WriteComplete(snapshots[static_cast<size_t>(o)])
                          .ok());
        }
      }
    }
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

TEST_F(ReplicatorTest, ReprotectedReplicaSharesTheSourceBuffer) {
  trainer_->Step();
  const std::vector<Checkpoint> snapshots = Snapshots();
  const int target = placement_.replica_sets[0][1];
  CommitAllBut(snapshots, target, /*owner=*/0);
  std::optional<ReplicationOutcome> outcome;
  const Bytes replica = Gpt2_10B().CheckpointBytesPerMachine(kMachines);
  ReprotectReplicas(*cluster_, placement_, StorePointers(), {target}, replica / 8,
                    ReplicatorConfig{}, [&](ReplicationOutcome result) { outcome = result; });
  sim_.Run();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->status.ok()) << outcome->status;
  EXPECT_EQ(outcome->chunks_transferred, 8);
  const std::optional<Checkpoint> landed = stores_[static_cast<size_t>(target)]->Latest(0);
  ASSERT_TRUE(landed.has_value());
  EXPECT_EQ(*landed, snapshots[0]);
  // The replica lands whole: no reassembly copy, the source's buffer itself.
  EXPECT_TRUE(landed->payload.SharesBufferWith(stores_[0]->Latest(0)->payload));
}

// Re-protects owner 0 onto its peer holder in 16 chunks and, six chunk
// times in, runs `mid_stream` on that holder's store (a foreground write).
class ReprotectRaceTest : public ReplicatorTest {
 protected:
  ReplicationOutcome RaceWith(const std::function<Status(CpuCheckpointStore&)>& mid_stream) {
    const Bytes replica = Gpt2_10B().CheckpointBytesPerMachine(kMachines);
    ReplicatorConfig config;
    config.metrics = &metrics_;
    std::optional<ReplicationOutcome> outcome;
    ReprotectReplicas(*cluster_, placement_, StorePointers(), {target_}, replica / 16, config,
                      [&](ReplicationOutcome result) {
                        EXPECT_FALSE(outcome.has_value()) << "done fired twice";
                        outcome = result;
                        commits_at_done_ = metrics_.counter_value("replicator.commits");
                      });
    sim_.ScheduleAfter(TransferTime(6 * replica / 16, P4d24xlarge().network_bandwidth), [&] {
      chunks_at_write_ = metrics_.counter_value("replicator.chunks_transferred");
      EXPECT_LT(chunks_at_write_, 16);
      EXPECT_TRUE(mid_stream(*stores_[static_cast<size_t>(target_)]).ok());
    });
    sim_.Run();
    EXPECT_TRUE(outcome.has_value());
    return outcome.value_or(ReplicationOutcome{});
  }

  const int target_ = placement_.replica_sets[0][1];
  MetricsRegistry metrics_;
  int64_t chunks_at_write_ = -1;
  int64_t commits_at_done_ = -1;
};

TEST_F(ReprotectRaceTest, NewerForegroundWriteEndsTheStreamAsSuccess) {
  trainer_->Step();
  const std::vector<Checkpoint> first = Snapshots();
  CommitAllBut(first, target_, /*owner=*/0);
  trainer_->Step();
  const Checkpoint newer = trainer_->MakeCheckpoint(0);
  const ReplicationOutcome outcome =
      RaceWith([&](CpuCheckpointStore& store) { return store.WriteComplete(newer); });
  EXPECT_TRUE(outcome.status.ok()) << outcome.status;
  // The stream ended at its next landed chunk: only chunks already in flight
  // (at most one window) moved after the write, and it committed nothing.
  ASSERT_GE(chunks_at_write_, 0);
  EXPECT_LE(metrics_.counter_value("replicator.chunks_transferred"),
            chunks_at_write_ + ReplicatorConfig{}.num_buffers);
  EXPECT_EQ(metrics_.counter_value("replicator.commits"), 0);
  const std::optional<Checkpoint> kept = stores_[static_cast<size_t>(target_)]->Latest(0);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->iteration, newer.iteration);
  EXPECT_TRUE(kept->payload.SharesBufferWith(newer.payload));
}

TEST_F(ReprotectRaceTest, EndedStreamFinishesOnceWhileItsSiblingStillRuns) {
  // A replaced target misses both owners it holds (owner 0 and itself), so
  // the pass runs two streams. Owner 0's ends superseded with a window of
  // chunks still in flight; those landings must not count it finished
  // again, or the pass would report done before the sibling committed.
  trainer_->Step();
  const std::vector<Checkpoint> first = Snapshots();
  const int sibling = target_;
  CommitAllBut(first, target_, /*owner=*/0);
  Machine replacement(target_, 1, P4d24xlarge());
  stores_[static_cast<size_t>(target_)]->ResetForMachine(replacement);
  for (const int owner : {0, sibling}) {
    ASSERT_TRUE(stores_[static_cast<size_t>(target_)]
                    ->HostOwner(owner, Gpt2_10B().CheckpointBytesPerMachine(kMachines))
                    .ok());
  }
  trainer_->Step();
  const Checkpoint newer = trainer_->MakeCheckpoint(0);
  const ReplicationOutcome outcome =
      RaceWith([&](CpuCheckpointStore& store) { return store.WriteComplete(newer); });
  EXPECT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_EQ(commits_at_done_, 1);
  EXPECT_EQ(stores_[static_cast<size_t>(target_)]->Latest(sibling),
            first[static_cast<size_t>(sibling)]);
}

TEST_F(ReprotectRaceTest, DeltaMidStreamLeavesTheStreamRunning) {
  // The target holds owner 0 at iteration 1 and the source at iteration 2. A
  // delta appended mid-stream does not move the slot's seal, so the stream
  // still lands its replica whole over the chain.
  trainer_->Step();
  const std::vector<Checkpoint> first = Snapshots();
  CommitAllBut(first, /*target=*/-1, /*owner=*/-1);
  trainer_->Step();
  const Checkpoint second = trainer_->MakeCheckpoint(0);
  ASSERT_TRUE(stores_[0]->WriteComplete(second).ok());
  const ReplicationOutcome outcome = RaceWith([&](CpuCheckpointStore& store) {
    return store.WriteDelta(*BuildDeltaCheckpoint(first[0], second, 8));
  });
  EXPECT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_EQ(metrics_.counter_value("replicator.commits"), 1);
  EXPECT_EQ(metrics_.counter_value("replicator.chunks_transferred"), 16);
  EXPECT_EQ(stores_[static_cast<size_t>(target_)]->ChainLength(0), 0u);
  EXPECT_TRUE(stores_[static_cast<size_t>(target_)]->Latest(0)->payload.SharesBufferWith(
      second.payload));
}

TEST_F(ReprotectRaceTest, OlderFullWriteMidStreamFailsThePass) {
  trainer_->Step();
  const Checkpoint older = trainer_->MakeCheckpoint(0);
  trainer_->Step();
  CommitAllBut(Snapshots(), target_, /*owner=*/0);
  const ReplicationOutcome outcome =
      RaceWith([&](CpuCheckpointStore& store) { return store.WriteComplete(older); });
  EXPECT_EQ(outcome.status.code(), StatusCode::kFailedPrecondition) << outcome.status;
  EXPECT_EQ(metrics_.counter_value("replicator.commits"), 0);
  EXPECT_EQ(stores_[static_cast<size_t>(target_)]->LatestIteration(0), older.iteration);
}

TEST_F(ReplicatorTest, ChunksMustCoverTheReplicaExactly) {
  const std::vector<Checkpoint> snapshots = Snapshots();
  const auto run = [&](const std::vector<ChunkAssignment>& chunks) {
    std::optional<ReplicationOutcome> outcome;
    ReplicateSnapshot(*cluster_, placement_, StorePointers(), snapshots, chunks,
                      ReplicatorConfig{}, [&](ReplicationOutcome result) { outcome = result; });
    sim_.Run();
    EXPECT_TRUE(outcome.has_value());
    return outcome.value_or(ReplicationOutcome{}).status.code();
  };
  // One chunk past the replica's end overflows the ongoing buffer when it
  // lands; a missing last chunk leaves a short replica that commit refuses.
  std::vector<ChunkAssignment> overflow = EvenChunks(4);
  overflow.push_back(overflow.back());
  EXPECT_EQ(run(overflow), StatusCode::kInvalidArgument);
  std::vector<ChunkAssignment> short_chunks = EvenChunks(4);
  short_chunks.pop_back();
  EXPECT_EQ(run(short_chunks), StatusCode::kDataLoss);
  for (int owner = 0; owner < kMachines; ++owner) {
    EXPECT_EQ(stores_[static_cast<size_t>(placement_.replica_sets[static_cast<size_t>(owner)][1])]
                  ->LatestIteration(owner),
              -1);
  }
}

}  // namespace
}  // namespace gemini
