// Tests for checkpoint serialization, the CPU-memory checkpoint store
// (double buffering), and the persistent store.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/cluster/instance_spec.h"
#include "src/cluster/machine.h"
#include "src/common/calibration.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/policy/cost_model.h"
#include "src/storage/cpu_store.h"
#include "src/storage/persistent_store.h"
#include "src/storage/serializer.h"

namespace gemini {
namespace {

Checkpoint MakeCheckpoint(int owner, int64_t iteration, Bytes logical, size_t payload = 16) {
  Checkpoint checkpoint;
  checkpoint.owner_rank = owner;
  checkpoint.iteration = iteration;
  checkpoint.logical_bytes = logical;
  std::vector<float> values(payload);
  for (size_t i = 0; i < payload; ++i) {
    values[i] = static_cast<float>(owner) + static_cast<float>(i) * 0.5f +
                static_cast<float>(iteration) * 0.01f;
  }
  checkpoint.payload = std::move(values);
  return checkpoint;
}

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

TEST(SerializerTest, RoundTripsAllFields) {
  const Checkpoint original = MakeCheckpoint(7, 42, GiB(75), 128);
  const std::vector<uint8_t> blob = SerializeCheckpoint(original);
  const StatusOr<Checkpoint> restored = DeserializeCheckpoint(blob);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(*restored, original);
}

TEST(SerializerTest, RoundTripsEmptyPayload) {
  Checkpoint original = MakeCheckpoint(0, 0, 0, 0);
  const StatusOr<Checkpoint> restored = DeserializeCheckpoint(SerializeCheckpoint(original));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, original);
}

TEST(SerializerTest, RejectsBadMagic) {
  std::vector<uint8_t> blob = SerializeCheckpoint(MakeCheckpoint(1, 1, 100));
  blob[0] = 'X';
  EXPECT_EQ(DeserializeCheckpoint(blob).status().code(), StatusCode::kDataLoss);
}

TEST(SerializerTest, RejectsTruncatedBlob) {
  std::vector<uint8_t> blob = SerializeCheckpoint(MakeCheckpoint(1, 1, 100));
  blob.resize(blob.size() / 2);
  EXPECT_EQ(DeserializeCheckpoint(blob).status().code(), StatusCode::kDataLoss);
}

TEST(SerializerTest, RejectsEmptyBlob) {
  EXPECT_EQ(DeserializeCheckpoint({}).status().code(), StatusCode::kDataLoss);
}

// Property: any single corrupted byte must be detected by the CRC. (A
// recovery path silently loading corrupt state would be a correctness
// disaster, so this sweeps byte positions across the blob.)
class SerializerCorruptionTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializerCorruptionTest, DetectsByteCorruption) {
  std::vector<uint8_t> blob = SerializeCheckpoint(MakeCheckpoint(3, 9, GiB(1), 64));
  const size_t position = static_cast<size_t>(GetParam()) * (blob.size() - 1) / 16;
  blob[position] ^= 0xA5;
  EXPECT_FALSE(DeserializeCheckpoint(blob).ok())
      << "corruption at byte " << position << " of " << blob.size() << " went undetected";
}

INSTANTIATE_TEST_SUITE_P(BytePositions, SerializerCorruptionTest, ::testing::Range(0, 17));

TEST(SerializationCalibrationTest, MatchesPaperMeasurements) {
  // 75 GB replica at ~1 GB/s is ~81 s (HighFreq's per-checkpoint
  // serialization); two replicas at recovery are ~162 s (Figure 14).
  const Bytes replica = 75'000'000'000;  // GPT-2 100B / 16 machines.
  EXPECT_NEAR(ToSeconds(SerializationStall(replica, kSerializationBandwidth)), 81.0, 1.0);
  EXPECT_NEAR(ToSeconds(RecoverySerializationStall(2, replica)), 162.0, 2.0);
}

// ---------------------------------------------------------------------------
// CpuCheckpointStore
// ---------------------------------------------------------------------------

class CpuStoreTest : public ::testing::Test {
 protected:
  CpuStoreTest() : machine_(0, 0, P4d24xlarge()), store_(machine_) {}

  Machine machine_;
  CpuCheckpointStore store_;
};

TEST_F(CpuStoreTest, HostOwnerReservesDoubleBuffer) {
  ASSERT_TRUE(store_.HostOwner(0, GiB(75)).ok());
  EXPECT_EQ(store_.reserved_bytes(), GiB(150));
  EXPECT_EQ(machine_.cpu_memory_used(), GiB(150));
  EXPECT_TRUE(store_.Hosts(0));
  EXPECT_FALSE(store_.Hosts(1));
}

TEST_F(CpuStoreTest, HostOwnerIdempotentForSameSize) {
  ASSERT_TRUE(store_.HostOwner(0, GiB(10)).ok());
  ASSERT_TRUE(store_.HostOwner(0, GiB(10)).ok());
  EXPECT_EQ(store_.reserved_bytes(), GiB(20));
  EXPECT_EQ(store_.HostOwner(0, GiB(20)).code(), StatusCode::kAlreadyExists);
}

TEST_F(CpuStoreTest, HostOwnerFailsWhenCpuMemoryExhausted) {
  // p4d has 1152 GiB; two 300 GiB owners (600 GiB each double-buffered)
  // exceed it.
  ASSERT_TRUE(store_.HostOwner(0, GiB(300)).ok());
  EXPECT_EQ(store_.HostOwner(1, GiB(300)).code(), StatusCode::kResourceExhausted);
}

TEST_F(CpuStoreTest, CommitSwapsBuffers) {
  ASSERT_TRUE(store_.HostOwner(2, 1000).ok());
  ASSERT_TRUE(store_.WriteComplete(MakeCheckpoint(2, 5, 1000)).ok());
  ASSERT_TRUE(store_.WriteComplete(MakeCheckpoint(2, 6, 1000)).ok());
  EXPECT_EQ(store_.LatestIteration(2), 6);
}

TEST_F(CpuStoreTest, OversizedWriteFails) {
  ASSERT_TRUE(store_.HostOwner(2, 1000).ok());
  EXPECT_EQ(store_.WriteComplete(MakeCheckpoint(2, 5, 1500)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.LatestIteration(2), -1);
}

TEST_F(CpuStoreTest, SealMovesOnFullWriteAndFreshHostingOnly) {
  EXPECT_EQ(store_.Seal(2), 0u);
  ASSERT_TRUE(store_.HostOwner(2, 1000).ok());
  const uint64_t hosted = store_.Seal(2);
  EXPECT_NE(hosted, 0u);
  ASSERT_TRUE(store_.HostOwner(2, 1000).ok());  // Idempotent: same slot.
  EXPECT_EQ(store_.Seal(2), hosted);
  ASSERT_TRUE(store_.WriteComplete(MakeCheckpoint(2, 5, 1000)).ok());
  const uint64_t written = store_.Seal(2);
  EXPECT_NE(written, hosted);
  // A slot hosted again on a replacement machine never reuses a seal.
  Machine replacement(0, 1, P4d24xlarge());
  store_.ResetForMachine(replacement);
  ASSERT_TRUE(store_.HostOwner(2, 1000).ok());
  EXPECT_NE(store_.Seal(2), hosted);
  EXPECT_NE(store_.Seal(2), written);
}

TEST_F(CpuStoreTest, WriteToUnhostedOwnerFails) {
  EXPECT_EQ(store_.WriteComplete(MakeCheckpoint(9, 1, 1000)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store_.LatestIteration(9), -1);
}

TEST_F(CpuStoreTest, ResetForMachineDropsEverything) {
  ASSERT_TRUE(store_.HostOwner(2, 1000).ok());
  ASSERT_TRUE(store_.WriteComplete(MakeCheckpoint(2, 5, 1000)).ok());
  Machine replacement(0, 1, P4d24xlarge());
  store_.ResetForMachine(replacement);
  EXPECT_FALSE(store_.Hosts(2));
  EXPECT_EQ(store_.Latest(2), std::nullopt);
  EXPECT_EQ(replacement.cpu_memory_used(), 0);
}

TEST_F(CpuStoreTest, LatestIterationForUnknownOwnerIsMinusOne) {
  EXPECT_EQ(store_.LatestIteration(4), -1);
}

TEST_F(CpuStoreTest, VerifiedReadServesUntilCorrupted) {
  ASSERT_TRUE(store_.HostOwner(1, 1000).ok());
  Checkpoint snapshot = MakeCheckpoint(1, 9, 1000);
  snapshot.StampPayloadCrc();
  ASSERT_TRUE(store_.WriteComplete(snapshot).ok());
  EXPECT_EQ(store_.LatestIteration(1), 9);
  EXPECT_EQ(store_.LatestIteration(5), -1);
  const std::optional<Checkpoint> verified = store_.LatestVerified(1);
  ASSERT_TRUE(verified.has_value());
  EXPECT_EQ(verified->payload, snapshot.payload);
  // Bit-rot through the corruption door makes the store refuse the replica.
  ASSERT_TRUE(store_.CorruptLatest(1, /*bit_index=*/21).ok());
  EXPECT_EQ(store_.LatestVerified(1), std::nullopt);
  EXPECT_EQ(store_.CorruptLatest(5, 0).code(), StatusCode::kNotFound);
}

TEST_F(CpuStoreTest, MultipleOwnersAreIndependent) {
  ASSERT_TRUE(store_.HostOwner(0, 1000).ok());
  ASSERT_TRUE(store_.HostOwner(1, 1000).ok());
  ASSERT_TRUE(store_.WriteComplete(MakeCheckpoint(0, 3, 1000)).ok());
  ASSERT_TRUE(store_.WriteComplete(MakeCheckpoint(1, 4, 1000)).ok());
  EXPECT_EQ(store_.Latest(0)->iteration, 3);
  EXPECT_EQ(store_.Latest(1)->iteration, 4);
}

// ---------------------------------------------------------------------------
// Payload sharing (PayloadRef / PayloadPool / copy-on-write)
// ---------------------------------------------------------------------------

TEST(PayloadRefTest, CopiesShareOneBuffer) {
  PayloadRef original(std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  PayloadRef copy = original;
  EXPECT_TRUE(copy.SharesBufferWith(original));
  EXPECT_EQ(copy, original);
  EXPECT_EQ(original.use_count(), 2);
}

TEST(PayloadRefTest, SliceViewsSameBufferWithoutCopying) {
  PayloadRef full(std::vector<float>{0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f});
  PayloadRef view = full.Slice(2, 3);
  EXPECT_TRUE(view.SharesBufferWith(full));
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0], 2.0f);
  EXPECT_EQ(view[2], 4.0f);
}

TEST(PayloadRefTest, MutableDataDetachesOntoPrivateCopy) {
  PayloadRef original(std::vector<float>{1.0f, 2.0f, 3.0f});
  PayloadRef corrupted = original;
  corrupted.MutableData()[1] = -99.0f;
  EXPECT_FALSE(corrupted.SharesBufferWith(original));
  EXPECT_EQ(original[1], 2.0f);  // The other holder never sees the write.
  EXPECT_EQ(corrupted[1], -99.0f);
}

TEST(PayloadPoolTest, RecyclesReleasedBuffersButNotPinnedOnes) {
  PayloadPool pool;
  std::shared_ptr<std::vector<float>> first = pool.Acquire(64);
  std::vector<float>* first_raw = first.get();
  // Still referenced (a store's completed slot would hold it like this): a
  // second Acquire must not hand the same buffer out again.
  std::shared_ptr<std::vector<float>> second = pool.Acquire(64);
  EXPECT_NE(second.get(), first_raw);
  EXPECT_EQ(pool.allocated_buffers(), 2u);
  // Once released, the buffer is reused instead of allocating a third.
  pool.Release(std::move(first));
  std::shared_ptr<std::vector<float>> third = pool.Acquire(32);
  EXPECT_EQ(third.get(), first_raw);
  EXPECT_EQ(third->size(), 32u);
  EXPECT_EQ(pool.allocated_buffers(), 2u);
}

TEST_F(CpuStoreTest, CommittedCheckpointsAcrossStoresAliasOneBuffer) {
  // GeminiSystem hands the same staged snapshot to every holder; with
  // PayloadRef those commits are refcount bumps, not float copies.
  Machine other_machine(1, 0, P4d24xlarge());
  CpuCheckpointStore other_store(other_machine);
  ASSERT_TRUE(store_.HostOwner(2, 1000).ok());
  ASSERT_TRUE(other_store.HostOwner(2, 1000).ok());
  Checkpoint snapshot = MakeCheckpoint(2, 5, 1000);
  snapshot.StampPayloadCrc();
  ASSERT_TRUE(store_.WriteComplete(snapshot).ok());
  ASSERT_TRUE(other_store.WriteComplete(snapshot).ok());
  const std::optional<Checkpoint> a = store_.Latest(2);
  const std::optional<Checkpoint> b = other_store.Latest(2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(a->payload.SharesBufferWith(b->payload));
  EXPECT_TRUE(a->payload.SharesBufferWith(snapshot.payload));
}

TEST_F(CpuStoreTest, CorruptionOnOneHolderNeverLeaksToSiblings) {
  // Bit-rot injected into one replica must detach it onto a private copy:
  // the sibling holder keeps serving verified, clean bytes.
  Machine other_machine(1, 0, P4d24xlarge());
  CpuCheckpointStore other_store(other_machine);
  ASSERT_TRUE(store_.HostOwner(2, 5).ok());
  ASSERT_TRUE(other_store.HostOwner(2, 5).ok());
  Checkpoint snapshot = MakeCheckpoint(2, 7, 5);
  snapshot.StampPayloadCrc();
  ASSERT_TRUE(store_.WriteComplete(snapshot).ok());
  ASSERT_TRUE(other_store.WriteComplete(snapshot).ok());
  ASSERT_TRUE(store_.CorruptLatest(2, 13).ok());
  // The corrupted holder fails its CRC re-check; the sibling still passes and
  // its bytes are untouched.
  EXPECT_EQ(store_.LatestVerified(2), std::nullopt);
  const std::optional<Checkpoint> clean = other_store.LatestVerified(2);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(clean->payload, snapshot.payload);
  EXPECT_FALSE(store_.Latest(2)->payload.SharesBufferWith(clean->payload));
}

// ---------------------------------------------------------------------------
// PersistentStore
// ---------------------------------------------------------------------------

// The store runs at the calibrated FSx numbers: 20 Gb/s (2.5 GB/s)
// aggregate, 10 ms per request.
class PersistentStoreTest : public ::testing::Test {
 protected:
  PersistentStoreTest() : store_(std::make_unique<PersistentStore>(sim_)) {}

  Simulator sim_;
  std::unique_ptr<PersistentStore> store_;
};

TEST_F(PersistentStoreTest, SaveTakesBandwidthLimitedTime) {
  TimeNs done_at = -1;
  store_->Save(MakeCheckpoint(0, 1, 2'000'000'000), 1, [&](Status status) {
    EXPECT_TRUE(status.ok());
    done_at = sim_.now();
  });
  sim_.Run();
  EXPECT_EQ(done_at, Millis(800) + Millis(10));
  EXPECT_EQ(store_->bytes_written(), 2'000'000'000);
}

TEST_F(PersistentStoreTest, ConcurrentSavesShareAggregateBandwidth) {
  std::vector<TimeNs> completions;
  for (int rank = 0; rank < 3; ++rank) {
    store_->Save(MakeCheckpoint(rank, 1, 2'500'000'000), 3,
                 [&](Status) { completions.push_back(sim_.now()); });
  }
  sim_.Run();
  ASSERT_EQ(completions.size(), 3u);
  // FIFO through the shared pipe: 1 s apart each (the 20 Gb/s FSx effect).
  EXPECT_EQ(completions[2], Seconds(3) + Millis(30));
}

TEST_F(PersistentStoreTest, CompleteIterationRequiresAllShards) {
  store_->Save(MakeCheckpoint(0, 5, 1000), 2, [](Status) {});
  sim_.Run();
  EXPECT_EQ(store_->LatestCompleteIteration(), -1);
  store_->Save(MakeCheckpoint(1, 5, 1000), 2, [](Status) {});
  sim_.Run();
  EXPECT_EQ(store_->LatestCompleteIteration(), 5);
}

TEST_F(PersistentStoreTest, LatestCompletePrefersNewest) {
  for (const int64_t iteration : {5, 10}) {
    for (int rank = 0; rank < 2; ++rank) {
      store_->SeedImmediate(MakeCheckpoint(rank, iteration, 1000), 2);
    }
  }
  // Iteration 12 is incomplete.
  store_->SeedImmediate(MakeCheckpoint(0, 12, 1000), 2);
  EXPECT_EQ(store_->LatestCompleteIteration(), 10);
}

TEST_F(PersistentStoreTest, RetrieveReturnsStoredShard) {
  const Checkpoint original = MakeCheckpoint(1, 7, 2'500'000'000);
  store_->SeedImmediate(original, 2);
  std::optional<Checkpoint> fetched;
  TimeNs done_at = -1;
  store_->Retrieve(1, 7, [&](StatusOr<Checkpoint> result) {
    ASSERT_TRUE(result.ok()) << result.status();
    fetched = std::move(result).value();
    done_at = sim_.now();
  });
  sim_.Run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, original);
  EXPECT_EQ(done_at, Seconds(1) + Millis(10));  // Bandwidth-limited read.
}

TEST_F(PersistentStoreTest, RetrieveMissingShardIsNotFound) {
  Status result = Status::Ok();
  store_->Retrieve(0, 99, [&](StatusOr<Checkpoint> out) { result = out.status(); });
  sim_.Run();
  EXPECT_EQ(result.code(), StatusCode::kNotFound);
}

TEST_F(PersistentStoreTest, RetentionHoldsTheNewestCompleteSetAndTheOneBeingWritten) {
  // 30 two-rank sets queued through the FIFO at once: at every completion
  // the store holds at most the newest complete set and the one filling.
  constexpr int64_t kSets = 30;
  size_t most_retained = 0;
  for (int64_t iteration = 1; iteration <= kSets; ++iteration) {
    for (int rank = 0; rank < 2; ++rank) {
      store_->Save(MakeCheckpoint(rank, iteration, 1000), 2, [&](Status status) {
        EXPECT_TRUE(status.ok());
        most_retained = std::max(most_retained, store_->retained_iterations().size());
      });
    }
  }
  sim_.Run();
  EXPECT_LE(most_retained, 2u);
  EXPECT_EQ(store_->LatestCompleteIteration(), kSets);
  EXPECT_EQ(store_->retained_iterations(), std::vector<int64_t>{kSets});
  EXPECT_TRUE(store_->Peek(1, kSets).has_value());
}

// ---------------------------------------------------------------------------
// PersistentStore retrieval retry cascade
// ---------------------------------------------------------------------------

// The cascade runs at the calibrated schedule: 4 attempts, 100 ms backoff
// doubling up to a 2 s cap.
class PersistentRetryTest : public ::testing::Test {
 protected:
  PersistentRetryTest() : store_(std::make_unique<PersistentStore>(sim_)) {
    store_->set_metrics(&metrics_);
  }

  Simulator sim_;
  MetricsRegistry metrics_;
  std::unique_ptr<PersistentStore> store_;
};

TEST_F(PersistentRetryTest, TransientFaultsRetryThenSucceed) {
  const Checkpoint original = MakeCheckpoint(0, 3, 1'000'000, 32);
  store_->SeedImmediate(original, 1);
  // First two attempts fail; the third reads clean bytes.
  store_->set_fault_hook([](int, int64_t, int attempt) {
    return attempt < 2 ? UnavailableError("injected link flap") : Status::Ok();
  });
  std::optional<Checkpoint> fetched;
  store_->Retrieve(0, 3, [&](StatusOr<Checkpoint> result) {
    ASSERT_TRUE(result.ok()) << result.status();
    fetched = std::move(result).value();
  });
  sim_.Run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, original);
  EXPECT_EQ(metrics_.counter_value("persistent_store.retries"), 2);
  EXPECT_EQ(metrics_.counter_value("persistent_store.crc_failures"), 0);
}

TEST_F(PersistentRetryTest, RetriesBackOffExponentiallyUpToCap) {
  store_->SeedImmediate(MakeCheckpoint(0, 3, 1'000'000, 32), 1);
  std::vector<TimeNs> attempt_times;
  store_->set_fault_hook([&](int, int64_t, int) {
    attempt_times.push_back(sim_.now());
    return UnavailableError("always down");
  });
  Status result = Status::Ok();
  store_->Retrieve(0, 3, [&](StatusOr<Checkpoint> out) { result = out.status(); });
  sim_.Run();
  EXPECT_EQ(result.code(), StatusCode::kUnavailable);
  ASSERT_EQ(attempt_times.size(), 4u);  // Attempt cap honoured.
  // Gaps: backoff (100ms, 200ms, 400ms) plus one re-read each.
  const TimeNs reread = Millis(10) + Micros(400);  // latency + 1MB at 2.5 GB/s.
  EXPECT_EQ(attempt_times[1] - attempt_times[0], Millis(100) + reread);
  EXPECT_EQ(attempt_times[2] - attempt_times[1], Millis(200) + reread);
  EXPECT_EQ(attempt_times[3] - attempt_times[2], Millis(400) + reread);
  EXPECT_EQ(metrics_.counter_value("persistent_store.retries"), 3);
}

TEST_F(PersistentRetryTest, CorruptShardFailsCrcAcrossAllAttempts) {
  Checkpoint stamped = MakeCheckpoint(1, 5, 1'000'000, 64);
  stamped.StampPayloadCrc();
  store_->SeedImmediate(std::move(stamped), 1);
  ASSERT_TRUE(store_->CorruptShard(1, 5, /*bit_index=*/13).ok());
  Status result = Status::Ok();
  store_->Retrieve(1, 5, [&](StatusOr<Checkpoint> out) { result = out.status(); });
  sim_.Run();
  // The flipped bit never heals, so every attempt trips the CRC check and
  // the final status is data loss.
  EXPECT_EQ(result.code(), StatusCode::kDataLoss);
  EXPECT_EQ(metrics_.counter_value("persistent_store.crc_failures"), 4);
  EXPECT_EQ(metrics_.counter_value("persistent_store.retries"), 3);
  EXPECT_EQ(metrics_.counter_value("persistent_store.corruptions"), 1);
}

TEST_F(PersistentRetryTest, NewerSetCompletingDuringARetryKeepsTheSetBeingRead) {
  const Checkpoint original = MakeCheckpoint(0, 3, 1'000'000, 32);
  store_->SeedImmediate(original, 1);
  // The first two attempts fail, so every retry re-reads iteration 3 after
  // iteration 4 has completed.
  store_->set_fault_hook([](int, int64_t, int attempt) {
    return attempt < 2 ? UnavailableError("injected link flap") : Status::Ok();
  });
  std::optional<Checkpoint> fetched;
  store_->Retrieve(0, 3, [&](StatusOr<Checkpoint> result) {
    ASSERT_TRUE(result.ok()) << result.status();
    fetched = std::move(result).value();
  });
  std::vector<int64_t> retained_at_save;
  store_->Save(MakeCheckpoint(0, 4, 1000), 1, [&](Status status) {
    EXPECT_TRUE(status.ok());
    retained_at_save = store_->retained_iterations();
  });
  sim_.Run();
  EXPECT_EQ(retained_at_save, (std::vector<int64_t>{3, 4}));
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, original);
  EXPECT_EQ(metrics_.counter_value("persistent_store.retries"), 2);
  // Once the read ends, nothing holds iteration 3.
  EXPECT_EQ(store_->retained_iterations(), std::vector<int64_t>{4});
}

TEST_F(PersistentRetryTest, MissingShardIsPermanentAndNeverRetried) {
  Status result = Status::Ok();
  store_->Retrieve(0, 99, [&](StatusOr<Checkpoint> out) { result = out.status(); });
  sim_.Run();
  EXPECT_EQ(result.code(), StatusCode::kNotFound);
  EXPECT_EQ(metrics_.counter_value("persistent_store.retries"), 0);
}

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, BackoffDoublesUpToCap) {
  const RetryPolicy policy{/*max_attempts=*/5, /*backoff_base=*/Millis(100),
                           /*backoff_cap=*/Millis(400)};
  EXPECT_EQ(policy.BackoffBefore(0), 0);  // First attempt is immediate.
  EXPECT_EQ(policy.BackoffBefore(1), Millis(100));
  EXPECT_EQ(policy.BackoffBefore(2), Millis(200));
  EXPECT_EQ(policy.BackoffBefore(3), Millis(400));
  EXPECT_EQ(policy.BackoffBefore(4), Millis(400));  // Capped thereafter.
}

TEST(RetryPolicyTest, ExhaustionCountsAttemptsMade) {
  const RetryPolicy policy{/*max_attempts=*/3, Millis(1), Millis(8)};
  EXPECT_FALSE(policy.Exhausted(0));
  EXPECT_FALSE(policy.Exhausted(2));
  EXPECT_TRUE(policy.Exhausted(3));
  EXPECT_TRUE(policy.Exhausted(4));
}

TEST_F(PersistentStoreTest, TransferCostMatchesMtNlgSanityCheck) {
  // Paper Section 2.2: MT-NLG's 530B-parameter model states over a 20 Gb/s
  // store take ~42 minutes.
  const Bytes mt_nlg = 530'000'000'000LL * 12;
  EXPECT_NEAR(ToSeconds(store_->TransferCost(mt_nlg)) / 60.0, 42.4, 0.5);
}

}  // namespace
}  // namespace gemini
