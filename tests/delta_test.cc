// Incremental checkpoint suite (ctest label "delta"): the delta format's
// build/apply round-trips and content dedupe, the epoch-sealed redo log
// (sealing, geometry, compaction, corruption, and its one-pass fold against
// a per-link replay reference), the CPU store's chain path, the persistent
// store's delta head, PayloadRef slice edge cases, config validation of the
// incremental knobs, and the acceptance property: delta-chain recovery is
// bit-exact against full-snapshot recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/gemini/gemini_system.h"
#include "src/obs/metrics.h"
#include "src/storage/cpu_store.h"
#include "src/storage/delta.h"
#include "src/storage/persistent_store.h"
#include "src/training/trainer.h"

namespace gemini {
namespace {

// Deterministic full checkpoint: element i of (owner, iteration) is unique,
// so any misapplied chunk changes bytes the CRCs must notice.
Checkpoint MakeCheckpoint(int owner, int64_t iteration, size_t elements,
                          Bytes logical = MiB(64)) {
  Checkpoint checkpoint;
  checkpoint.owner_rank = owner;
  checkpoint.iteration = iteration;
  checkpoint.logical_bytes = logical;
  std::vector<float> values(elements);
  for (size_t i = 0; i < elements; ++i) {
    values[i] = static_cast<float>(owner) + static_cast<float>(i) * 0.5f +
                static_cast<float>(iteration) * 0.01f;
  }
  checkpoint.payload = std::move(values);
  checkpoint.StampPayloadCrc();
  return checkpoint;
}

// The checkpoint one iteration later with exactly `chunks` changed (every
// element of each listed chunk bumped), all other chunks byte-identical.
Checkpoint MutateChunks(const Checkpoint& base, int64_t iteration, size_t chunk_elements,
                        const std::vector<size_t>& chunks) {
  std::vector<float> values = base.payload.ToVector();
  for (const size_t chunk : chunks) {
    const size_t begin = chunk * chunk_elements;
    const size_t end = std::min(begin + chunk_elements, values.size());
    for (size_t i = begin; i < end; ++i) {
      values[i] += 1.0f;
    }
  }
  Checkpoint next = base;
  next.iteration = iteration;
  next.payload = std::move(values);
  next.StampPayloadCrc();
  return next;
}

// ---- Delta build/apply ----------------------------------------------------

TEST(DeltaBuildTest, SelectsOnlyContentChangedChunks) {
  const Checkpoint base = MakeCheckpoint(0, 3, 64);
  const Checkpoint next = MutateChunks(base, 4, /*chunk_elements=*/8, {1, 5});
  const auto delta = BuildDeltaCheckpoint(base, next, 8);
  ASSERT_TRUE(delta.ok()) << delta.status();
  ASSERT_EQ(delta->chunks.size(), 2u);
  EXPECT_EQ(delta->chunks[0].chunk_index, 1u);
  EXPECT_EQ(delta->chunks[1].chunk_index, 5u);
  EXPECT_EQ(delta->delta_elements(), 16u);
  // Modeled bytes prorate by the moved-element fraction: 16 of 64 elements.
  EXPECT_EQ(delta->delta_bytes, base.logical_bytes / 4);
  const auto applied = ApplyDeltaCheckpoint(base, *delta);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, next);
  EXPECT_EQ(applied->payload_crc, next.payload_crc);
}

TEST(DeltaBuildTest, DirtyHintIsPrunedByContentDedupe) {
  const Checkpoint base = MakeCheckpoint(0, 3, 64);
  const Checkpoint next = MutateChunks(base, 4, /*chunk_elements=*/8, {5});
  // The trainer's conservative bits flag 1, 2, and 5 dirty; 1 and 2 turn out
  // to be no-op writes and must be deduplicated away by the byte compare.
  std::vector<uint8_t> hint(8, 0);
  hint[1] = hint[2] = hint[5] = 1;
  const auto delta = BuildDeltaCheckpoint(base, next, 8, &hint);
  ASSERT_TRUE(delta.ok()) << delta.status();
  ASSERT_EQ(delta->chunks.size(), 1u);
  EXPECT_EQ(delta->chunks[0].chunk_index, 5u);
  const auto applied = ApplyDeltaCheckpoint(base, *delta);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, next);
}

TEST(DeltaBuildTest, IdenticalStatesProduceEmptyDelta) {
  const Checkpoint base = MakeCheckpoint(2, 7, 32);
  Checkpoint next = base;
  next.iteration = 8;  // Same bytes, newer epoch: nothing to ship.
  const auto delta = BuildDeltaCheckpoint(base, next, 4);
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_TRUE(delta->chunks.empty());
  EXPECT_EQ(delta->delta_bytes, 0);
  const auto applied = ApplyDeltaCheckpoint(base, *delta);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->iteration, 8);
  EXPECT_EQ(applied->payload, base.payload);
}

TEST(DeltaBuildTest, RejectsMalformedInputs) {
  const Checkpoint base = MakeCheckpoint(0, 3, 64);
  const Checkpoint next = MutateChunks(base, 4, 8, {1});
  EXPECT_FALSE(BuildDeltaCheckpoint(base, next, 0).ok()) << "chunk_elements 0";
  EXPECT_FALSE(BuildDeltaCheckpoint(next, base, 8).ok()) << "backward in iterations";
  Checkpoint other_owner = next;
  other_owner.owner_rank = 1;
  EXPECT_FALSE(BuildDeltaCheckpoint(base, other_owner, 8).ok()) << "owner mismatch";
  const Checkpoint smaller = MakeCheckpoint(0, 4, 32);
  EXPECT_FALSE(BuildDeltaCheckpoint(base, smaller, 8).ok()) << "payload size mismatch";
  std::vector<uint8_t> bad_hint(3, 1);  // 64 elements / 8 = 8 chunks, not 3.
  EXPECT_FALSE(BuildDeltaCheckpoint(base, next, 8, &bad_hint).ok()) << "hint size mismatch";
}

TEST(DeltaApplyTest, RejectsCorruptChunkAndWrongBase) {
  const Checkpoint base = MakeCheckpoint(0, 3, 64);
  const Checkpoint next = MutateChunks(base, 4, 8, {2});
  auto delta = BuildDeltaCheckpoint(base, next, 8);
  ASSERT_TRUE(delta.ok()) << delta.status();

  // Applying on a base from the wrong epoch is a seal violation.
  const Checkpoint wrong_epoch = MakeCheckpoint(0, 2, 64);
  EXPECT_EQ(ApplyDeltaCheckpoint(wrong_epoch, *delta).status().code(),
            StatusCode::kFailedPrecondition);
  // Right epoch, wrong bytes: the base CRC binding must catch it.
  Checkpoint forged = MutateChunks(base, 4, 8, {0});
  forged.iteration = base.iteration;
  forged.StampPayloadCrc();
  EXPECT_EQ(ApplyDeltaCheckpoint(forged, *delta).status().code(), StatusCode::kDataLoss);

  // Bit-rot inside the delta's payload must fail the per-chunk CRC gate
  // (copy-on-write: the flip never reaches the builder's snapshot).
  ASSERT_FALSE(delta->chunks.empty());
  auto* bytes = reinterpret_cast<uint8_t*>(delta->chunks[0].data.MutableData());
  bytes[1] ^= 0x10;
  EXPECT_EQ(ApplyDeltaCheckpoint(base, *delta).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(next.ComputePayloadCrc(), next.payload_crc) << "corruption leaked into the source";
}

TEST(DeltaApplyTest, TailChunkShorterThanChunkElementsRoundTrips) {
  // 10 elements at chunk size 4: chunks {4, 4, 2} — the tail chunk's slice
  // must carry exactly the 2 remaining elements.
  const Checkpoint base = MakeCheckpoint(1, 0, 10);
  const Checkpoint next = MutateChunks(base, 1, 4, {2});
  const auto delta = BuildDeltaCheckpoint(base, next, 4);
  ASSERT_TRUE(delta.ok()) << delta.status();
  ASSERT_EQ(delta->chunks.size(), 1u);
  EXPECT_EQ(delta->chunks[0].chunk_index, 2u);
  EXPECT_EQ(delta->chunks[0].data.size(), 2u);
  const auto applied = ApplyDeltaCheckpoint(base, *delta);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, next);
}

// ---- Redo log -------------------------------------------------------------

TEST(RedoLogTest, AppendEnforcesEpochSealing) {
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {1});
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {3});
  const Checkpoint c3 = MutateChunks(c2, 3, 8, {5});
  const auto d01 = BuildDeltaCheckpoint(c0, c1, 8);
  const auto d12 = BuildDeltaCheckpoint(c1, c2, 8);
  const auto d23 = BuildDeltaCheckpoint(c2, c3, 8);
  ASSERT_TRUE(d01.ok() && d12.ok() && d23.ok());

  RedoLog log;
  EXPECT_EQ(log.Append(*d01).code(), StatusCode::kFailedPrecondition) << "no sealed base yet";
  log.Reset(c0);
  EXPECT_TRUE(log.Append(*d01).ok());
  // Replaying the same epoch or skipping one violates the seal.
  EXPECT_EQ(log.Append(*d01).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(log.Append(*d23).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(log.Append(*d12).ok());
  EXPECT_EQ(log.latest_iteration(), 2);
  EXPECT_EQ(log.chain_length(), 2u);
  const auto materialized = log.Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  EXPECT_EQ(*materialized, c2);
}

TEST(RedoLogTest, CompactFoldsChainIntoNewSealedBase) {
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {1});
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {3, 4});
  RedoLog log(RedoLogConfig{/*max_chain_length=*/2, /*max_chain_bytes=*/0});
  log.Reset(c0);
  ASSERT_TRUE(log.Append(*BuildDeltaCheckpoint(c0, c1, 8)).ok());
  EXPECT_FALSE(log.NeedsCompaction());
  ASSERT_TRUE(log.Append(*BuildDeltaCheckpoint(c1, c2, 8)).ok());
  EXPECT_TRUE(log.NeedsCompaction());
  ASSERT_TRUE(log.Compact().ok());
  EXPECT_EQ(log.chain_length(), 0u);
  EXPECT_EQ(log.base_iteration(), 2);
  EXPECT_EQ(log.base(), c2);
  // The folded base accepts the next epoch directly.
  const Checkpoint c3 = MutateChunks(c2, 3, 8, {0});
  EXPECT_TRUE(log.Append(*BuildDeltaCheckpoint(c2, c3, 8)).ok());
}

TEST(RedoLogTest, CorruptLinkFailsMaterializeAndLeavesChainForDiagnosis) {
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {1});
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {3});
  RedoLog log;
  log.Reset(c0);
  ASSERT_TRUE(log.Append(*BuildDeltaCheckpoint(c0, c1, 8)).ok());
  ASSERT_TRUE(log.Append(*BuildDeltaCheckpoint(c1, c2, 8)).ok());
  ASSERT_TRUE(log.CorruptDelta(/*chain_index=*/0, /*bit_index=*/5).ok());
  EXPECT_EQ(log.Materialize().status().code(), StatusCode::kDataLoss);
  // A failed fold must not destroy the chain (the read path surfaces it).
  EXPECT_FALSE(log.Compact().ok());
  EXPECT_EQ(log.chain_length(), 2u);
  EXPECT_EQ(log.base(), c0);
  EXPECT_EQ(log.CorruptDelta(/*chain_index=*/9, 0).code(), StatusCode::kNotFound);
}

TEST(RedoLogTest, AppendRejectsGeometryDrift) {
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {1});
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {3});
  RedoLog log;
  log.Reset(c0);
  // A delta over a different payload size, at the right epoch and owner.
  const Checkpoint small0 = MakeCheckpoint(0, 0, 32);
  const Checkpoint small1 = MutateChunks(small0, 1, 8, {1});
  DeltaCheckpoint wrong_size = *BuildDeltaCheckpoint(small0, small1, 8);
  wrong_size.base_crc = c0.payload_crc;
  EXPECT_EQ(log.Append(wrong_size).code(), StatusCode::kInvalidArgument);
  // The first link may pick any chunk size; later links must keep it.
  ASSERT_TRUE(log.Append(*BuildDeltaCheckpoint(c0, c1, 8)).ok());
  EXPECT_EQ(log.Append(*BuildDeltaCheckpoint(c1, c2, 4)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.chain_length(), 1u);
  EXPECT_TRUE(log.Append(*BuildDeltaCheckpoint(c1, c2, 8)).ok());
  // A new base starts a new grid.
  log.Reset(c2);
  const Checkpoint c3 = MutateChunks(c2, 3, 4, {0});
  EXPECT_TRUE(log.Append(*BuildDeltaCheckpoint(c2, c3, 4)).ok());
  const auto materialized = log.Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  EXPECT_EQ(*materialized, c3);
}

// Every link's full-state CRC gates the replay, not only the last one: a
// bit flipped in the base is repaired only when the *first* delta rewrites
// its chunk. If only a later delta rewrites it, link 1's state is corrupt
// and the replay fails there, although the final state would be clean.
TEST(RedoLogTest, BaseFlipIsRepairedOnlyByTheFirstDelta) {
  const Checkpoint c0 = MakeCheckpoint(0, 0, 128);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {2});
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {7});
  const DeltaCheckpoint d01 = *BuildDeltaCheckpoint(c0, c1, 8);
  const DeltaCheckpoint d12 = *BuildDeltaCheckpoint(c1, c2, 8);
  auto chain_with_flipped_element = [&](size_t element) {
    RedoLog log;
    log.Reset(c0);
    EXPECT_TRUE(log.Append(d01).ok());
    EXPECT_TRUE(log.Append(d12).ok());
    EXPECT_TRUE(log.CorruptBase(element * 32 + 3).ok());
    return log.Materialize();
  };

  const auto repaired = chain_with_flipped_element(2 * 8 + 1);  // chunk 2: delta 1 rewrites it
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_EQ(*repaired, c2);
  EXPECT_EQ(repaired->payload_crc, c2.payload_crc);

  const auto failed = chain_with_flipped_element(7 * 8 + 1);  // chunk 7: only delta 2 does
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(failed.status().message(), "materialized delta state failed its full-state CRC check");
}

// ---- Redo log fold vs. per-link replay -------------------------------------

// The per-link apply the one-pass fold replaced: copy the base, apply the
// chunks, CRC the whole state. Kept as the reference the fold must match.
StatusOr<Checkpoint> ReferenceApply(const Checkpoint& base, const DeltaCheckpoint& delta) {
  if (base.owner_rank != delta.owner_rank) {
    return InvalidArgumentError("delta applied to a different owner's base");
  }
  if (base.iteration != delta.base_iteration) {
    return FailedPreconditionError(
        "delta base iteration " + std::to_string(delta.base_iteration) +
        " does not match checkpoint iteration " + std::to_string(base.iteration));
  }
  if (base.payload.size() != delta.payload_elements) {
    return InvalidArgumentError("delta payload geometry does not match the base");
  }
  const uint32_t base_crc = base.payload_crc != 0 ? base.payload_crc : base.ComputePayloadCrc();
  if (delta.base_crc != 0 && base_crc != delta.base_crc) {
    return DataLossError("delta base CRC mismatch: base state is not the one the delta sealed");
  }
  std::vector<float> state(base.payload.begin(), base.payload.end());
  for (const DeltaChunk& chunk : delta.chunks) {
    const size_t begin = chunk.chunk_index * delta.chunk_elements;
    if (begin + chunk.data.size() > state.size()) {
      return DataLossError("delta chunk overflows the shard");
    }
    if (Crc32(chunk.data.data(), chunk.data.size_bytes()) != chunk.crc) {
      return DataLossError("delta chunk " + std::to_string(chunk.chunk_index) +
                           " failed its CRC check");
    }
    std::copy(chunk.data.begin(), chunk.data.end(), state.begin() + begin);
  }
  Checkpoint result;
  result.owner_rank = delta.owner_rank;
  result.iteration = delta.iteration;
  result.logical_bytes = delta.logical_bytes;
  result.payload = std::move(state);
  result.StampPayloadCrc();
  if (delta.state_crc != 0 && result.payload_crc != delta.state_crc) {
    return DataLossError("materialized delta state failed its full-state CRC check");
  }
  return result;
}

StatusOr<Checkpoint> ReferenceReplay(const Checkpoint& base,
                                     const std::vector<DeltaCheckpoint>& deltas) {
  Checkpoint state = base;
  for (const DeltaCheckpoint& delta : deltas) {
    GEMINI_ASSIGN_OR_RETURN(state, ReferenceApply(state, delta));
  }
  return state;
}

void FlipBit(PayloadRef& payload, size_t bit) {
  auto* bytes = reinterpret_cast<uint8_t*>(payload.MutableData());
  bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

// The same flip RedoLog::CorruptDelta makes: bit `bit_index` (mod the total)
// of the delta's chunk bytes laid end to end.
void FlipDeltaBit(DeltaCheckpoint& delta, size_t bit_index) {
  size_t total_bits = 0;
  for (const DeltaChunk& chunk : delta.chunks) {
    total_bits += chunk.data.size_bytes() * 8;
  }
  size_t bit = bit_index % total_bits;
  for (DeltaChunk& chunk : delta.chunks) {
    if (bit < chunk.data.size_bytes() * 8) {
      FlipBit(chunk.data, bit);
      return;
    }
    bit -= chunk.data.size_bytes() * 8;
  }
}

void ExpectSameResult(const StatusOr<Checkpoint>& got, const StatusOr<Checkpoint>& want,
                      const std::string& label) {
  ASSERT_EQ(got.status().code(), want.status().code()) << label << ": " << got.status();
  ASSERT_EQ(got.status().message(), want.status().message()) << label;
  if (!want.ok()) {
    return;
  }
  EXPECT_EQ(got->owner_rank, want->owner_rank) << label;
  EXPECT_EQ(got->iteration, want->iteration) << label;
  EXPECT_EQ(got->logical_bytes, want->logical_bytes) << label;
  ASSERT_EQ(got->payload.size(), want->payload.size()) << label;
  EXPECT_EQ(std::memcmp(got->payload.data(), want->payload.data(), want->payload.size_bytes()), 0)
      << label;
  EXPECT_EQ(got->payload_crc, want->payload_crc) << label;
}

// Seeded random chains (chunk sizes 1-40, short tail chunks, up to 8 links)
// under base and delta bit flips, forged and zeroed CRCs: RedoLog's one-pass
// fold must return what the per-link replay returns — the same status code
// and message (so the same gate at the same link), bytes and payload_crc.
// Single links with off-grid, overflowing or mis-bound chunks go through
// ApplyDeltaCheckpoint against the reference apply.
TEST(RedoLogFoldTest, MatchesPerLinkReplay) {
  Rng rng(0xF01D);
  int failures = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const std::string label = "trial " + std::to_string(trial);
    const size_t elements = static_cast<size_t>(rng.UniformInt(1, 200));
    const size_t chunk = static_cast<size_t>(rng.UniformInt(1, 40));
    const size_t num_chunks = (elements + chunk - 1) / chunk;
    const int links = static_cast<int>(rng.UniformInt(1, 8));
    Checkpoint base = MakeCheckpoint(1, 10, elements);
    if (rng.Bernoulli(0.2)) {
      base.payload_crc = 0;  // A base sealed without a digest.
    }
    std::vector<DeltaCheckpoint> deltas;
    Checkpoint state = base;
    for (int link = 0; link < links; ++link) {
      std::vector<size_t> changed;
      for (size_t c = 0; c < num_chunks; ++c) {
        if (rng.Bernoulli(0.3)) {
          changed.push_back(c);
        }
      }
      const Checkpoint next = MutateChunks(state, state.iteration + 1, chunk, changed);
      deltas.push_back(*BuildDeltaCheckpoint(state, next, chunk));
      state = next;
    }

    // Faults, each mirrored on the reference's copies.
    Checkpoint reference_base = base;
    std::vector<DeltaCheckpoint> reference_deltas = deltas;
    std::vector<size_t> delta_flips(deltas.size(), SIZE_MAX);
    size_t base_flip = SIZE_MAX;
    if (rng.Bernoulli(0.3)) {
      base_flip = rng.NextU64Below(1u << 20);
      FlipBit(reference_base.payload, base_flip % (elements * 32));
    }
    for (size_t link = 0; link < deltas.size(); ++link) {
      if (!deltas[link].chunks.empty() && rng.Bernoulli(0.1)) {
        delta_flips[link] = rng.NextU64Below(1u << 20);
        FlipDeltaBit(reference_deltas[link], delta_flips[link]);
      }
    }
    const size_t link = rng.NextU64Below(deltas.size());
    const uint32_t forged = static_cast<uint32_t>(rng.NextU64()) | 1u;
    switch (rng.UniformInt(0, 4)) {
      case 0:  // A forged digest on the last link.
        deltas.back().state_crc = forged;
        break;
      case 1:  // A consistently forged digest mid-chain (the next link binds to it).
        deltas[link].state_crc = forged;
        if (link + 1 < deltas.size()) {
          deltas[link + 1].base_crc = forged;
        }
        break;
      case 2:
        deltas[link].base_crc = 0;
        break;
      case 3:
        deltas[link].state_crc = 0;
        break;
      default:
        break;
    }
    for (size_t i = 0; i < deltas.size(); ++i) {
      reference_deltas[i].base_crc = deltas[i].base_crc;
      reference_deltas[i].state_crc = deltas[i].state_crc;
    }

    RedoLog log;
    log.Reset(base);
    for (const DeltaCheckpoint& delta : deltas) {
      ASSERT_TRUE(log.Append(delta).ok()) << label;
    }
    if (base_flip != SIZE_MAX) {
      ASSERT_TRUE(log.CorruptBase(base_flip).ok()) << label;
    }
    for (size_t i = 0; i < delta_flips.size(); ++i) {
      if (delta_flips[i] != SIZE_MAX) {
        ASSERT_TRUE(log.CorruptDelta(i, delta_flips[i]).ok()) << label;
      }
    }
    const StatusOr<Checkpoint> want = ReferenceReplay(reference_base, reference_deltas);
    ExpectSameResult(log.Materialize(), want, label);
    failures += want.ok() ? 0 : 1;

    // One hand-built link off the builder's grid.
    DeltaCheckpoint odd = reference_deltas.front();
    switch (rng.UniformInt(0, 5)) {
      case 0:  // A chunk spanning two grid blocks, at an unaligned offset.
        odd.chunk_elements = std::max<size_t>(1, chunk / 2);
        break;
      case 1:  // A chunk that runs past the end.
        if (!odd.chunks.empty()) {
          odd.chunks.back().chunk_index = num_chunks;
        }
        break;
      case 2:
        odd.chunk_elements = 0;
        break;
      case 3:
        odd.owner_rank = 2;
        break;
      case 4:
        odd.base_iteration = 3;
        break;
      default:
        odd.payload_elements = elements + 1;
        break;
    }
    ExpectSameResult(ApplyDeltaCheckpoint(reference_base, odd),
                     ReferenceApply(reference_base, odd), label + " single link");
  }
  // Both outcomes must be well represented.
  EXPECT_GT(failures, 300);
  EXPECT_LT(failures, 1200);
}

// ---- CPU store chains -----------------------------------------------------

class CpuStoreDeltaTest : public ::testing::Test {
 protected:
  CpuStoreDeltaTest() : cluster_(sim_, 1, P4d24xlarge(), FabricConfig{}), store_(cluster_.machine(0)) {
    store_.set_metrics(&metrics_);
  }

  Simulator sim_;
  Cluster cluster_;
  MetricsRegistry metrics_;
  CpuCheckpointStore store_;
};

TEST_F(CpuStoreDeltaTest, FullCommitSealsBaseAndDeltasMaterializeTransparently) {
  store_.ConfigureRedoLog(RedoLogConfig{});
  ASSERT_TRUE(store_.HostOwner(0, MiB(64)).ok());
  const Checkpoint c1 = MakeCheckpoint(0, 1, 64);
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {2, 6});
  ASSERT_TRUE(store_.WriteComplete(c1).ok());
  EXPECT_EQ(store_.ChainHeadIteration(0), 1);
  ASSERT_TRUE(store_.WriteDelta(*BuildDeltaCheckpoint(c1, c2, 8)).ok());
  EXPECT_EQ(store_.ChainHeadIteration(0), 2);
  EXPECT_EQ(store_.ChainLength(0), 1u);
  EXPECT_EQ(store_.LatestIteration(0), 2);
  const auto served = store_.LatestVerified(0);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(*served, c2);
  // A stale delta (same epoch again) is rejected; callers fall back to full.
  EXPECT_FALSE(store_.WriteDelta(*BuildDeltaCheckpoint(c1, c2, 8)).ok());
  EXPECT_EQ(metrics_.counter_value("cpu_store.delta_commits"), 1);
  EXPECT_GT(metrics_.counter_value("delta.bytes_saved"), 0);
}

TEST_F(CpuStoreDeltaTest, ChainCompactsAtConfiguredCap) {
  store_.ConfigureRedoLog(RedoLogConfig{/*max_chain_length=*/2, /*max_chain_bytes=*/0});
  ASSERT_TRUE(store_.HostOwner(0, MiB(64)).ok());
  Checkpoint state = MakeCheckpoint(0, 1, 64);
  ASSERT_TRUE(store_.WriteComplete(state).ok());
  for (int64_t iteration = 2; iteration <= 5; ++iteration) {
    const Checkpoint next =
        MutateChunks(state, iteration, 8, {static_cast<size_t>(iteration % 8)});
    ASSERT_TRUE(store_.WriteDelta(*BuildDeltaCheckpoint(state, next, 8)).ok());
    state = next;
  }
  // 4 deltas at cap 2: two folds, and the chain never exceeds the cap.
  EXPECT_EQ(metrics_.counter_value("compaction.folds"), 2);
  EXPECT_EQ(store_.ChainLength(0), 0u);
  EXPECT_EQ(store_.ChainHeadIteration(0), 5);
  const auto served = store_.LatestVerified(0);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(*served, state);
}

TEST_F(CpuStoreDeltaTest, CorruptChainLinkIsCaughtByMaterializationCrc) {
  store_.ConfigureRedoLog(RedoLogConfig{});
  ASSERT_TRUE(store_.HostOwner(0, MiB(64)).ok());
  const Checkpoint c1 = MakeCheckpoint(0, 1, 64);
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {2});
  ASSERT_TRUE(store_.WriteComplete(c1).ok());
  ASSERT_TRUE(store_.WriteDelta(*BuildDeltaCheckpoint(c1, c2, 8)).ok());
  ASSERT_TRUE(store_.CorruptChainDelta(0, /*chain_index=*/0, /*bit_index=*/3).ok());
  // The whole replica is treated lost — serving the intact prefix would hand
  // recovery a mixed-iteration state.
  EXPECT_FALSE(store_.LatestVerified(0).has_value());
  EXPECT_GE(metrics_.counter_value("cpu_store.crc_failures"), 1);
}

TEST_F(CpuStoreDeltaTest, CorruptLatestUnderALiveChainFailsUnlessADeltaRewroteTheBit) {
  store_.ConfigureRedoLog(RedoLogConfig{});
  ASSERT_TRUE(store_.HostOwner(0, MiB(64)).ok());
  // 16 chunks of 8 elements; the delta rewrites 3 of them.
  const Checkpoint c1 = MakeCheckpoint(0, 1, 128);
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {2, 7, 11});
  ASSERT_TRUE(store_.WriteComplete(c1).ok());
  ASSERT_TRUE(store_.WriteDelta(*BuildDeltaCheckpoint(c1, c2, 8)).ok());
  ASSERT_EQ(store_.ChainLength(0), 1u);

  // A bit in element 56 (chunk 7): the delta overwrites it, so the replay
  // repairs it and the clean state is served.
  ASSERT_TRUE(store_.CorruptLatest(0, /*bit_index=*/56 * 32 + 5).ok());
  const auto repaired = store_.LatestVerified(0);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, c2);
  EXPECT_EQ(metrics_.counter_value("cpu_store.crc_failures"), 0);

  // A bit in element 0 (chunk 0), which no delta rewrites: the materialized
  // state fails its CRC and the replica is treated as lost.
  ASSERT_TRUE(store_.CorruptLatest(0, /*bit_index=*/5).ok());
  EXPECT_FALSE(store_.LatestVerified(0).has_value());
  EXPECT_EQ(metrics_.counter_value("cpu_store.crc_failures"), 1);
}

// ---- Persistent store delta head ------------------------------------------

class PersistentDeltaTest : public ::testing::Test {
 protected:
  PersistentDeltaTest() : store_(sim_) { store_.set_metrics(&metrics_); }

  Simulator sim_;
  MetricsRegistry metrics_;
  PersistentStore store_;
};

TEST_F(PersistentDeltaTest, SaveDeltaMaterializesAtArrivalAndCompletesTheIteration) {
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {4});
  store_.SeedImmediate(c0, /*expected_world_size=*/1);
  Status result = InternalError("done not called");
  store_.SaveDelta(*BuildDeltaCheckpoint(c0, c1, 8), /*expected_world_size=*/1,
                   [&](Status status) { result = status; });
  sim_.Run();
  ASSERT_TRUE(result.ok()) << result;
  // The retrieval surface only sees full shards: the applied state is what
  // became durable.
  EXPECT_EQ(store_.LatestCompleteIteration(), 1);
  const auto durable = store_.Peek(0, 1);
  ASSERT_TRUE(durable.has_value());
  EXPECT_EQ(*durable, c1);
  // The applied state is also the head the next delta must base on.
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {5});
  Status next = InternalError("done not called");
  store_.SaveDelta(*BuildDeltaCheckpoint(c1, c2, 8), 1, [&](Status status) { next = status; });
  sim_.Run();
  EXPECT_TRUE(next.ok()) << next;
  EXPECT_EQ(store_.LatestCompleteIteration(), 2);
}

TEST_F(PersistentDeltaTest, SealViolationSurfacesThroughDone) {
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {4});
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {5});
  store_.SeedImmediate(c0, 1);
  // A delta based on iteration 1 cannot apply to the head at iteration 0.
  Status result = Status::Ok();
  store_.SaveDelta(*BuildDeltaCheckpoint(c1, c2, 8), 1, [&](Status status) { result = status; });
  sim_.Run();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(store_.LatestCompleteIteration(), 0) << "a rejected delta must not become durable";
  // The head stayed at iteration 0: a delta based on it still applies.
  Status next = InternalError("done not called");
  store_.SaveDelta(*BuildDeltaCheckpoint(c0, c1, 8), 1, [&](Status status) { next = status; });
  sim_.Run();
  EXPECT_TRUE(next.ok()) << next;
}

TEST_F(PersistentDeltaTest, FullSaveReplacesTheHead) {
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {4});
  const Checkpoint c2 = MutateChunks(c1, 2, 8, {6});
  const Checkpoint c3 = MutateChunks(c2, 3, 8, {1});
  store_.SeedImmediate(c0, 1);
  Status delta_result = InternalError("pending");
  store_.SaveDelta(*BuildDeltaCheckpoint(c0, c1, 8), 1,
                   [&](Status status) { delta_result = status; });
  Status full_result = InternalError("pending");
  store_.Save(c2, 1, [&](Status status) { full_result = status; });
  // The next delta bases on the full save, not on the delta before it.
  Status next_result = InternalError("pending");
  store_.SaveDelta(*BuildDeltaCheckpoint(c2, c3, 8), 1,
                   [&](Status status) { next_result = status; });
  sim_.Run();
  ASSERT_TRUE(delta_result.ok()) << delta_result;
  ASSERT_TRUE(full_result.ok()) << full_result;
  ASSERT_TRUE(next_result.ok()) << next_result;
  EXPECT_EQ(store_.LatestCompleteIteration(), 3);
  EXPECT_EQ(*store_.Peek(0, 3), c3);
}

TEST_F(PersistentDeltaTest, CorruptedDurableShardDoesNotPoisonTheNextDelta) {
  const Checkpoint c0 = MakeCheckpoint(0, 0, 64);
  const Checkpoint c1 = MutateChunks(c0, 1, 8, {4});
  store_.SeedImmediate(c0, 1);
  // Bit-rot in the durable copy of c0, in a chunk the delta does not rewrite.
  ASSERT_TRUE(store_.CorruptShard(0, 0, /*bit_index=*/5).ok());
  Status result = InternalError("pending");
  store_.SaveDelta(*BuildDeltaCheckpoint(c0, c1, 8), 1, [&](Status status) { result = status; });
  sim_.Run();
  ASSERT_TRUE(result.ok()) << result;
  const auto durable = store_.Peek(0, 1);
  ASSERT_TRUE(durable.has_value());
  EXPECT_EQ(*durable, c1);
}

// ---- Trainer dirty tracking -----------------------------------------------

TEST(TrainerDirtyTest, TakeDirtyChunksReturnsAccumulatedBitsAndClears) {
  ShardedTrainer trainer(Gpt2_10B(), /*num_machines=*/2, /*payload_elements=*/32, /*seed=*/7);
  trainer.SetSparseUpdates(0.25, /*chunk_elements=*/4);
  trainer.EnableDirtyTracking(4);
  ASSERT_EQ(trainer.dirty_chunk_count(), 8u);
  const Checkpoint before = trainer.MakeCheckpoint(0);
  trainer.Step();
  const Checkpoint after = trainer.MakeCheckpoint(0);
  const std::vector<uint8_t> bits = trainer.TakeDirtyChunks(0);
  ASSERT_EQ(bits.size(), 8u);
  // The bits are a conservative superset of the truly changed chunks.
  for (size_t chunk = 0; chunk < bits.size(); ++chunk) {
    const size_t begin = chunk * 4;
    const bool changed =
        !std::equal(before.payload.begin() + begin, before.payload.begin() + begin + 4,
                    after.payload.begin() + begin);
    if (changed) {
      EXPECT_NE(bits[chunk], 0) << "changed chunk " << chunk << " missing its dirty bit";
    }
  }
  // Take-and-clear: with no step in between, nothing is dirty.
  const std::vector<uint8_t> cleared = trainer.TakeDirtyChunks(0);
  EXPECT_TRUE(std::all_of(cleared.begin(), cleared.end(), [](uint8_t b) { return b == 0; }));
  // A restore conservatively marks the whole shard dirty.
  ASSERT_TRUE(trainer.RestoreShard(after).ok());
  const std::vector<uint8_t> after_restore = trainer.TakeDirtyChunks(0);
  EXPECT_TRUE(
      std::all_of(after_restore.begin(), after_restore.end(), [](uint8_t b) { return b != 0; }));
}

// ---- PayloadRef slice edge cases -----------------------------------------

TEST(PayloadSliceEdgeTest, ZeroLengthAndEndSlices) {
  const PayloadRef payload(std::vector<float>{1.f, 2.f, 3.f, 4.f, 5.f});
  const PayloadRef mid_empty = payload.Slice(2, 0);
  EXPECT_TRUE(mid_empty.empty());
  EXPECT_EQ(mid_empty.size_bytes(), 0u);
  EXPECT_TRUE(mid_empty.SharesBufferWith(payload)) << "an empty view still pins the buffer";
  // Slice exactly at the end: offset == size, zero elements — legal, empty.
  const PayloadRef end_empty = payload.Slice(5, 0);
  EXPECT_TRUE(end_empty.empty());
  EXPECT_EQ(end_empty, std::vector<float>{});
  // The final elements through a slice-at-end view.
  const PayloadRef tail = payload.Slice(3, 2);
  EXPECT_EQ(tail, (std::vector<float>{4.f, 5.f}));
  // Slices of slices keep composing offsets; the tail of the tail is {5}.
  EXPECT_EQ(tail.Slice(1, 1), std::vector<float>{5.f});
  EXPECT_EQ(tail.Slice(2, 0).size(), 0u);
  // Zero-length views compare equal regardless of position.
  EXPECT_EQ(mid_empty, end_empty);
  // An empty default ref has no buffer at all.
  const PayloadRef null_ref;
  EXPECT_EQ(null_ref.data(), nullptr);
  EXPECT_FALSE(null_ref.SharesBufferWith(payload));
}

// ---- Config validation ----------------------------------------------------

TEST(IncrementalConfigTest, ValidateRejectsDegenerateKnobs) {
  GeminiConfig config;
  config.incremental.enabled = true;
  EXPECT_TRUE(config.Validate().ok()) << "defaults must validate with the mode on";

  // A compaction cap of 0 would let chains grow without bound.
  config.incremental.max_chain_length = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.incremental.max_chain_length = 8;

  config.incremental.chunk_elements = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.incremental.chunk_elements = 16;

  config.incremental.max_chain_bytes = -1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.incremental.max_chain_bytes = 0;

  // The sparse-update knob shapes the workload even with the mode off.
  config.incremental.enabled = false;
  config.incremental.sparse_update_fraction = 0.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.incremental.sparse_update_fraction = 1.5;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.incremental.sparse_update_fraction = 1.0;

  // Sparse updates are chunked even with the mode off, so a non-positive
  // chunk size must be rejected there too (it would divide by zero in the
  // trainer); dense updates never read it.
  config.incremental.sparse_update_fraction = 0.25;
  config.incremental.chunk_elements = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.incremental.sparse_update_fraction = 1.0;
  EXPECT_TRUE(config.Validate().ok());
  config.incremental.chunk_elements = 16;

  // With the mode off, the chain knobs are inert and must not reject.
  config.incremental.max_chain_length = 0;
  EXPECT_TRUE(config.Validate().ok());
}

// ---- End-to-end: delta-chain recovery is bit-exact ------------------------

GeminiConfig EndToEndConfig(bool incremental) {
  GeminiConfig config;
  config.model = Gpt2_100B();
  config.instance = P4d24xlarge();
  config.num_machines = 8;
  config.num_replicas = 2;
  config.payload_elements = 32;
  config.seed = 2024;
  config.cloud.num_standby = 4;
  // The sparse workload runs in BOTH modes so the trajectories are the
  // identical MoE-style stream; only the checkpoint encoding differs.
  config.incremental.sparse_update_fraction = 0.25;
  config.incremental.chunk_elements = 4;
  config.incremental.enabled = incremental;
  return config;
}

TEST(DeltaEndToEndTest, IncrementalRecoveryBitExactVsFullSnapshotRecovery) {
  // Acceptance gate: with the same failure injected, a run protected by
  // delta chains must recover to bit-exactly the state a full-snapshot run
  // recovers to (both equal to the uninterrupted reference).
  constexpr int64_t kTarget = 10;
  std::vector<std::vector<float>> shards[2];
  for (const bool incremental : {false, true}) {
    const GeminiConfig config = EndToEndConfig(incremental);
    GeminiSystem system(config);
    ASSERT_TRUE(system.Initialize().ok());
    system.failure_injector().InjectAt(Minutes(4), FailureType::kHardware, {7});
    const auto report = system.TrainUntil(kTarget, /*sim_deadline=*/Hours(4));
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->iterations_completed, kTarget);
    ASSERT_GE(report->recoveries.size(), 1u);
    for (int rank = 0; rank < config.num_machines; ++rank) {
      shards[incremental ? 1 : 0].push_back(system.trainer().shard(rank));
    }
    if (incremental) {
      const SystemSnapshot snapshot = system.Snapshot();
      EXPECT_GT(snapshot.delta_commits, 0) << "the incremental run never shipped a delta";
      EXPECT_GT(snapshot.delta_bytes_saved, 0);
      EXPECT_LT(system.incremental_delta_fraction(), 1.0);
    } else {
      // Delta bookkeeping runs in both modes; with the mode off it must never
      // ship a delta.
      EXPECT_DOUBLE_EQ(system.incremental_delta_fraction(), 1.0);
      const SystemSnapshot snapshot = system.Snapshot();
      EXPECT_EQ(snapshot.delta_commits, 0);
      EXPECT_EQ(snapshot.delta_bytes_saved, 0);
      for (int holder = 0; holder < config.num_machines; ++holder) {
        for (int owner = 0; owner < config.num_machines; ++owner) {
          EXPECT_EQ(system.cpu_store(holder).ChainLength(owner), 0u)
              << "holder " << holder << " owner " << owner;
        }
      }
    }
  }
  // Uninterrupted reference under the same sparse workload.
  const GeminiConfig config = EndToEndConfig(false);
  ShardedTrainer reference(config.model, config.num_machines, config.payload_elements,
                           config.seed);
  reference.SetSparseUpdates(config.incremental.sparse_update_fraction,
                             static_cast<size_t>(config.incremental.chunk_elements));
  for (int64_t i = 0; i < kTarget; ++i) {
    reference.Step();
  }
  for (int rank = 0; rank < config.num_machines; ++rank) {
    EXPECT_EQ(shards[0][static_cast<size_t>(rank)], reference.shard(rank))
        << "full-snapshot run diverged at rank " << rank;
    EXPECT_EQ(shards[1][static_cast<size_t>(rank)], reference.shard(rank))
        << "delta-chain run diverged at rank " << rank;
  }
}

}  // namespace
}  // namespace gemini
