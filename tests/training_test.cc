// Tests for model configurations (Table 2), the ZeRO-3 timeline generator,
// the online profiler, the update kernel, and the sharded trainer's
// recovery-replay and copy-on-write capture properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/training/model_config.h"
#include "src/training/profiler.h"
#include "src/training/timeline.h"
#include "src/training/trainer.h"
#include "src/training/update_kernel.h"

namespace gemini {
namespace {

// ---------------------------------------------------------------------------
// ModelConfig (Table 2)
// ---------------------------------------------------------------------------

TEST(ModelConfigTest, Table2HasAllRows) {
  EXPECT_EQ(Table2Models().size(), 8u);
  for (const char* name : {"GPT-2 10B", "GPT-2 20B", "GPT-2 40B", "RoBERTa 40B", "BERT 40B",
                           "GPT-2 100B", "RoBERTa 100B", "BERT 100B"}) {
    EXPECT_NE(FindModel(name), nullptr) << name;
  }
  EXPECT_EQ(FindModel("GPT-5"), nullptr);
}

TEST(ModelConfigTest, Gpt2100BMatchesTable2) {
  const ModelConfig model = Gpt2_100B();
  EXPECT_EQ(model.hidden_size, 8192);
  EXPECT_EQ(model.intermediate_size, 32768);
  EXPECT_EQ(model.num_layers, 124);
  EXPECT_EQ(model.attention_heads, 64);
  EXPECT_EQ(model.nominal_params, 100'000'000'000LL);
}

TEST(ModelConfigTest, Gpt210BMatchesTable2) {
  const ModelConfig model = Gpt2_10B();
  EXPECT_EQ(model.hidden_size, 2560);
  EXPECT_EQ(model.intermediate_size, 10240);
  EXPECT_EQ(model.num_layers, 46);
  EXPECT_EQ(model.attention_heads, 40);
}

TEST(ModelConfigTest, CheckpointSizeMatchesPaper) {
  // Section 5.2: the GPT2-100B checkpoint on each of 128 GPUs is 9.4 GB.
  const ModelConfig model = Gpt2_100B();
  const double gb = static_cast<double>(model.CheckpointBytesPerGpu(128)) / 1e9;
  EXPECT_NEAR(gb, 9.4, 0.05);
}

TEST(ModelConfigTest, CheckpointIs12BytesPerParam) {
  const ModelConfig model = Gpt2_40B();
  EXPECT_EQ(model.CheckpointBytesTotal(), model.nominal_params * 12);
  EXPECT_EQ(model.CheckpointBytesPerMachine(16), model.nominal_params * 12 / 16);
}

TEST(ModelConfigTest, FormulaParamsNearNominalForLargeModels) {
  // The transformer formula should land within ~5% of the headline size for
  // the big configurations (the 10B config is loosely named in the paper).
  for (ModelConfig (*make)() : {&Gpt2_100B, &Gpt2_40B, &Gpt2_20B}) {
    const ModelConfig model = make();
    const double ratio = static_cast<double>(model.FormulaParams()) /
                         static_cast<double>(model.nominal_params);
    EXPECT_GT(ratio, 0.95) << model.name;
    EXPECT_LT(ratio, 1.05) << model.name;
  }
}

TEST(ModelConfigTest, TokensPerGpu) {
  EXPECT_EQ(Gpt2_100B().TokensPerGpuPerIteration(), 8 * 512);
}

// ---------------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------------

TimelineParams Params(const ModelConfig& model, const InstanceSpec& instance, int machines) {
  TimelineParams params;
  params.model = model;
  params.instance = instance;
  params.num_machines = machines;
  return params;
}

TEST(TimelineTest, SegmentsAreOrderedAndNonOverlapping) {
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_100B(), P4d24xlarge(), 16));
  ASSERT_FALSE(timeline.comm.empty());
  TimeNs cursor = 0;
  for (const CommSegment& segment : timeline.comm) {
    EXPECT_GE(segment.start, cursor);
    EXPECT_GT(segment.duration, 0);
    cursor = segment.end();
  }
  EXPECT_LE(cursor, timeline.iteration_time);
}

TEST(TimelineTest, IdlePlusBusyEqualsIteration) {
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_40B(), P3dn24xlarge(), 16));
  EXPECT_EQ(timeline.TotalIdle() + timeline.TotalCommBusy(), timeline.iteration_time);
}

TEST(TimelineTest, CalibrationAnchorsP4d) {
  // Anchor 1 (src/common/calibration.h): GPT-2 100B on 16x p4d lands near
  // the paper's 62 s iteration and ~12.5 s idle time.
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_100B(), P4d24xlarge(), 16));
  EXPECT_NEAR(ToSeconds(timeline.iteration_time), 62.0, 8.0);
  EXPECT_NEAR(ToSeconds(timeline.TotalIdle()), 12.5, 5.0);
}

TEST(TimelineTest, CalibrationAnchorsP3dn) {
  // Anchor 2: GPT-2 40B on 16x p3dn near 38-41 s iteration, ~4-6 s idle.
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_40B(), P3dn24xlarge(), 16));
  EXPECT_NEAR(ToSeconds(timeline.iteration_time), 40.0, 4.0);
  EXPECT_NEAR(ToSeconds(timeline.TotalIdle()), 5.0, 2.0);
}

TEST(TimelineTest, IdleSpansTileTheGaps) {
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_20B(), P3dn24xlarge(), 16));
  for (const IdleSpan& span : timeline.idle_spans) {
    EXPECT_GT(span.length, 0);
    EXPECT_GE(span.start, 0);
    EXPECT_LE(span.end(), timeline.iteration_time);
    // No comm segment may overlap an idle span.
    for (const CommSegment& segment : timeline.comm) {
      const bool disjoint = segment.end() <= span.start || segment.start >= span.end();
      EXPECT_TRUE(disjoint) << "comm segment overlaps idle span";
    }
  }
}

TEST(TimelineTest, MoreMachinesShrinkCompute) {
  // Per-GPU work halves when the (sharded) model spreads over twice the
  // machines... compute stays constant per GPU but communication grows; at
  // minimum the iteration time must stay positive and finite.
  const IterationTimeline t16 = BuildZero3Timeline(Params(Gpt2_100B(), P4d24xlarge(), 16));
  const IterationTimeline t32 = BuildZero3Timeline(Params(Gpt2_100B(), P4d24xlarge(), 32));
  EXPECT_GT(t16.iteration_time, 0);
  EXPECT_GT(t32.iteration_time, 0);
}

TEST(TimelineTest, LargestSpanMatchesPaperScale) {
  // The paper profiles a largest idle span of ~1.6 s (GPT-2 40B on p3dn);
  // the generated structure should produce sub-iteration spans of the same
  // order of magnitude (hundreds of ms to ~2 s).
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_40B(), P3dn24xlarge(), 16));
  TimeNs largest = 0;
  for (const IdleSpan& span : timeline.idle_spans) {
    largest = std::max(largest, span.length);
  }
  EXPECT_GT(largest, Millis(300));
  EXPECT_LT(largest, Seconds(3));
}

TEST(TimelineTest, ExtractIdleSpansHandlesEmptyComm) {
  const std::vector<IdleSpan> spans = ExtractIdleSpans({}, Seconds(10));
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].start, 0);
  EXPECT_EQ(spans[0].length, Seconds(10));
}

TEST(TimelineTest, ExtractIdleSpansSkipsZeroGaps) {
  std::vector<CommSegment> comm = {
      {0, Seconds(1), CommKind::kForwardAllGather, 0},
      {Seconds(1), Seconds(1), CommKind::kForwardAllGather, 1},  // back-to-back
      {Seconds(3), Seconds(1), CommKind::kForwardAllGather, 2},
  };
  const std::vector<IdleSpan> spans = ExtractIdleSpans(comm, Seconds(5));
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].start, Seconds(2));
  EXPECT_EQ(spans[0].length, Seconds(1));
  EXPECT_EQ(spans[1].start, Seconds(4));
}

class TimelineSweepTest
    : public ::testing::TestWithParam<std::tuple<const char*, const char*, int>> {};

TEST_P(TimelineSweepTest, InvariantsAcrossWorkloads) {
  const auto [model_name, instance_name, machines] = GetParam();
  const ModelConfig* model = FindModel(model_name);
  const InstanceSpec* instance = FindInstanceSpec(instance_name);
  ASSERT_NE(model, nullptr);
  ASSERT_NE(instance, nullptr);
  const IterationTimeline timeline = BuildZero3Timeline(Params(*model, *instance, machines));
  EXPECT_GT(timeline.iteration_time, 0);
  EXPECT_GT(timeline.TotalCommBusy(), 0);
  EXPECT_EQ(timeline.TotalIdle() + timeline.TotalCommBusy(), timeline.iteration_time);
  EXPECT_EQ(timeline.iteration_time, timeline.update_start + timeline.update_duration);
  EXPECT_FALSE(timeline.idle_spans.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TimelineSweepTest,
    ::testing::Values(
        std::make_tuple("GPT-2 10B", "p3dn.24xlarge", 16),
        std::make_tuple("GPT-2 20B", "p3dn.24xlarge", 16),
        std::make_tuple("GPT-2 40B", "p3dn.24xlarge", 16),
        std::make_tuple("RoBERTa 40B", "p3dn.24xlarge", 16),
        std::make_tuple("BERT 40B", "p3dn.24xlarge", 16),
        std::make_tuple("GPT-2 100B", "p4d.24xlarge", 16),
        std::make_tuple("RoBERTa 100B", "p4d.24xlarge", 16),
        std::make_tuple("BERT 100B", "p4d.24xlarge", 16),
        std::make_tuple("GPT-2 100B", "p4d.24xlarge", 4),
        std::make_tuple("GPT-2 100B", "p4d.24xlarge", 64)));

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

TEST(ProfilerTest, MeansTrackNominalSpans) {
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_100B(), P4d24xlarge(), 16));
  Rng rng(7);
  const ProfileResult result = ProfileIdleSpans(timeline, ProfilerConfig{}, rng);
  ASSERT_EQ(result.spans.size(), timeline.idle_spans.size());
  for (size_t i = 0; i < result.spans.size(); ++i) {
    const double nominal = static_cast<double>(timeline.idle_spans[i].length);
    EXPECT_NEAR(static_cast<double>(result.spans[i].length), nominal, nominal * 0.1);
    EXPECT_EQ(result.spans[i].start, timeline.idle_spans[i].start);
  }
}

TEST(ProfilerTest, NormalizedStddevBelowTenPercent) {
  // Section 5.4: "The normalized standard deviation of the measurements is
  // less than 10%."
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_100B(), P4d24xlarge(), 16));
  Rng rng(11);
  const ProfileResult result = ProfileIdleSpans(timeline, ProfilerConfig{}, rng);
  EXPECT_LT(result.max_normalized_stddev, 0.10);
  EXPECT_GT(result.max_normalized_stddev, 0.0);
  EXPECT_EQ(result.iterations_profiled, 20);
}

TEST(ProfilerTest, DeterministicGivenSeed) {
  const IterationTimeline timeline =
      BuildZero3Timeline(Params(Gpt2_40B(), P3dn24xlarge(), 16));
  Rng rng_a(3);
  Rng rng_b(3);
  const ProfileResult a = ProfileIdleSpans(timeline, ProfilerConfig{}, rng_a);
  const ProfileResult b = ProfileIdleSpans(timeline, ProfilerConfig{}, rng_b);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].length, b.spans[i].length);
  }
}

// ---------------------------------------------------------------------------
// ShardedTrainer
// ---------------------------------------------------------------------------

TEST(TrainerTest, StepAdvancesIterationAndMutatesState) {
  ShardedTrainer trainer(Gpt2_10B(), 4, 32, /*seed=*/1);
  const std::vector<float> before = trainer.shard(0);
  trainer.Step();
  EXPECT_EQ(trainer.iteration(), 1);
  EXPECT_NE(trainer.shard(0), before);
}

TEST(TrainerTest, DeterministicAcrossInstances) {
  ShardedTrainer a(Gpt2_10B(), 4, 32, 7);
  ShardedTrainer b(Gpt2_10B(), 4, 32, 7);
  for (int i = 0; i < 5; ++i) {
    a.Step();
    b.Step();
  }
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(a.shard(rank), b.shard(rank));
  }
}

TEST(TrainerTest, DifferentSeedsDiverge) {
  ShardedTrainer a(Gpt2_10B(), 2, 32, 1);
  ShardedTrainer b(Gpt2_10B(), 2, 32, 2);
  a.Step();
  b.Step();
  EXPECT_NE(a.shard(0), b.shard(0));
}

TEST(TrainerTest, CheckpointCarriesLogicalSize) {
  ShardedTrainer trainer(Gpt2_100B(), 16, 32, 1);
  const Checkpoint checkpoint = trainer.MakeCheckpoint(3);
  EXPECT_EQ(checkpoint.owner_rank, 3);
  EXPECT_EQ(checkpoint.iteration, 0);
  EXPECT_EQ(checkpoint.logical_bytes, Gpt2_100B().CheckpointBytesPerMachine(16));
  EXPECT_EQ(checkpoint.payload, trainer.shard(3));
}

// The core recovery-correctness property: restore-at-k then replay-to-j is
// bit-identical to an uninterrupted run. Parameterized over checkpoint and
// target iterations.
class TrainerReplayTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TrainerReplayTest, RestoreThenReplayIsBitExact) {
  const auto [checkpoint_at, replay_to] = GetParam();
  const int num_machines = 5;
  ShardedTrainer reference(Gpt2_20B(), num_machines, 64, 17);
  ShardedTrainer crashed(Gpt2_20B(), num_machines, 64, 17);

  // Run both to the checkpoint; snapshot the crashed one.
  for (int i = 0; i < checkpoint_at; ++i) {
    reference.Step();
    crashed.Step();
  }
  std::vector<Checkpoint> snapshot;
  for (int rank = 0; rank < num_machines; ++rank) {
    snapshot.push_back(crashed.MakeCheckpoint(rank));
  }
  // The crashed trainer keeps going past the checkpoint, then "fails".
  for (int i = checkpoint_at; i < replay_to; ++i) {
    reference.Step();
    crashed.Step();
  }
  crashed.Step();  // Extra divergence past the failure point.
  ASSERT_TRUE(crashed.RestoreAll(snapshot).ok());
  EXPECT_EQ(crashed.iteration(), checkpoint_at);
  // Replay.
  while (crashed.iteration() < replay_to) {
    crashed.Step();
  }
  for (int rank = 0; rank < num_machines; ++rank) {
    EXPECT_EQ(crashed.shard(rank), reference.shard(rank)) << "rank " << rank << " diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Replays, TrainerReplayTest,
                         ::testing::Values(std::make_tuple(0, 3), std::make_tuple(2, 2),
                                           std::make_tuple(2, 6), std::make_tuple(5, 9),
                                           std::make_tuple(1, 10)));

TEST(TrainerTest, RestoreAllRejectsMixedIterations) {
  ShardedTrainer trainer(Gpt2_10B(), 2, 16, 1);
  std::vector<Checkpoint> set;
  set.push_back(trainer.MakeCheckpoint(0));
  trainer.Step();
  set.push_back(trainer.MakeCheckpoint(1));
  EXPECT_EQ(trainer.RestoreAll(set).code(), StatusCode::kFailedPrecondition);
}

TEST(TrainerTest, RestoreAllRejectsDuplicateRanks) {
  ShardedTrainer trainer(Gpt2_10B(), 2, 16, 1);
  std::vector<Checkpoint> set = {trainer.MakeCheckpoint(0), trainer.MakeCheckpoint(0)};
  EXPECT_EQ(trainer.RestoreAll(set).code(), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, RestoreAllRejectsWrongCount) {
  ShardedTrainer trainer(Gpt2_10B(), 3, 16, 1);
  std::vector<Checkpoint> set = {trainer.MakeCheckpoint(0)};
  EXPECT_EQ(trainer.RestoreAll(set).code(), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, RestoreShardRejectsSizeMismatch) {
  ShardedTrainer trainer(Gpt2_10B(), 2, 16, 1);
  Checkpoint checkpoint = trainer.MakeCheckpoint(0);
  checkpoint.payload = checkpoint.payload.Slice(0, 8);
  EXPECT_EQ(trainer.RestoreShard(checkpoint).code(), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, RestoreShardRejectsBadRank) {
  ShardedTrainer trainer(Gpt2_10B(), 2, 16, 1);
  Checkpoint checkpoint = trainer.MakeCheckpoint(0);
  checkpoint.owner_rank = 9;
  EXPECT_EQ(trainer.RestoreShard(checkpoint).code(), StatusCode::kInvalidArgument);
}

std::vector<uint32_t> ShardCrcs(const ShardedTrainer& trainer) {
  std::vector<uint32_t> crcs;
  for (int rank = 0; rank < trainer.num_machines(); ++rank) {
    const std::vector<float>& shard = trainer.shard(rank);
    crcs.push_back(Crc32(shard.data(), shard.size() * sizeof(float)));
  }
  return crcs;
}

// Every other trainer test compares one trainer with another, which a kernel
// that is self-consistent but different would pass. These digests pin the
// update rule's exact bits (dense and sparse) to the scalar reference loop
// the kernel replaced.
TEST(TrainerTest, ShardsMatchParentGoldenCrcs) {
  ShardedTrainer dense(Gpt2_100B(), 4, 4099, 2024);
  ShardedTrainer sparse(Gpt2_100B(), 4, 4099, 2024);
  sparse.SetSparseUpdates(0.25, 64);
  for (int i = 0; i < 5; ++i) {
    dense.Step();
    sparse.Step();
  }
  EXPECT_EQ(ShardCrcs(dense),
            (std::vector<uint32_t>{0xe1855372u, 0x2200deabu, 0xefb7b9eau, 0xaaf29dbcu}));
  EXPECT_EQ(ShardCrcs(sparse),
            (std::vector<uint32_t>{0x4f2f5388u, 0xe2ed6891u, 0x6a21213au, 0xb66d53c5u}));
}

// A capture's payload_crc is combined from the shard's block CRCs; it must
// equal the CRC of the captured bytes through every path that writes a
// shard: dense steps, sparse steps at several chunk sizes (with a short tail
// chunk), out-of-place writes while a capture is held, several steps between
// captures, repeated captures of one state, a switch of update mode, and
// RestoreAll followed by ReplayTo.
TEST(TrainerTest, CaptureCrcMatchesBytes) {
  // Captures every rank and checks each capture against its bytes.
  auto capture_all = [](const ShardedTrainer& trainer, const std::string& label) {
    std::vector<Checkpoint> captures;
    for (int rank = 0; rank < trainer.num_machines(); ++rank) {
      captures.push_back(trainer.MakeCheckpoint(rank));
      EXPECT_EQ(captures.back().payload_crc, captures.back().ComputePayloadCrc())
          << label << " rank " << rank << " iteration " << trainer.iteration();
    }
    return captures;
  };
  for (const size_t chunk : {size_t{0}, size_t{7}, size_t{1024}, size_t{4096}}) {
    const std::string label = chunk == 0 ? "dense" : "sparse chunk " + std::to_string(chunk);
    ShardedTrainer trainer(Gpt2_10B(), 3, 9000, 11);
    if (chunk != 0) {
      trainer.SetSparseUpdates(0.3, chunk);
    }
    const std::vector<Checkpoint> base = capture_all(trainer, label + " initial");
    std::vector<Checkpoint> held = base;
    for (int i = 0; i < 3; ++i) {
      trainer.Step();  // Out of place: `held` pins every rank's live buffer.
      held = capture_all(trainer, label + " held");
    }
    held.clear();
    trainer.Step();  // In place.
    capture_all(trainer, label + " in place");
    for (int i = 0; i < 3; ++i) {
      trainer.Step();
    }
    capture_all(trainer, label + " three steps after a capture");
    capture_all(trainer, label + " captured again without a step");
    ASSERT_TRUE(trainer.RestoreAll(base).ok());
    capture_all(trainer, label + " restored");
    ASSERT_TRUE(trainer.ReplayTo(9).ok());
    capture_all(trainer, label + " replayed");
    ASSERT_TRUE(trainer.RestoreAll(base).ok());
    ASSERT_TRUE(trainer.ReplayTo(2).ok());  // No capture between restore and replay.
    capture_all(trainer, label + " restored and replayed");
    trainer.SetSparseUpdates(chunk == 0 ? 0.5 : 1.0, chunk == 0 ? 100 : 1);
    trainer.Step();
    capture_all(trainer, label + " after a mode switch");
    trainer.Step();
    capture_all(trainer, label + " stepped after a mode switch");
  }
}

// The update as it was first written, one element at a time: the reference
// both kernel variants share no code with. The kernel strength-reduces the
// element term to an induction variable and maps the hash to [-0.5, 0.5)
// through int64 -> float; this keeps the multiply and the double expression.
float ReferenceUpdateDelta(uint64_t seed, int64_t iteration, int rank, size_t element) {
  uint64_t x = seed;
  x ^= static_cast<uint64_t>(iteration) * 0x9E3779B97F4A7C15ULL;
  x ^= (static_cast<uint64_t>(rank) + 1) * 0xBF58476D1CE4E5B9ULL;
  x ^= (static_cast<uint64_t>(element) + 1) * 0x94D049BB133111EBULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<float>(static_cast<double>(x >> 11) * 0x1.0p-53 - 0.5);
}

// Both variants against the per-element reference over random seeds,
// iterations (including -1, the initial state's), ranks and counts 0-40,
// with `first` both small and within 40 of 2^64, so the element term wraps.
TEST(UpdateKernelTest, VariantsMatchPerElementReference) {
  constexpr size_t kMaxCount = 40;
  Rng rng(0x0DE17A);
  std::vector<float> input(kMaxCount);
  for (int trial = 0; trial < 400; ++trial) {
    const uint64_t seed = rng.NextU64();
    const int64_t iteration = trial % 4 == 0 ? -1 : rng.UniformInt(0, int64_t{1} << 40);
    const int rank = static_cast<int>(rng.UniformInt(0, 4095));
    const size_t count = static_cast<size_t>(rng.UniformInt(0, kMaxCount));
    const size_t first = trial % 2 == 0 ? static_cast<size_t>(rng.UniformInt(0, 1 << 30))
                                        : ~size_t{0} - static_cast<size_t>(rng.UniformInt(0, 40));
    for (float& value : input) {
      value = static_cast<float>(rng.UniformDouble(-4.0, 4.0));
    }
    std::vector<float> want(kMaxCount, -1.0f);
    for (size_t i = 0; i < count; ++i) {
      // volatile rounds the product to float, as the kernel's TU (built without
      // multiply-add contraction) does.
      const volatile float scaled = input[i] * 0.999f;
      want[i] = scaled + ReferenceUpdateDelta(seed, iteration, rank, first + i);
    }
    for (const auto variant : {&ApplyUpdatePortable, &ApplyUpdate}) {
      std::vector<float> got(kMaxCount, -1.0f);
      variant(seed, iteration, rank, first, count, input.data(), got.data());
      ASSERT_EQ(std::memcmp(want.data(), got.data(), kMaxCount * sizeof(float)), 0)
          << (variant == &ApplyUpdate ? UpdateKernelName() : "portable") << " seed " << seed
          << " iteration " << iteration << " rank " << rank << " first " << first << " count "
          << count;
    }
  }
}

// The dispatched variant (AVX-512 where the CPU has it) against the portable
// one at every vector-remainder length and misalignment, in place and out of
// place. Elements outside [begin, begin + length) must stay untouched.
TEST(UpdateKernelTest, DispatchedMatchesPortable) {
  constexpr size_t kElements = 48;
  std::vector<float> input(kElements);
  Rng rng(99);
  for (float& value : input) {
    value = static_cast<float>(rng.NextDouble() - 0.5);
  }
  for (size_t begin = 0; begin <= 7; ++begin) {
    for (size_t length = 0; length <= 40; ++length) {
      std::vector<float> want = input;
      std::vector<float> got = input;
      ApplyUpdatePortable(5, 3, 2, begin, length, want.data() + begin, want.data() + begin);
      ApplyUpdate(5, 3, 2, begin, length, got.data() + begin, got.data() + begin);
      ASSERT_EQ(std::memcmp(want.data(), got.data(), kElements * sizeof(float)), 0)
          << "in place, begin " << begin << " length " << length;

      std::vector<float> out(kElements, -1.0f);
      ApplyUpdate(5, 3, 2, begin, length, input.data() + begin, out.data() + begin);
      for (size_t i = 0; i < kElements; ++i) {
        const float expected = i >= begin && i < begin + length ? want[i] : -1.0f;
        ASSERT_EQ(std::memcmp(&out[i], &expected, sizeof(float)), 0)
            << "out of place, begin " << begin << " length " << length << " element " << i;
      }
    }
  }
  EXPECT_TRUE(std::string(UpdateKernelName()) == "avx512" ||
              std::string(UpdateKernelName()) == "portable");
}

// Copy-on-write capture: a checkpoint shares the live buffer, and every later
// write to the rank leaves the captured bytes exactly as they were.
TEST(TrainerTest, CaptureIsFrozenAcrossStep) {
  for (const double fraction : {1.0, 0.5}) {
    ShardedTrainer trainer(Gpt2_10B(), 2, 100, 3);
    trainer.SetSparseUpdates(fraction, 8);
    trainer.Step();
    const std::vector<float> before = trainer.shard(1);
    const Checkpoint capture = trainer.MakeCheckpoint(1);
    EXPECT_EQ(capture.payload.data(), trainer.shard(1).data()) << "capture copied the shard";
    trainer.Step();
    EXPECT_NE(trainer.shard(1), before);
    EXPECT_TRUE(capture.IntegrityOk());
    EXPECT_EQ(capture.payload, before);
    EXPECT_EQ(capture.iteration, 1);
  }
}

TEST(TrainerTest, RestoreAndReplayLeaveHeldCaptureUntouched) {
  ShardedTrainer trainer(Gpt2_10B(), 3, 64, 4);
  ShardedTrainer reference(Gpt2_10B(), 3, 64, 4);
  trainer.Step();
  reference.Step();
  std::vector<Checkpoint> base;
  for (int rank = 0; rank < 3; ++rank) {
    base.push_back(trainer.MakeCheckpoint(rank));
  }
  trainer.Step();
  const Checkpoint held = trainer.MakeCheckpoint(0);
  const std::vector<float> held_values = held.payload.ToVector();

  // RestoreShard and RestoreAll write over a rank whose live buffer `held`
  // shares; ReplayTo then steps it again.
  ASSERT_TRUE(trainer.RestoreShard(base[0]).ok());
  EXPECT_EQ(held.payload, held_values);
  const Checkpoint held_after_restore = trainer.MakeCheckpoint(0);
  ASSERT_TRUE(trainer.RestoreAll(base).ok());
  EXPECT_EQ(held_after_restore.payload, base[0].payload);
  ASSERT_TRUE(trainer.ReplayTo(4).ok());
  while (reference.iteration() < 4) {
    reference.Step();
  }
  EXPECT_EQ(held.payload, held_values);
  EXPECT_TRUE(held.IntegrityOk());
  for (const Checkpoint& checkpoint : base) {
    EXPECT_TRUE(checkpoint.IntegrityOk());
  }
  for (int rank = 0; rank < 3; ++rank) {
    EXPECT_EQ(trainer.shard(rank), reference.shard(rank)) << "rank " << rank;
  }
}

// The parent's eager trainer, kept as the reference for the deferred one:
// every Step() and every replayed iteration runs the per-iteration loop below
// over every shard at once, marking the dirty chunks it writes. No captures,
// so it always writes in place.
bool ReferenceChunkTouched(uint64_t seed, int64_t iteration, int rank, size_t chunk,
                           double fraction) {
  uint64_t x = seed ^ 0xD1B54A32D192ED03ULL;
  x ^= static_cast<uint64_t>(iteration) * 0x9E3779B97F4A7C15ULL;
  x ^= (static_cast<uint64_t>(rank) + 1) * 0xBF58476D1CE4E5B9ULL;
  x ^= (static_cast<uint64_t>(chunk) + 1) * 0x94D049BB133111EBULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < fraction;
}

struct EagerTrainer {
  EagerTrainer(int num_machines, size_t elements, uint64_t seed)
      : seed(seed), shards(static_cast<size_t>(num_machines)) {
    for (int rank = 0; rank < num_machines; ++rank) {
      std::vector<float>& shard = shards[static_cast<size_t>(rank)];
      shard.assign(elements, 0.0f);
      ApplyUpdate(seed, -1, rank, 0, elements, shard.data(), shard.data());
    }
  }

  void EnableDirtyTracking(size_t chunk_elements) {
    dirty_chunk_elements = chunk_elements;
    const size_t chunks = (shards.front().size() + chunk_elements - 1) / chunk_elements;
    dirty.assign(shards.size(), std::vector<uint8_t>(chunks, 1));
  }
  void MarkChunkDirty(int rank, size_t chunk) {
    if (dirty_chunk_elements > 0) {
      dirty[static_cast<size_t>(rank)].at(chunk) = 1;
    }
  }

  void UpdateShardsAtCurrentIteration() {
    for (int rank = 0; rank < static_cast<int>(shards.size()); ++rank) {
      std::vector<float>& shard = shards[static_cast<size_t>(rank)];
      const size_t elements = shard.size();
      if (sparse_fraction >= 1.0) {
        ApplyUpdate(seed, iteration, rank, 0, elements, shard.data(), shard.data());
        if (dirty_chunk_elements > 0) {
          std::fill(dirty[static_cast<size_t>(rank)].begin(),
                    dirty[static_cast<size_t>(rank)].end(), 1);
        }
        continue;
      }
      const size_t num_chunks = (elements + sparse_chunk_elements - 1) / sparse_chunk_elements;
      for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
        const size_t begin = chunk * sparse_chunk_elements;
        const size_t end = std::min(elements, begin + sparse_chunk_elements);
        if (!ReferenceChunkTouched(seed, iteration, rank, chunk, sparse_fraction)) {
          continue;
        }
        ApplyUpdate(seed, iteration, rank, begin, end - begin, shard.data() + begin,
                    shard.data() + begin);
        if (dirty_chunk_elements > 0) {
          for (size_t e = begin; e < end; e += dirty_chunk_elements) {
            MarkChunkDirty(rank, e / dirty_chunk_elements);
          }
          MarkChunkDirty(rank, (end - 1) / dirty_chunk_elements);
        }
      }
    }
  }

  void Step() {
    UpdateShardsAtCurrentIteration();
    ++iteration;
  }
  void ReplayTo(int64_t target) {
    while (iteration < target) {
      Step();
    }
  }
  void RestoreShard(const Checkpoint& checkpoint) {
    shards[static_cast<size_t>(checkpoint.owner_rank)] = checkpoint.payload.ToVector();
    if (dirty_chunk_elements > 0) {
      std::fill(dirty[static_cast<size_t>(checkpoint.owner_rank)].begin(),
                dirty[static_cast<size_t>(checkpoint.owner_rank)].end(), 1);
    }
  }
  void RestoreAll(const std::vector<Checkpoint>& checkpoints) {
    for (const Checkpoint& checkpoint : checkpoints) {
      RestoreShard(checkpoint);
    }
    iteration = checkpoints.front().iteration;
  }
  std::vector<uint8_t> TakeDirtyChunks(int rank) {
    if (dirty_chunk_elements == 0) {
      return {};
    }
    std::vector<uint8_t> taken = dirty[static_cast<size_t>(rank)];
    std::fill(dirty[static_cast<size_t>(rank)].begin(), dirty[static_cast<size_t>(rank)].end(),
              0);
    return taken;
  }

  uint64_t seed;
  int64_t iteration = 0;
  double sparse_fraction = 1.0;
  size_t sparse_chunk_elements = 1;
  size_t dirty_chunk_elements = 0;
  std::vector<std::vector<float>> shards;
  std::vector<std::vector<uint8_t>> dirty;
};

bool SameBits(const float* data, size_t size, const std::vector<float>& want) {
  return size == want.size() && std::memcmp(data, want.data(), size * sizeof(float)) == 0;
}

// Deferred steps (each shard catches up when read, fusing the update with the
// capture's CRC) against the eager per-iteration loop, over seeded random
// sequences of every trainer call: dense and sparse shards (some spanning
// several catch-up tiles), dirty tracking at the sparse chunk size and at
// another, update-mode switches with steps pending, captures held (so later
// writes go out of place) or dropped (in place), restores and replays.
// Every read compares bytes, payload_crc, dirty bits and the iteration; at
// the end every held capture must still hold the bytes it was taken with.
TEST(TrainerTest, DeferredStepsMatchEagerLoop) {
  Rng rng(0xDEFE);
  int failures = 0;
  for (int trial = 0; trial < 1200 && failures < 5; ++trial) {
    const int machines = static_cast<int>(rng.UniformInt(1, 3));
    const size_t elements = rng.Bernoulli(0.15) ? static_cast<size_t>(rng.UniformInt(4090, 9000))
                                                : static_cast<size_t>(rng.UniformInt(1, 300));
    const uint64_t seed = rng.NextU64Below(1000);
    const auto random_mode = [&](size_t* chunk) {
      *chunk = rng.Bernoulli(0.1) ? static_cast<size_t>(rng.UniformInt(4000, 6000))
                                  : static_cast<size_t>(rng.UniformInt(1, 64));
      return rng.Bernoulli(0.3) ? 1.0 : 0.1 + 0.8 * rng.NextDouble();
    };
    ShardedTrainer trainer(Gpt2_10B(), machines, static_cast<int>(elements), seed);
    EagerTrainer reference(machines, elements, seed);
    size_t chunk = 1;
    const double fraction = random_mode(&chunk);
    if (fraction < 1.0) {
      trainer.SetSparseUpdates(fraction, chunk);
      reference.sparse_fraction = fraction;
      reference.sparse_chunk_elements = chunk;
    }
    if (rng.Bernoulli(0.6)) {
      const size_t dirty_chunk =
          rng.Bernoulli(0.5) ? chunk : static_cast<size_t>(rng.UniformInt(1, 100));
      trainer.EnableDirtyTracking(dirty_chunk);
      reference.EnableDirtyTracking(dirty_chunk);
    }

    struct Held {
      Checkpoint capture;
      std::vector<float> bytes;
    };
    std::vector<Held> held;
    std::vector<Checkpoint> base_set;
    const auto check = [&](bool ok, const std::string& what) {
      if (!ok) {
        ++failures;
        ADD_FAILURE() << "trial " << trial << ": " << what;
      }
      return ok;
    };
    for (int op = 0; op < 40; ++op) {
      const int rank = static_cast<int>(rng.UniformInt(0, machines - 1));
      const std::string at = " (op " + std::to_string(op) + ", rank " + std::to_string(rank) + ")";
      switch (rng.UniformInt(0, 9)) {
        case 0:
        case 1:
        case 2:
          trainer.Step();
          reference.Step();
          break;
        case 3: {
          const Checkpoint capture = trainer.MakeCheckpoint(rank);
          const std::vector<float>& want = reference.shards[static_cast<size_t>(rank)];
          check(SameBits(capture.payload.data(), capture.payload.size(), want),
                "capture bytes" + at);
          check(capture.payload_crc == Crc32(want.data(), want.size() * sizeof(float)),
                "capture payload_crc" + at);
          check(capture.iteration == reference.iteration, "capture iteration" + at);
          if (rng.Bernoulli(0.5)) {
            held.push_back({capture, want});
            if (held.size() > 4) {
              held.erase(held.begin());
            }
          }
          break;
        }
        case 4: {
          const std::vector<float>& got = trainer.shard(rank);
          check(SameBits(got.data(), got.size(), reference.shards[static_cast<size_t>(rank)]),
                "shard bytes" + at);
          break;
        }
        case 5:
          check(trainer.TakeDirtyChunks(rank) == reference.TakeDirtyChunks(rank),
                "dirty bits" + at);
          break;
        case 6: {
          size_t next_chunk = 1;
          const double next_fraction = random_mode(&next_chunk);
          trainer.SetSparseUpdates(next_fraction, next_chunk);
          reference.sparse_fraction = next_fraction;
          reference.sparse_chunk_elements = next_chunk;
          break;
        }
        case 7:
          if (!base_set.empty() && rng.Bernoulli(0.5)) {
            check(trainer.RestoreAll(base_set).ok(), "RestoreAll" + at);
            reference.RestoreAll(base_set);
          } else {
            base_set.clear();
            for (int r = 0; r < machines; ++r) {
              base_set.push_back(trainer.MakeCheckpoint(r));
            }
          }
          break;
        case 8:
          if (!held.empty()) {
            const Checkpoint& source =
                held[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1))]
                    .capture;
            check(trainer.RestoreShard(source).ok(), "RestoreShard" + at);
            reference.RestoreShard(source);
          }
          break;
        default: {
          const int64_t target = trainer.iteration() + rng.UniformInt(0, 4);
          check(trainer.ReplayTo(target).ok(), "ReplayTo" + at);
          reference.ReplayTo(target);
          break;
        }
      }
      check(trainer.iteration() == reference.iteration, "iteration" + at);
    }
    for (int rank = 0; rank < machines; ++rank) {
      const std::vector<float>& got = trainer.shard(rank);
      check(SameBits(got.data(), got.size(), reference.shards[static_cast<size_t>(rank)]),
            "final shard bytes, rank " + std::to_string(rank));
      const Checkpoint capture = trainer.MakeCheckpoint(rank);
      check(capture.payload_crc == capture.ComputePayloadCrc(),
            "final payload_crc, rank " + std::to_string(rank));
      check(trainer.TakeDirtyChunks(rank) == reference.TakeDirtyChunks(rank),
            "final dirty bits, rank " + std::to_string(rank));
    }
    for (const Held& h : held) {
      check(SameBits(h.capture.payload.data(), h.capture.payload.size(), h.bytes) &&
                h.capture.IntegrityOk(),
            "held capture changed after it was taken");
    }
  }
}

// The data path's steady state: step, capture every rank, hold the capture
// for a while (stores double-buffer), drop it. Once warm, the pools recycle,
// and the out-of-place steps land on the same bits as in-place ones.
TEST(TrainerTest, SteadyStateCaptureStopsAllocating) {
  for (const double fraction : {1.0, 0.25}) {
    ShardedTrainer trainer(Gpt2_10B(), 4, 256, 5);
    ShardedTrainer uncaptured(Gpt2_10B(), 4, 256, 5);
    trainer.SetSparseUpdates(fraction, 16);
    uncaptured.SetSparseUpdates(fraction, 16);
    std::vector<std::vector<Checkpoint>> held;
    size_t warm = 0;
    for (int iteration = 0; iteration < 20; ++iteration) {
      trainer.Step();
      std::vector<Checkpoint> captures;
      for (int rank = 0; rank < 4; ++rank) {
        captures.push_back(trainer.MakeCheckpoint(rank));
      }
      held.push_back(std::move(captures));
      if (held.size() > 2) {
        held.erase(held.begin());
      }
      if (iteration == 4) {
        warm = trainer.allocated_buffers();
      }
    }
    EXPECT_EQ(trainer.allocated_buffers(), warm);
    EXPECT_LE(warm, 4u * 3u);
    while (uncaptured.iteration() < trainer.iteration()) {
      uncaptured.Step();
    }
    EXPECT_EQ(uncaptured.allocated_buffers(), 4u);
    for (int rank = 0; rank < 4; ++rank) {
      EXPECT_EQ(trainer.shard(rank), uncaptured.shard(rank)) << "rank " << rank;
    }
    held.clear();
    // With nothing held, step + capture + drop stays in place.
    const size_t settled = trainer.allocated_buffers();
    for (int iteration = 0; iteration < 5; ++iteration) {
      trainer.Step();
      const float* live = trainer.shard(0).data();
      trainer.MakeCheckpoint(0);  // Captured and dropped at once.
      trainer.Step();
      EXPECT_EQ(trainer.shard(0).data(), live);
    }
    EXPECT_EQ(trainer.allocated_buffers(), settled);
  }
}

}  // namespace
}  // namespace gemini
