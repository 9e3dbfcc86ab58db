// Tests for the parallelism-generalization extension (paper Section 9
// future work): data-parallel and pipeline-parallel timelines, the
// checkpoint executor running each strategy's walk, and the Trainium
// instance profile.
#include <gtest/gtest.h>

#include "src/schedule/executor.h"
#include "src/training/parallelism.h"

namespace gemini {
namespace {

TimelineParams Gpt20BOnP4d() {
  TimelineParams params;
  params.model = Gpt2_20B();
  params.instance = P4d24xlarge();
  params.num_machines = 16;
  return params;
}

ExecutorParams GeminiOn(ParallelismStrategy strategy, const TimelineParams& timeline) {
  ExecutorParams params;
  params.timeline = timeline;
  params.strategy = strategy;
  return params;
}

// ---------------------------------------------------------------------------
// Data-parallel timeline
// ---------------------------------------------------------------------------

TEST(DataParallelTimelineTest, ForwardPassIsNetworkSilent) {
  const IterationTimeline timeline = BuildDataParallelTimeline(Gpt20BOnP4d());
  ASSERT_FALSE(timeline.comm.empty());
  // No communication before the forward pass ends: the first idle span is a
  // long prefix of the iteration.
  ASSERT_FALSE(timeline.idle_spans.empty());
  EXPECT_EQ(timeline.idle_spans.front().start, 0);
  EXPECT_EQ(timeline.idle_spans.front().length, timeline.comm.front().start);
  // The forward pass alone is seconds of silent network.
  EXPECT_GT(timeline.idle_spans.front().length, Seconds(1));
}

TEST(DataParallelTimelineTest, BucketsQueueInOrder) {
  DataParallelOptions options;
  options.gradient_buckets = 4;
  const IterationTimeline timeline = BuildDataParallelTimeline(Gpt20BOnP4d(), options);
  EXPECT_EQ(timeline.comm.size(), 4u);
  TimeNs cursor = 0;
  for (const CommSegment& segment : timeline.comm) {
    EXPECT_GE(segment.start, cursor);
    cursor = segment.end();
  }
  EXPECT_EQ(timeline.TotalIdle() + timeline.TotalCommBusy(), timeline.iteration_time);
}

TEST(DataParallelTimelineTest, MoreBucketsImproveOverlap) {
  // Finer buckets start all-reducing earlier, shortening the iteration (or
  // at least never lengthening it beyond the per-bucket alpha overhead).
  DataParallelOptions coarse;
  coarse.gradient_buckets = 1;
  DataParallelOptions fine;
  fine.gradient_buckets = 16;
  const TimeNs coarse_time = BuildDataParallelTimeline(Gpt20BOnP4d(), coarse).iteration_time;
  const TimeNs fine_time = BuildDataParallelTimeline(Gpt20BOnP4d(), fine).iteration_time;
  EXPECT_LE(fine_time, coarse_time + Millis(10));
}

// ---------------------------------------------------------------------------
// Pipeline-parallel timeline
// ---------------------------------------------------------------------------

TEST(PipelineTimelineTest, NetworkIsMostlyIdle) {
  const IterationTimeline timeline = BuildPipelineParallelTimeline(Gpt20BOnP4d());
  // Activation hops are tiny next to compute: the network should be idle for
  // the overwhelming majority of the iteration.
  const double idle_fraction = static_cast<double>(timeline.TotalIdle()) /
                               static_cast<double>(timeline.iteration_time);
  EXPECT_GT(idle_fraction, 0.8);
}

TEST(PipelineTimelineTest, SegmentCountMatchesMicrobatches) {
  PipelineParallelOptions options;
  options.num_microbatches = 8;
  const IterationTimeline timeline =
      BuildPipelineParallelTimeline(Gpt20BOnP4d(), options);
  // Two hops per microbatch per direction.
  EXPECT_EQ(timeline.comm.size(), 4u * 8u);
  EXPECT_EQ(timeline.TotalIdle() + timeline.TotalCommBusy(), timeline.iteration_time);
}

TEST(PipelineTimelineTest, MoreMicrobatchesShrinkBubbleShare) {
  PipelineParallelOptions few;
  few.num_microbatches = 4;
  PipelineParallelOptions many;
  many.num_microbatches = 64;
  const IterationTimeline a = BuildPipelineParallelTimeline(Gpt20BOnP4d(), few);
  const IterationTimeline b = BuildPipelineParallelTimeline(Gpt20BOnP4d(), many);
  // The fill/drain bubble is fixed while useful work scales with
  // microbatches, so the bubble fraction falls.
  const double bubble_a = static_cast<double>(a.comm.front().start) /
                          static_cast<double>(a.iteration_time);
  const double bubble_b = static_cast<double>(b.comm.front().start) /
                          static_cast<double>(b.iteration_time);
  EXPECT_GT(bubble_a, bubble_b);
}

// ---------------------------------------------------------------------------
// Checkpoint executor across strategies
// ---------------------------------------------------------------------------

class StrategyExecutorTest : public ::testing::TestWithParam<ParallelismStrategy> {};

TEST_P(StrategyExecutorTest, GeminiCheckpointFitsWithZeroOverhead) {
  const TimelineParams timeline_params = Gpt20BOnP4d();
  const ExecutionResult result =
      ExecuteIterationWithCheckpoint(GeminiOn(GetParam(), timeline_params));
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_LT(result.overhead_fraction, 0.01) << ParallelismStrategyName(GetParam());
  EXPECT_TRUE(result.partition.fits_within_idle_time);
  EXPECT_TRUE(result.checkpoint_within_iteration);
  // All replica traffic was scheduled.
  Bytes total = 0;
  for (const ChunkAssignment& chunk : result.partition.chunks) {
    total += chunk.bytes;
  }
  EXPECT_EQ(total, timeline_params.model.CheckpointBytesPerMachine(16));
}

TEST_P(StrategyExecutorTest, BaselineIsTheStrategysNominalTimeline) {
  // The executor's baseline is the strategy's walk on the nominal NIC, and
  // without checkpointing it returns that baseline unchanged.
  const TimelineParams timeline_params = Gpt20BOnP4d();
  ExecutorParams params = GeminiOn(GetParam(), timeline_params);
  const TimeNs nominal = BuildTimelineFor(GetParam(), timeline_params).iteration_time;
  const ExecutionResult gemini = ExecuteIterationWithCheckpoint(params);
  ASSERT_TRUE(gemini.status.ok()) << gemini.status;
  EXPECT_EQ(gemini.baseline_iteration_time, nominal);
  params.scheme = InterleaveScheme::kNone;
  const ExecutionResult none = ExecuteIterationWithCheckpoint(params);
  ASSERT_TRUE(none.status.ok()) << none.status;
  EXPECT_EQ(none.baseline_iteration_time, nominal);
  EXPECT_EQ(none.iteration_time, nominal);
}

TEST_P(StrategyExecutorTest, OversizedCheckpointProlongsIteration) {
  const TimelineParams timeline_params = Gpt20BOnP4d();
  ExecutorParams params = GeminiOn(GetParam(), timeline_params);
  // An absurd checkpoint (10x the model) cannot fit the idle spans.
  params.checkpoint_bytes_override = 10 * timeline_params.model.CheckpointBytesTotal();
  const ExecutionResult result = ExecuteIterationWithCheckpoint(params);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_FALSE(result.partition.fits_within_idle_time);
  EXPECT_GT(result.iteration_time, result.baseline_iteration_time);
}

TEST_P(StrategyExecutorTest, SingleReplicaIsFree) {
  ExecutorParams params = GeminiOn(GetParam(), Gpt20BOnP4d());
  params.num_replicas = 1;
  const ExecutionResult result = ExecuteIterationWithCheckpoint(params);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_TRUE(result.partition.chunks.empty());
  EXPECT_EQ(result.iteration_time, result.baseline_iteration_time);
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategyExecutorTest,
                         ::testing::Values(ParallelismStrategy::kZero3,
                                           ParallelismStrategy::kDataParallel,
                                           ParallelismStrategy::kPipelineParallel));

// ---------------------------------------------------------------------------
// Trainium
// ---------------------------------------------------------------------------

TEST(TrainiumTest, SpecIsSane) {
  const InstanceSpec& spec = Trn1_32xlarge();
  EXPECT_EQ(spec.num_gpus, 16);
  EXPECT_EQ(spec.gpu_model, "Trainium");
  EXPECT_DOUBLE_EQ(BytesPerSecondToGbps(spec.network_bandwidth), 800.0);
  // Unlike the GPU instances, host memory only matches accelerator memory.
  EXPECT_EQ(spec.cpu_memory, spec.total_gpu_memory());
}

TEST(TrainiumTest, HostMemoryBoundsReplicaCapacity) {
  // With m=2 group placement each host stores 2 owners x 2 buffers = 4x the
  // per-machine checkpoint. On trn1 (512 GB host) that caps the model at
  // 512/4 = 128 GB of machine checkpoint => ~10.6B params/machine; p4d's
  // 1152 GB allows 2.25x more.
  const Bytes trn1_cap = Trn1_32xlarge().cpu_memory / 4;
  const Bytes p4d_cap = P4d24xlarge().cpu_memory / 4;
  EXPECT_EQ(trn1_cap, GiB(128));
  EXPECT_EQ(p4d_cap, GiB(288));
}

TEST(TrainiumTest, Zero3CheckpointingStillFree) {
  TimelineParams params;
  params.model = Gpt2_20B();
  params.instance = Trn1_32xlarge();
  params.num_machines = 16;
  const ExecutionResult result =
      ExecuteIterationWithCheckpoint(GeminiOn(ParallelismStrategy::kZero3, params));
  ASSERT_TRUE(result.status.ok());
  EXPECT_LT(result.overhead_fraction, 0.01);
  EXPECT_TRUE(result.partition.fits_within_idle_time);
}

}  // namespace
}  // namespace gemini
