#include "src/training/parallelism.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/collectives/collectives.h"
#include "src/common/calibration.h"

namespace gemini {

std::string_view ParallelismStrategyName(ParallelismStrategy strategy) {
  switch (strategy) {
    case ParallelismStrategy::kZero3:
      return "zero3";
    case ParallelismStrategy::kDataParallel:
      return "data_parallel";
    case ParallelismStrategy::kPipelineParallel:
      return "pipeline_parallel";
  }
  return "unknown";
}

namespace {

TimeNs WalkDataParallelIteration(const TimelineParams& params,
                                 const DataParallelOptions& options, IterationNic& nic) {
  assert(params.num_machines >= 1);
  assert(options.gradient_buckets >= 1);
  const ModelConfig& model = params.model;
  const InstanceSpec& instance = params.instance;
  // Note: pure data parallelism requires the full replica to fit in one
  // machine's accelerators; callers use it for the <=20B workloads.

  const double total_params = static_cast<double>(model.nominal_params);
  const double tokens = static_cast<double>(model.TokensPerGpuPerIteration());
  const double flops = instance.effective_flops_per_gpu;
  const TimeNs forward = Seconds(total_params * tokens * kForwardFlopsPerParamToken / flops);
  const TimeNs backward = Seconds(total_params * tokens * kBackwardFlopsPerParamToken / flops);

  RingCostModel ring;
  ring.link_bandwidth = instance.network_bandwidth;
  ring.alpha = params.comm_alpha;
  ring.efficiency = instance.collective_efficiency;
  const int buckets = options.gradient_buckets;
  const Bytes bucket_bytes =
      model.nominal_params * ModelConfig::kParamBytesFp16 / buckets;
  const TimeNs bucket_allreduce = ring.AllReduceTime(bucket_bytes, params.num_machines);

  // Forward: the network is silent. Backward: bucket k's gradients are ready
  // after (k+1)/buckets of the backward pass; all-reduces queue FIFO on the
  // NIC (DDP's overlap structure).
  TimeNs last_allreduce_end = 0;
  for (int bucket = 0; bucket < buckets; ++bucket) {
    const TimeNs ready = forward + backward * (bucket + 1) / buckets;
    last_allreduce_end =
        nic.Push(ready, bucket_allreduce, CommKind::kGradReduceScatter, bucket);
  }
  return std::max(forward + backward, last_allreduce_end);
}

TimeNs WalkPipelineParallelIteration(const TimelineParams& params,
                                     const PipelineParallelOptions& options, IterationNic& nic) {
  assert(params.num_machines >= 1);
  assert(options.num_microbatches >= 1);
  const ModelConfig& model = params.model;
  const InstanceSpec& instance = params.instance;
  const int stages = params.num_machines;
  const int microbatches = options.num_microbatches;

  // Per-stage, per-microbatch compute. Every stage processes the *global*
  // batch through its layer slice, using all of the machine's accelerators;
  // total FLOPs per machine match the other strategies.
  const double stage_params =
      static_cast<double>(model.nominal_params) / static_cast<double>(stages);
  const double global_tokens = static_cast<double>(model.TokensPerGpuPerIteration()) *
                               static_cast<double>(stages) *
                               static_cast<double>(instance.num_gpus);
  const double micro_tokens = global_tokens / static_cast<double>(microbatches);
  const double machine_flops =
      instance.effective_flops_per_gpu * static_cast<double>(instance.num_gpus);
  const TimeNs micro_forward =
      Seconds(stage_params * micro_tokens * kForwardFlopsPerParamToken / machine_flops);
  const TimeNs micro_backward =
      Seconds(stage_params * micro_tokens * kBackwardFlopsPerParamToken / machine_flops);

  // Activation (and activation-gradient) payload per microbatch boundary:
  // tokens x hidden at fp16.
  const Bytes activation_bytes = static_cast<Bytes>(
      micro_tokens * static_cast<double>(model.hidden_size) * ModelConfig::kParamBytesFp16);
  const TimeNs hop = params.comm_alpha + TransferTime(activation_bytes,
                                                      instance.network_bandwidth *
                                                          instance.collective_efficiency);

  // Middle-stage view, serialized GPipe schedule: fill bubble, then per
  // microbatch recv -> compute -> send, for forward then backward.
  TimeNs cursor = (stages - 1) * (micro_forward + hop) / 2;  // Fill bubble (middle stage).
  auto hop_segment = [&](CommKind kind, int index) {
    cursor = nic.Push(cursor, hop, kind, index);
  };
  for (int m = 0; m < microbatches; ++m) {
    hop_segment(CommKind::kForwardAllGather, m);  // Activation in.
    cursor += micro_forward;
    hop_segment(CommKind::kForwardAllGather, m);  // Activation out.
  }
  for (int m = 0; m < microbatches; ++m) {
    hop_segment(CommKind::kGradReduceScatter, m);  // Gradient in.
    cursor += micro_backward;
    hop_segment(CommKind::kGradReduceScatter, m);  // Gradient out.
  }
  return cursor + (stages - 1) * (micro_backward + hop) / 2;  // Drain bubble.
}

}  // namespace

IterationTimeline BuildDataParallelTimeline(const TimelineParams& params,
                                            const DataParallelOptions& options) {
  TimelineRecorder nic;
  const TimeNs update_start = WalkDataParallelIteration(params, options, nic);
  return std::move(nic).Finish(params, update_start);
}

IterationTimeline BuildPipelineParallelTimeline(const TimelineParams& params,
                                                const PipelineParallelOptions& options) {
  TimelineRecorder nic;
  const TimeNs update_start = WalkPipelineParallelIteration(params, options, nic);
  return std::move(nic).Finish(params, update_start);
}

TimeNs WalkIteration(ParallelismStrategy strategy, const TimelineParams& params,
                     IterationNic& nic) {
  switch (strategy) {
    case ParallelismStrategy::kZero3:
      return WalkZero3Iteration(params, nic);
    case ParallelismStrategy::kDataParallel:
      return WalkDataParallelIteration(params, {}, nic);
    case ParallelismStrategy::kPipelineParallel:
      return WalkPipelineParallelIteration(params, {}, nic);
  }
  return WalkZero3Iteration(params, nic);
}

IterationTimeline BuildTimelineFor(ParallelismStrategy strategy, const TimelineParams& params) {
  TimelineRecorder nic;
  const TimeNs update_start = WalkIteration(strategy, params, nic);
  return std::move(nic).Finish(params, update_start);
}

}  // namespace gemini
