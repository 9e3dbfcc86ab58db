#include "src/training/timeline.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/collectives/collectives.h"
#include "src/common/calibration.h"

namespace gemini {

TimeNs IterationTimeline::TotalCommBusy() const {
  TimeNs total = 0;
  for (const auto& segment : comm) {
    total += segment.duration;
  }
  return total;
}

TimeNs IterationTimeline::TotalIdle() const {
  TimeNs total = 0;
  for (const auto& span : idle_spans) {
    total += span.length;
  }
  return total;
}

namespace {

struct LayerCosts {
  TimeNs forward_compute = 0;
  TimeNs backward_compute = 0;  // Includes activation recomputation.
  TimeNs all_gather = 0;
  TimeNs reduce_scatter = 0;
};

LayerCosts ComputeLayerCosts(const TimelineParams& params) {
  assert(params.num_machines >= 1);
  const ModelConfig& model = params.model;
  const InstanceSpec& instance = params.instance;

  const double layer_params = static_cast<double>(model.ParamsPerLayer());
  const double tokens = static_cast<double>(model.TokensPerGpuPerIteration());
  const double flops = instance.effective_flops_per_gpu;

  LayerCosts costs;
  costs.forward_compute =
      Seconds(layer_params * tokens * kForwardFlopsPerParamToken / flops);
  costs.backward_compute = Seconds(
      layer_params * tokens * (kBackwardFlopsPerParamToken + kRecomputeFlopsPerParamToken) /
      flops);

  RingCostModel ring;
  ring.link_bandwidth = instance.network_bandwidth;
  ring.alpha = params.comm_alpha;
  ring.efficiency = instance.collective_efficiency;
  const Bytes layer_fp16_bytes = model.ParamsPerLayer() * ModelConfig::kParamBytesFp16;
  costs.all_gather = ring.AllGatherTime(layer_fp16_bytes, params.num_machines);
  costs.reduce_scatter = ring.ReduceScatterTime(layer_fp16_bytes, params.num_machines);
  return costs;
}

}  // namespace

TimeNs ComputeUpdateDuration(const TimelineParams& params) {
  const int total_gpus = params.num_machines * params.instance.num_gpus;
  const double params_per_gpu =
      static_cast<double>(params.model.nominal_params) / static_cast<double>(total_gpus);
  return Seconds(params_per_gpu * kUpdateBytesPerParam / kUpdateMemoryBandwidth);
}

std::vector<IdleSpan> ExtractIdleSpans(const std::vector<CommSegment>& comm,
                                       TimeNs iteration_time) {
  std::vector<IdleSpan> spans;
  TimeNs cursor = 0;
  for (const auto& segment : comm) {
    assert(segment.start >= cursor && "comm segments must be ordered and non-overlapping");
    if (segment.start > cursor) {
      spans.push_back(IdleSpan{cursor, segment.start - cursor});
    }
    cursor = segment.end();
  }
  if (cursor < iteration_time) {
    spans.push_back(IdleSpan{cursor, iteration_time - cursor});
  }
  return spans;
}

TimeNs TimelineRecorder::Push(TimeNs issue, TimeNs duration, CommKind kind, int group) {
  const TimeNs start = std::max(free_, issue);
  free_ = start + duration;
  comm_.push_back(CommSegment{start, duration, kind, group});
  return free_;
}

IterationTimeline TimelineRecorder::Finish(const TimelineParams& params,
                                           TimeNs update_start) && {
  IterationTimeline timeline;
  timeline.comm = std::move(comm_);
  timeline.update_start = update_start;
  timeline.update_duration = ComputeUpdateDuration(params);
  timeline.iteration_time = timeline.update_start + timeline.update_duration;
  timeline.idle_spans = ExtractIdleSpans(timeline.comm, timeline.iteration_time);
  return timeline;
}

TimeNs WalkZero3Iteration(const TimelineParams& params, IterationNic& nic) {
  const int num_layers = params.model.num_layers;
  assert(num_layers >= 1);
  assert(params.comm_group_layers >= 1);
  const LayerCosts costs = ComputeLayerCosts(params);

  // Layers are processed in communication groups (prefetch buckets): the
  // collectives of a whole group launch as one burst that gates the group's
  // computation, and the next group's burst prefetches while this group
  // computes. `group_sizes[g]` is the layer count of group g.
  std::vector<int> group_sizes;
  for (int remaining = num_layers; remaining > 0;) {
    const int size = std::min(remaining, params.comm_group_layers);
    group_sizes.push_back(size);
    remaining -= size;
  }
  const int num_groups = static_cast<int>(group_sizes.size());
  TimeNs compute_free = 0;

  // ---- Forward pass: the group's all-gather burst gates its computation;
  // the next group's burst prefetches when this group starts computing.
  TimeNs next_issue = 0;
  for (int group = 0; group < num_groups; ++group) {
    const int layers = group_sizes[static_cast<size_t>(group)];
    const TimeNs ag_done =
        nic.Push(next_issue, costs.all_gather * layers, CommKind::kForwardAllGather, group);
    const TimeNs compute_start = std::max(compute_free, ag_done);
    compute_free = compute_start + costs.forward_compute * layers;
    next_issue = compute_start;
  }

  // ---- Backward pass (groups last .. first): parameters are re-gathered
  // (activation recomputation); each group's gradients reduce-scatter after
  // its backward compute. The reduce-scatter burst of group g+1 enters the
  // NIC queue between AG(g) and AG(g-1), matching issue order.
  TimeNs bwd_ag_issue = compute_free;  // First backward burst waits for forward completion.
  TimeNs pending_rs_issue = -1;
  int pending_rs_group = -1;
  for (int group = num_groups - 1; group >= 0; --group) {
    const int layers = group_sizes[static_cast<size_t>(group)];
    const TimeNs ag_done =
        nic.Push(bwd_ag_issue, costs.all_gather * layers, CommKind::kBackwardAllGather, group);
    if (pending_rs_group >= 0) {
      const int rs_layers = group_sizes[static_cast<size_t>(pending_rs_group)];
      nic.Push(pending_rs_issue, costs.reduce_scatter * rs_layers, CommKind::kGradReduceScatter,
               pending_rs_group);
    }
    const TimeNs compute_start = std::max(compute_free, ag_done);
    compute_free = compute_start + costs.backward_compute * layers;
    bwd_ag_issue = compute_start;
    pending_rs_issue = compute_free;
    pending_rs_group = group;
  }
  const TimeNs last_rs_end = nic.Push(
      pending_rs_issue, costs.reduce_scatter * group_sizes[static_cast<size_t>(pending_rs_group)],
      CommKind::kGradReduceScatter, pending_rs_group);

  // ---- Optimizer update: needs every gradient shard and all compute done.
  return std::max(compute_free, last_rs_end);
}

IterationTimeline BuildZero3Timeline(const TimelineParams& params) {
  TimelineRecorder nic;
  const TimeNs update_start = WalkZero3Iteration(params, nic);
  return std::move(nic).Finish(params, update_start);
}

}  // namespace gemini
