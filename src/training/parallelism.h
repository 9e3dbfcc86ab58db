// Iteration timelines for parallelism strategies beyond ZeRO-3.
//
// The paper's conclusion (Section 9) argues GEMINI's design applies to other
// parallelisms — pipeline, tensor, and data parallelism — and leaves them as
// future work. This module implements that future work at the timeline
// level: each strategy's iteration is one walk over an IterationNic
// (timeline.h). Recorded on the nominal NIC it gives the busy/idle network
// structure Algorithm 2 partitions the checkpoint into; run on the
// checkpoint executor's NIC (ExecutorParams::strategy in
// src/schedule/executor.h) it shows what the interleaved chunks cost.
//
//  * Data parallelism: every machine holds a full replica; the network is
//    silent through the forward pass and carries bucketed gradient
//    all-reduces that overlap the backward pass — one long idle span up
//    front, alternating busy/idle through backward.
//  * Pipeline parallelism (GPipe-style): each machine is one stage;
//    microbatch activations/gradients hop between neighbours. Per-transfer
//    volume is tiny, so the network is idle most of the iteration and the
//    pipeline bubble adds further slack.
#ifndef SRC_TRAINING_PARALLELISM_H_
#define SRC_TRAINING_PARALLELISM_H_

#include "src/training/timeline.h"

namespace gemini {

enum class ParallelismStrategy {
  kZero3,             // Fully sharded (the paper's evaluation setting).
  kDataParallel,      // Replicated model, bucketed gradient all-reduce.
  kPipelineParallel,  // Layer stages, microbatch activation transfers.
};

std::string_view ParallelismStrategyName(ParallelismStrategy strategy);

struct DataParallelOptions {
  // Gradient buckets overlapped with backward (DDP-style).
  int gradient_buckets = 8;
};

struct PipelineParallelOptions {
  // Microbatches in flight (GPipe schedule); the bubble fraction is
  // (stages - 1) / (microbatches + stages - 1).
  int num_microbatches = 32;
};

// Timeline of one iteration under pure data parallelism across
// `params.num_machines` machines (each holding a full model replica).
IterationTimeline BuildDataParallelTimeline(const TimelineParams& params,
                                            const DataParallelOptions& options = {});

// Timeline of one iteration under pipeline parallelism, from the viewpoint
// of a middle stage (the busiest NIC).
IterationTimeline BuildPipelineParallelTimeline(const TimelineParams& params,
                                                const PipelineParallelOptions& options = {});

// Walks one iteration of `strategy` (default options) on `nic`; returns the
// optimizer-update start.
TimeNs WalkIteration(ParallelismStrategy strategy, const TimelineParams& params,
                     IterationNic& nic);

// The nominal timeline of WalkIteration.
IterationTimeline BuildTimelineFor(ParallelismStrategy strategy, const TimelineParams& params);

}  // namespace gemini

#endif  // SRC_TRAINING_PARALLELISM_H_
