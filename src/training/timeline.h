// ZeRO-3 iteration timeline generation.
//
// Reproduces the *shape* of a DeepSpeed ZeRO-3 training iteration on the
// simulated cluster: per layer, a parameter all-gather gates the layer's
// computation (forward, and again during backward because of activation
// recomputation), gradients leave through reduce-scatters, and the optimizer
// update closes the iteration. Communication requests are served FIFO by
// the machine NIC with one-layer prefetch, so the generated timeline has
// exactly the alternating busy/idle network structure of paper Figure 4a —
// the idle spans being the budget GEMINI's checkpoint scheduler packs
// chunks into.
//
// A strategy's iteration is written once, as a walk that issues its
// collectives on an IterationNic and gates its computation on their ends.
// TimelineRecorder is the nominal NIC (nothing else on the wire) that turns
// a walk into an IterationTimeline; the checkpoint executor
// (src/schedule/executor.h) runs the same walk on a NIC shared with
// checkpoint chunks. Other strategies' walks live in parallelism.h.
#ifndef SRC_TRAINING_TIMELINE_H_
#define SRC_TRAINING_TIMELINE_H_

#include <vector>

#include "src/cluster/instance_spec.h"
#include "src/common/units.h"
#include "src/training/model_config.h"

namespace gemini {

enum class CommKind { kForwardAllGather, kBackwardAllGather, kGradReduceScatter };

struct CommSegment {
  TimeNs start = 0;
  TimeNs duration = 0;
  CommKind kind = CommKind::kForwardAllGather;
  // Communication-group (prefetch bucket) index this burst belongs to.
  int group = -1;
  TimeNs end() const { return start + duration; }
};

struct IdleSpan {
  TimeNs start = 0;
  TimeNs length = 0;
  TimeNs end() const { return start + length; }
};

struct IterationTimeline {
  TimeNs iteration_time = 0;
  TimeNs update_start = 0;
  TimeNs update_duration = 0;
  // Network busy windows, non-overlapping, ordered by start.
  std::vector<CommSegment> comm;
  // Gaps in network usage within [0, iteration_time], ordered by start. The
  // final span is the update-phase tail.
  std::vector<IdleSpan> idle_spans;

  TimeNs TotalCommBusy() const;
  TimeNs TotalIdle() const;
};

struct TimelineParams {
  ModelConfig model;
  InstanceSpec instance;
  int num_machines = 0;
  TimeNs comm_alpha = Micros(100);
  // Layers whose collectives are coalesced into one communication burst
  // (DeepSpeed's prefetch bucketing). Bursty communication is what produces
  // the few large idle spans the paper profiles (largest ~1.6 s for GPT-2
  // 40B on p3dn) rather than many tiny per-layer gaps.
  int comm_group_layers = 16;
};

TimeNs ComputeUpdateDuration(const TimelineParams& params);

// The machine NIC an iteration walk issues its collectives on. Push queues a
// collective issued at `issue` and returns when it ends; the walk gates its
// computation on that end, so a NIC that delays one collective delays
// everything downstream of it.
class IterationNic {
 public:
  virtual TimeNs Push(TimeNs issue, TimeNs duration, CommKind kind, int group) = 0;

 protected:
  ~IterationNic() = default;
};

// The nominal NIC: FIFO with nothing else on the wire; records every
// collective it serves.
class TimelineRecorder final : public IterationNic {
 public:
  TimeNs Push(TimeNs issue, TimeNs duration, CommKind kind, int group) override;

  // The recorded timeline, closed by the optimizer update at `update_start`.
  IterationTimeline Finish(const TimelineParams& params, TimeNs update_start) &&;

 private:
  TimeNs free_ = 0;
  std::vector<CommSegment> comm_;
};

// Walks one ZeRO-3 iteration on `nic`; returns the optimizer-update start.
TimeNs WalkZero3Iteration(const TimelineParams& params, IterationNic& nic);

IterationTimeline BuildZero3Timeline(const TimelineParams& params);

// Derives the idle spans of a comm schedule within [0, iteration_time]
// (also used on perturbed timelines by the profiler).
std::vector<IdleSpan> ExtractIdleSpans(const std::vector<CommSegment>& comm,
                                       TimeNs iteration_time);

}  // namespace gemini

#endif  // SRC_TRAINING_TIMELINE_H_
