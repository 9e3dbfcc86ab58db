// Collective communication over the cluster fabric (the NCCL stand-in).
//
// Provides (a) analytic ring-algorithm cost functions, used by the training
// timeline generator to place communication segments, and (b) real
// event-driven collectives that move actual float data through Fabric
// transfers (`Communicator`), which only tests/collectives_test.cc constructs,
// to validate the substrate end to end.
//
// All collectives here operate at machine granularity: intra-machine GPUs
// are connected by NVSwitch, which is an order of magnitude faster than the
// inter-machine NIC and never the bottleneck for the traffic GEMINI
// schedules.
#ifndef SRC_COLLECTIVES_COLLECTIVES_H_
#define SRC_COLLECTIVES_COLLECTIVES_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/fabric.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace gemini {

// ---------------------------------------------------------------------------
// Analytic ring cost model
// ---------------------------------------------------------------------------

struct RingCostModel {
  BytesPerSecond link_bandwidth = 0;
  TimeNs alpha = 0;
  // Achieved fraction of line rate for synchronization-heavy collectives.
  double efficiency = 1.0;

  BytesPerSecond effective_bandwidth() const { return link_bandwidth * efficiency; }

  // Ring all-gather of `total_bytes` sharded over `world` ranks:
  // (world-1) steps, each moving total/world bytes per NIC.
  TimeNs AllGatherTime(Bytes total_bytes, int world) const;
  // Ring reduce-scatter has the same communication volume as all-gather.
  TimeNs ReduceScatterTime(Bytes total_bytes, int world) const;
  // All-reduce = reduce-scatter + all-gather.
  TimeNs AllReduceTime(Bytes total_bytes, int world) const;
  // Pipelined chain broadcast of `bytes` from one root to group_size-1 peers.
  TimeNs BroadcastTime(Bytes bytes, int group_size) const;
};

// ---------------------------------------------------------------------------
// Real data-plane collectives
// ---------------------------------------------------------------------------

using FloatVec = std::vector<float>;

// Runs ring collectives over a fixed group of ranks. Operations are
// asynchronous: data flows through Fabric bulk transfers and `done` fires at
// the simulated completion time. One Communicator runs one operation at a
// time (like a CUDA stream); concurrent operations need separate
// communicators.
class Communicator {
 public:
  // `ranks` lists group members in ring order; `efficiency` matches the cost
  // model used by transfers issued on behalf of this communicator.
  Communicator(Fabric& fabric, std::vector<int> ranks, double efficiency = 1.0);

  int size() const { return static_cast<int>(ranks_.size()); }
  const std::vector<int>& ranks() const { return ranks_; }

  // All-gather: `shards[i]` is member i's contribution; the callback receives
  // the concatenation (in group order), identical on every member.
  void AllGather(std::vector<FloatVec> shards,
                 std::function<void(StatusOr<FloatVec>)> done);

  // Reduce-scatter (sum): `inputs[i]` is member i's full-length vector; all
  // inputs must have equal length divisible by size(). The callback receives
  // per-member reduced shards: result[i] = sum over members of chunk i.
  void ReduceScatter(std::vector<FloatVec> inputs,
                     std::function<void(StatusOr<std::vector<FloatVec>>)> done);

  // All-reduce (sum): reduce-scatter followed by all-gather.
  void AllReduce(std::vector<FloatVec> inputs,
                 std::function<void(StatusOr<FloatVec>)> done);

  // Broadcast from group member `root_index` along a pipelined chain.
  void Broadcast(int root_index, FloatVec data,
                 std::function<void(StatusOr<FloatVec>)> done);

 private:
  struct RingState;

  // Runs `steps` synchronized ring steps; `exchange` mutates the per-member
  // buffers for a given step, and returns the per-NIC bytes moved that step.
  void RunRingSteps(std::shared_ptr<RingState> state, int step);

  Fabric& fabric_;
  std::vector<int> ranks_;
  double efficiency_;
};

}  // namespace gemini

#endif  // SRC_COLLECTIVES_COLLECTIVES_H_
