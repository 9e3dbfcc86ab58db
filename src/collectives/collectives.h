// Analytic ring-collective costs (the NCCL stand-in): the training timeline
// generator places its all-gather, reduce-scatter and all-reduce segments
// with them. tests/collectives_test.cc cross-checks the all-gather time
// against ring steps driven through the Fabric.
//
// All collectives here operate at machine granularity: intra-machine GPUs
// are connected by NVSwitch, which is an order of magnitude faster than the
// inter-machine NIC and never the bottleneck for the traffic GEMINI
// schedules.
#ifndef SRC_COLLECTIVES_COLLECTIVES_H_
#define SRC_COLLECTIVES_COLLECTIVES_H_

#include "src/common/units.h"

namespace gemini {

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
};

}  // namespace gemini

#endif  // SRC_COLLECTIVES_COLLECTIVES_H_
