#include "src/collectives/collectives.h"

#include <cassert>

namespace gemini {

TimeNs RingCostModel::AllGatherTime(Bytes total_bytes, int world) const {
  assert(world >= 1);
  if (world == 1 || total_bytes == 0) {
    return 0;
  }
  const Bytes per_step = total_bytes / world;
  const TimeNs step = alpha + TransferTime(per_step, effective_bandwidth());
  return step * (world - 1);
}

TimeNs RingCostModel::ReduceScatterTime(Bytes total_bytes, int world) const {
  return AllGatherTime(total_bytes, world);
}

TimeNs RingCostModel::AllReduceTime(Bytes total_bytes, int world) const {
  return ReduceScatterTime(total_bytes, world) + AllGatherTime(total_bytes, world);
}

}  // namespace gemini
