#include "src/policy/cost_model.h"

#include <algorithm>
#include <cstdint>

#include "src/common/calibration.h"

namespace gemini {

TimeNs AlignUpToIterations(TimeNs interval, TimeNs iteration_time) {
  const int64_t iterations =
      std::max<int64_t>(1, (interval + iteration_time - 1) / iteration_time);
  return iterations * iteration_time;
}

TimeNs SerializationStall(Bytes bytes_per_machine, BytesPerSecond serialization_bandwidth) {
  return TransferTime(bytes_per_machine, serialization_bandwidth);
}

TimeNs PersistentUploadTime(Bytes total_bytes) {
  return TransferTime(total_bytes, kPersistentBandwidth);
}

TimeNs RecoverySerializationStall(int num_replicas, Bytes replica_bytes) {
  return num_replicas * SerializationStall(replica_bytes, kSerializationBandwidth);
}

TimeNs BudgetedInterval(TimeNs stall_per_checkpoint, double overhead_budget,
                        TimeNs min_interval, TimeNs iteration_time) {
  const TimeNs budget_interval =
      static_cast<TimeNs>(static_cast<double>(stall_per_checkpoint) / overhead_budget);
  return AlignUpToIterations(std::max(budget_interval, min_interval), iteration_time);
}

}  // namespace gemini
