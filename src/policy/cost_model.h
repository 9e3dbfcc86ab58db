// Shared checkpoint-cost arithmetic.
//
// The analytic models (src/baselines/) and the protection policies price the
// same primitives — serialization stalls, persistent transfers, the recovery
// serialization bill, budget-capped checkpoint frequency. One copy here, fed
// by the constants in src/common/calibration.h, keeps baseline numbers and
// policy numbers from drifting apart (they used to be re-derived
// independently on each side).
#ifndef SRC_POLICY_COST_MODEL_H_
#define SRC_POLICY_COST_MODEL_H_

#include "src/common/units.h"

namespace gemini {

// Rounds `interval` up to a whole number of iterations (at least one):
// checkpoints start on iteration boundaries.
TimeNs AlignUpToIterations(TimeNs interval, TimeNs iteration_time);

// torch.save-style blocking serialization of one machine's shard.
TimeNs SerializationStall(Bytes bytes_per_machine, BytesPerSecond serialization_bandwidth);

// Time to move `total_bytes` through the shared persistent store at its
// calibrated aggregate bandwidth, in either direction (excluding queueing
// behind other transfers and the per-request latency).
TimeNs PersistentUploadTime(Bytes total_bytes);

// The torch.save bill paid before recovery proceeds: each machine serializes
// the `num_replicas` in-memory replicas it holds (Figure 14's 162 s for two
// GPT-2 100B replicas on 16 machines).
TimeNs RecoverySerializationStall(int num_replicas, Bytes replica_bytes);

// CheckFreq-style budgeted frequency: the shortest interval that keeps
// `stall_per_checkpoint / interval <= overhead_budget`, but never shorter
// than `min_interval` (the store must drain one checkpoint before the next),
// aligned up to iteration boundaries.
TimeNs BudgetedInterval(TimeNs stall_per_checkpoint, double overhead_budget,
                        TimeNs min_interval, TimeNs iteration_time);

}  // namespace gemini

#endif  // SRC_POLICY_COST_MODEL_H_
