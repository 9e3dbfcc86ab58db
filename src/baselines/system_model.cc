#include "src/baselines/system_model.h"

#include <algorithm>

#include "src/policy/cost_model.h"

namespace gemini {
namespace {

// Serialization happens per machine in parallel; transfer shares the store's
// aggregate bandwidth.
TimeNs PersistentCheckpointTime(const CheckpointWorkload& workload) {
  return SerializationStall(workload.checkpoint_bytes_per_machine, kSerializationBandwidth) +
         PersistentUploadTime(workload.total_checkpoint_bytes());
}

RecoveryOverheads BaselineOverheads() {
  RecoveryOverheads overheads;
  // Baselines load already-serialized checkpoints; no recovery-time
  // serialization. Replacement cost is excluded from wasted time (footnote 1)
  // and identical across systems with standby machines.
  overheads.checkpoint_serialization = 0;
  return overheads;
}

}  // namespace

double SystemModel::EffectiveTrainingRatio(double failures_per_day) const {
  // Steady-state decomposition: every checkpoint interval loses
  // `training_block_per_checkpoint` to serialization, and every failure
  // loses FailureCost().
  const double tax = checkpoint_interval > 0
                         ? static_cast<double>(training_block_per_checkpoint) /
                               static_cast<double>(checkpoint_interval)
                         : 0.0;
  const double day = 24.0 * static_cast<double>(kHour);
  const double failure_loss = failures_per_day * static_cast<double>(FailureCost()) / day;
  return std::max(0.0, (1.0 - tax) * (1.0 - failure_loss));
}

SystemModel BuildStrawman(const CheckpointWorkload& workload) {
  SystemModel model;
  model.name = "Strawman";
  model.checkpoint_time = PersistentCheckpointTime(workload);
  model.checkpoint_interval = Hours(3);  // BLOOM's schedule.
  model.training_block_per_checkpoint =
      SerializationStall(workload.checkpoint_bytes_per_machine, kSerializationBandwidth);
  model.retrieval_time = PersistentUploadTime(workload.total_checkpoint_bytes());
  model.overheads = BaselineOverheads();
  return model;
}

SystemModel BuildHighFreq(const CheckpointWorkload& workload) {
  SystemModel model;
  model.name = "HighFreq";
  model.checkpoint_time = PersistentCheckpointTime(workload);
  // Constraint (2): one checkpoint at a time, aligned to iterations.
  model.checkpoint_interval =
      AlignUpToIterations(model.checkpoint_time, workload.iteration_time);
  model.training_block_per_checkpoint =
      SerializationStall(workload.checkpoint_bytes_per_machine, kSerializationBandwidth);
  model.retrieval_time = PersistentUploadTime(workload.total_checkpoint_bytes());
  model.overheads = BaselineOverheads();
  return model;
}

SystemModel BuildGemini(const CheckpointWorkload& workload, int replaced_machines,
                        TimeNs gemini_checkpoint_time, bool standby_machines) {
  SystemModel model;
  model.name = "GEMINI";
  if (gemini_checkpoint_time > 0) {
    model.checkpoint_time = gemini_checkpoint_time;
  } else {
    // Back-to-back transmission of m-1 copies at line rate plus the drain of
    // the final chunk's GPU->CPU copy (approximated by one copy at the same
    // rate, which the paper measured comparable to the NIC).
    model.checkpoint_time =
        (workload.num_replicas - 1) *
            TransferTime(workload.checkpoint_bytes_per_machine, workload.nic_bandwidth) +
        TransferTime(workload.checkpoint_bytes_per_machine, workload.nic_bandwidth) /
            std::max(1, workload.num_replicas - 1) / 8;
  }
  // The checkpoint of iteration i completes within iteration i, so the
  // roll-back target is at most one iteration old: t_ckpt == T_iter for the
  // wasted-time accounting (this is how the paper arrives at 1.5 T_iter for
  // software failures).
  model.checkpoint_time = std::max(model.checkpoint_time, workload.iteration_time);
  model.checkpoint_interval = workload.iteration_time;
  model.training_block_per_checkpoint = 0;  // Interleaved into idle spans.
  if (replaced_machines == 0) {
    model.retrieval_time = 0;  // Local CPU memory.
  } else {
    // Replaced machines fetch their replica from a group peer.
    model.retrieval_time =
        workload.comm_alpha +
        TransferTime(workload.checkpoint_bytes_per_machine, workload.nic_bandwidth);
  }
  model.overheads.checkpoint_serialization =
      RecoverySerializationStall(workload.num_replicas, workload.checkpoint_bytes_per_machine);
  if (replaced_machines > 0) {
    model.overheads.machine_replacement = standby_machines
                                              ? kStandbyActivationDelay
                                              : (kProvisionDelayMin + kProvisionDelayMax) / 2;
  }
  return model;
}

SystemModel BuildGeminiPersistentFallback(const CheckpointWorkload& workload) {
  // An entire placement group was lost: recovery degrades to the Strawman
  // path (persistent checkpoints are taken every 3 hours in GEMINI too).
  SystemModel model = BuildStrawman(workload);
  model.name = "GEMINI (persistent fallback)";
  // GEMINI does not pay the per-checkpoint serialization tax during normal
  // operation (persistent checkpoints are rare), but the rolled-back
  // progress and retrieval match Strawman's.
  model.training_block_per_checkpoint = 0;
  return model;
}

}  // namespace gemini
