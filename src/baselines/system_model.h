// Analytic checkpointing-system models: Strawman, HighFreq, and GEMINI.
//
// Encodes the paper's cost accounting:
//  * Equation (1): T_wasted = t_ckpt + 1/(2f) + t_rtvl;
//  * constraint (2): 1/f >= max(t_ckpt, T_iter);
//  * the serialization tax baselines pay on every persistent checkpoint
//    (torch.save blocks training; ~81 s per HighFreq checkpoint);
//  * fixed per-failure overheads (Figure 14): detection, checkpoint
//    serialization at recovery, machine replacement, restart warmup.
//
// Strawman checkpoints every 3 hours (BLOOM's policy); HighFreq saturates
// the persistent store (every ceil(t_ckpt / T_iter) iterations); GEMINI
// checkpoints to CPU memory every iteration.
#ifndef SRC_BASELINES_SYSTEM_MODEL_H_
#define SRC_BASELINES_SYSTEM_MODEL_H_

#include <string>

#include "src/common/calibration.h"
#include "src/common/units.h"

namespace gemini {

// Everything the models need to know about the training job. Serialization
// and persistent storage run at the calibrated kSerializationBandwidth and
// kPersistentBandwidth, the same constants the full system uses.
struct CheckpointWorkload {
  TimeNs iteration_time = 0;
  Bytes checkpoint_bytes_per_machine = 0;
  int num_machines = 0;
  int num_replicas = 2;  // GEMINI's m.
  BytesPerSecond nic_bandwidth = GbpsToBytesPerSecond(400);
  TimeNs comm_alpha = Micros(100);

  Bytes total_checkpoint_bytes() const {
    return checkpoint_bytes_per_machine * num_machines;
  }
};

// Per-failure fixed overheads (Figure 14 measurements).
struct RecoveryOverheads {
  TimeNs failure_detection = Seconds(15);
  // Serializing checkpoints with torch.save at recovery (GEMINI: two
  // replicas, 162 s for GPT-2 100B).
  TimeNs checkpoint_serialization = 0;
  // Machine replacement: 0 for software failures; the mean of the cloud
  // operator's ASG delay range, or its standby activation delay.
  TimeNs machine_replacement = 0;
  TimeNs restart_warmup = kRestartWarmup;

  TimeNs total() const {
    return failure_detection + checkpoint_serialization + machine_replacement + restart_warmup;
  }
};

struct SystemModel {
  std::string name;
  // t_ckpt: end-to-end time for one checkpoint to become usable.
  TimeNs checkpoint_time = 0;
  // 1/f.
  TimeNs checkpoint_interval = 0;
  // Training stalled per checkpoint (serialization for the baselines).
  TimeNs training_block_per_checkpoint = 0;
  // t_rtvl for the system's typical recovery path.
  TimeNs retrieval_time = 0;
  RecoveryOverheads overheads;

  // Equation (1).
  TimeNs AverageWastedTime() const {
    return checkpoint_time + checkpoint_interval / 2 + retrieval_time;
  }
  // Wasted time plus fixed overheads: the full cost of one failure.
  TimeNs FailureCost() const { return AverageWastedTime() + overheads.total(); }
  // Steady-state fraction of wall-clock time that is productive training,
  // with `failures_per_day` expected failures.
  double EffectiveTrainingRatio(double failures_per_day) const;

  double checkpoints_per_hour() const {
    return static_cast<double>(kHour) / static_cast<double>(checkpoint_interval);
  }
};

// Strawman: 3-hour persistent checkpoints (BLOOM's schedule).
SystemModel BuildStrawman(const CheckpointWorkload& workload);

// HighFreq: persistent checkpoints as often as the store allows.
SystemModel BuildHighFreq(const CheckpointWorkload& workload);

// GEMINI checkpointing to CPU memory every iteration. `replaced_machines`
// selects the recovery path the retrieval/overhead columns describe:
//   0            -> software failure, local retrieval;
//   1..          -> hardware failure, retrieval from a group peer.
// `gemini_checkpoint_time` comes from the scheduler (planned transmission
// time); pass 0 to use the back-to-back estimate (m-1 copies at line rate).
SystemModel BuildGemini(const CheckpointWorkload& workload, int replaced_machines,
                        TimeNs gemini_checkpoint_time = 0, bool standby_machines = false);

// GEMINI's degraded path when an entire placement group is lost and recovery
// falls back to the remote persistent storage.
SystemModel BuildGeminiPersistentFallback(const CheckpointWorkload& workload);

}  // namespace gemini

#endif  // SRC_BASELINES_SYSTEM_MODEL_H_
