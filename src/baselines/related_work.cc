#include "src/baselines/related_work.h"

#include "src/common/calibration.h"
#include "src/policy/cost_model.h"

namespace gemini {

SystemModel BuildDeepFreeze(const CheckpointWorkload& workload) {
  SystemModel model;
  model.name = "DeepFreeze";
  const TimeNs serialize =
      SerializationStall(workload.checkpoint_bytes_per_machine, kSerializationBandwidth);
  const TimeNs upload = PersistentUploadTime(workload.total_checkpoint_bytes());
  // Serialization overlaps training; the end-to-end checkpoint time is still
  // serialize + upload, and one checkpoint must finish before the next.
  model.checkpoint_time = serialize + upload;
  model.checkpoint_interval =
      AlignUpToIterations(model.checkpoint_time, workload.iteration_time);
  model.training_block_per_checkpoint =
      static_cast<TimeNs>(kDeepFreezeBlockingFraction * static_cast<double>(serialize));
  model.retrieval_time = upload;
  return model;
}

SystemModel BuildCheckFreq(const CheckpointWorkload& workload) {
  SystemModel model;
  model.name = "CheckFreq";
  const TimeNs snapshot =
      SerializationStall(workload.checkpoint_bytes_per_machine, kCheckFreqSnapshotBandwidth);
  const TimeNs upload = PersistentUploadTime(workload.total_checkpoint_bytes());
  model.checkpoint_time = snapshot + upload;
  // Frequency tuning: fast enough that overhead stays under the budget, but
  // never faster than the store can drain (the paper's own stated limit).
  model.checkpoint_interval = BudgetedInterval(snapshot, kCheckFreqOverheadBudget,
                                               model.checkpoint_time, workload.iteration_time);
  model.training_block_per_checkpoint = snapshot;
  model.retrieval_time = upload;
  return model;
}

SystemModel BuildCheckNRun(const CheckpointWorkload& workload) {
  SystemModel model;
  model.name = "Check-N-Run";
  const Bytes compressed_machine = static_cast<Bytes>(
      static_cast<double>(workload.checkpoint_bytes_per_machine) / kCheckNRunCompressionRatio);
  const Bytes compressed_total = compressed_machine * workload.num_machines;
  const TimeNs compress =
      TransferTime(workload.checkpoint_bytes_per_machine, kCheckNRunCompressionBandwidth);
  const TimeNs upload = PersistentUploadTime(compressed_total);
  model.checkpoint_time = compress + upload;
  model.checkpoint_interval =
      AlignUpToIterations(model.checkpoint_time, workload.iteration_time);
  model.training_block_per_checkpoint = compress;
  // Recovery reads (and decompresses) the compressed bytes.
  model.retrieval_time =
      upload + TransferTime(workload.checkpoint_bytes_per_machine, kCheckNRunCompressionBandwidth);
  return model;
}

}  // namespace gemini
