// Chunked checkpoint replication over the real fabric.
//
// The scheduling executor (src/schedule/executor.h) computes *when* chunks
// move; this component actually moves them: every machine streams its
// checkpoint to its placement-assigned holders chunk by chunk through
// Fabric transfers, each received chunk is staged through the machine's
// PCIe engine into the holder's ongoing buffer, and the local replica is
// staged through the local PCIe path. A stream counts its landed bytes
// itself; after its last chunk it runs the pre-commit CRC gate over the
// source payload and lands that payload whole with
// CpuCheckpointStore::WriteComplete, so every holder shares the source's
// buffer. A full write or a fresh hosting of the holder's slot while the
// stream is in flight (CpuCheckpointStore::Seal) ends it at its next landed
// chunk. Deltas never ride a stream; GeminiSystem lands them with
// CpuCheckpointStore::WriteDelta.
//
// GeminiSystem uses the executor's timing for foreground checkpoints and
// calls only ReprotectReplicas, to refill replaced machines after recovery.
// Tests run ReplicateSnapshot to confirm that the real event-driven data
// plane (a) commits exactly the snapshot bytes and (b) finishes in the time
// the analytic model predicts.
#ifndef SRC_GEMINI_REPLICATOR_H_
#define SRC_GEMINI_REPLICATOR_H_

#include <functional>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/placement/placement.h"
#include "src/schedule/partition.h"
#include "src/storage/checkpoint.h"
#include "src/storage/cpu_store.h"

namespace gemini {

class InterferenceAuditor;
class MetricsRegistry;

struct ReplicatorConfig {
  // Number of in-flight sub-buffers on the receive path (pipeline depth p).
  int num_buffers = 4;
  // Optional sink for "replicator.*" counters; may stay null (the pass then
  // counts into the discard sinks).
  MetricsRegistry* metrics = nullptr;
  // Optional interference auditor notified of every completed chunk transfer
  // (the background traffic it attributes inflation to); may stay null.
  InterferenceAuditor* auditor = nullptr;
};

struct ReplicationOutcome {
  Status status;
  // When the last network transfer completed / the last holder committed.
  TimeNs network_done = 0;
  TimeNs committed_at = 0;
  int chunks_transferred = 0;
};

// Replicates one global snapshot (one checkpoint per alive machine) to all
// placement-assigned holders, following `chunks` (from PartitionCheckpoint,
// replica_index selecting the destination among each owner's remote
// holders). `done` fires when every holder committed every checkpoint, or
// with the first error.
void ReplicateSnapshot(Cluster& cluster, const PlacementPlan& placement,
                       std::vector<CpuCheckpointStore*> stores,
                       const std::vector<Checkpoint>& snapshots,
                       const std::vector<ChunkAssignment>& chunks,
                       const ReplicatorConfig& config,
                       std::function<void(ReplicationOutcome)> done);

// Re-protection (recovery hardening): streams the latest CRC-verified
// checkpoints back onto `target_ranks` (machines whose DRAM is fresh after a
// hardware replacement) so every owner's full replica set exists again. Each
// missing replica is fetched from the best alive holder through the same
// chunked Stream data plane as ReplicateSnapshot; `chunk_bytes` bounds the
// per-transfer burst (callers pass the Algorithm-2 max chunk size so the
// traffic keeps fitting the idle spans it was planned for). Replicas the
// target already holds at (or past) the source's iteration are skipped, and
// a stream ended by a full write that left the target at (or past) its
// iteration counts as satisfied — the redundancy goal was met by the newer
// write. Any other full write mid-stream fails the pass.
// `done` fires once per call, with the first hard error or Ok.
void ReprotectReplicas(Cluster& cluster, const PlacementPlan& placement,
                       std::vector<CpuCheckpointStore*> stores,
                       const std::vector<int>& target_ranks, Bytes chunk_bytes,
                       const ReplicatorConfig& config,
                       std::function<void(ReplicationOutcome)> done);

}  // namespace gemini

#endif  // SRC_GEMINI_REPLICATOR_H_
