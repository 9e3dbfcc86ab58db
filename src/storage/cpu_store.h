// Per-machine CPU-memory checkpoint store.
//
// Implements GEMINI's in-memory tier: each machine hosts checkpoint replicas
// for itself and for the group peers assigned by the placement strategy.
// Per the paper's implementation (Section 7.1), each hosted owner has two
// buffers — one holding the last *completed* checkpoint and one receiving
// the *ongoing* checkpoint — so a failure mid-checkpoint always leaves a
// complete checkpoint behind. The ongoing half is what a replica in flight
// occupies (a replicator stream counts its own landed bytes); the store
// itself only ever sees whole replicas, each landed by one WriteComplete.
//
// Memory is accounted against the host Machine's CPU memory; hosting is
// rejected when 2x the replica size does not fit.
#ifndef SRC_STORAGE_CPU_STORE_H_
#define SRC_STORAGE_CPU_STORE_H_

#include <map>
#include <optional>

#include "src/cluster/machine.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/storage/checkpoint.h"
#include "src/storage/delta.h"

namespace gemini {

class CpuCheckpointStore {
 public:
  explicit CpuCheckpointStore(Machine& machine) : machine_(&machine) {}

  // Optional observability sink ("cpu_store.*" counters); survives
  // ResetForMachine (the registry outlives machine incarnations). Counter
  // handles are resolved here, once, per the hot-path metric convention
  // (src/obs/metrics.h); null rebinds them to the discard sinks.
  void set_metrics(MetricsRegistry* metrics);

  // Called when the machine is swapped for a new incarnation: all contents
  // are lost with the old machine's DRAM.
  void ResetForMachine(Machine& machine);

  // Reserves the double buffer for checkpoints owned by `owner_rank` of the
  // given size. Idempotent for equal sizes.
  Status HostOwner(int owner_rank, Bytes replica_bytes);
  bool Hosts(int owner_rank) const { return slots_.contains(owner_rank); }

  // Lands one whole replica: atomically publishes `checkpoint` as the
  // owner's completed state (sharing its payload buffer). Fails for an
  // unhosted owner or a checkpoint larger than the hosted replica size.
  Status WriteComplete(Checkpoint checkpoint);

  // Changes whenever the owner's slot is hosted anew or takes a full write
  // (0 when not hosted); WriteDelta leaves it alone. A stream in flight
  // notes it when it opens and ends if it has moved by a landed chunk.
  uint64_t Seal(int owner_rank) const;

  // Every hosted owner's completed state is a redo log: a full commit seals a
  // new base (RedoLog::Reset), WriteDelta appends epoch-sealed deltas on top,
  // and the read path (Latest / LatestVerified / LatestIteration)
  // materializes base+chain transparently — callers never see the chain.
  // This sets the compaction caps at which a chain folds into a new base.
  void ConfigureRedoLog(const RedoLogConfig& config);

  // Appends one delta to the owner's chain. The delta must extend the chain
  // head exactly (epoch sealing); a stale or gapped delta, or one with no
  // sealed base under it, is rejected and the caller should fall back to a
  // full write.
  Status WriteDelta(DeltaCheckpoint delta);

  // Chain head iteration a new delta must base on (-1 when no base); equals
  // LatestIteration but never materializes.
  int64_t ChainHeadIteration(int owner_rank) const;
  // True when `delta` bases on this store's chain head for its owner, i.e.
  // WriteDelta can append it instead of a full write.
  bool ExtendsChainHead(const DeltaCheckpoint& delta) const {
    return ChainHeadIteration(delta.owner_rank) == delta.base_iteration;
  }
  size_t ChainLength(int owner_rank) const;

  // Fault injection: flips one payload bit inside the owner's chain at
  // `chain_index` (mid-chain bit-rot; the per-chunk CRC gate catches it at
  // materialization and the replica is treated as lost).
  Status CorruptChainDelta(int owner_rank, size_t chain_index, size_t bit_index);

  // Latest completed checkpoint for an owner, if any.
  std::optional<Checkpoint> Latest(int owner_rank) const;
  // Like Latest(), but re-checks the payload CRC before serving: a replica
  // whose bytes no longer match the digest recorded at capture time is
  // treated as absent (and counted under "cpu_store.crc_failures"). Every
  // recovery read goes through this so a torn or bit-flipped replica can
  // never be restored silently.
  std::optional<Checkpoint> LatestVerified(int owner_rank) const;
  // Iteration of the latest completed checkpoint, or -1.
  int64_t LatestIteration(int owner_rank) const;

  // Fault injection: flips one payload bit of the owner's sealed base (the
  // checkpoint bit-rot the CRC reads exist to catch). With a live chain, a
  // bit in a chunk the first delta rewrites is repaired by the replay; any
  // other bit fails the first link's full-state CRC.
  Status CorruptLatest(int owner_rank, size_t bit_index);

  Bytes reserved_bytes() const { return reserved_; }

 private:
  struct Slot {
    Bytes replica_bytes = 0;
    // Completed state: the sealed base of the last full commit plus the
    // epoch-sealed deltas on top of it (no base until the first commit).
    RedoLog log;
    uint64_t seal = 0;
  };

  // Serves the owner's newest state: the materialized base+chain (nullopt
  // with no base, or on a corrupt link, counted when `count_failures`).
  std::optional<Checkpoint> LatestImpl(int owner_rank, bool count_failures) const;

  Machine* machine_;
  RedoLogConfig log_config_;
  // Hot-path metric handles (resolved once in set_metrics).
  Counter* commits_counter_ = DiscardCounter();
  Counter* bytes_committed_counter_ = DiscardCounter();
  Counter* crc_failures_counter_ = DiscardCounter();
  Counter* corruptions_counter_ = DiscardCounter();
  Counter* delta_commits_counter_ = DiscardCounter();
  Counter* delta_bytes_saved_counter_ = DiscardCounter();
  Counter* compaction_folds_counter_ = DiscardCounter();
  Counter* compaction_bytes_folded_counter_ = DiscardCounter();
  Gauge* chain_length_gauge_ = DiscardGauge();
  std::map<int, Slot> slots_;
  Bytes reserved_ = 0;
  // Last seal handed out; never reset, so a slot hosted after
  // ResetForMachine never reuses an earlier seal.
  uint64_t last_seal_ = 0;
};

}  // namespace gemini

#endif  // SRC_STORAGE_CPU_STORE_H_
