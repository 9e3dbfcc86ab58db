// Sharded-state trainer: the real data plane behind the simulated cluster.
//
// Each machine rank owns a shard of the model states (its ZeRO-3 partition).
// The update rule is deterministic in (iteration, rank, element), so
// recovery correctness is checkable bit-exactly: restore a checkpoint from
// iteration k, replay to iteration j, and the states must equal an
// uninterrupted run's — the property the integration tests assert.
//
// Shards carry a small real float payload plus the model-config-derived
// logical size used by every timing and memory-accounting path.
#ifndef SRC_TRAINING_TRAINER_H_
#define SRC_TRAINING_TRAINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/storage/checkpoint.h"
#include "src/training/model_config.h"

namespace gemini {

class RunTracer;

class ShardedTrainer {
 public:
  // `payload_elements` controls the real floats per shard (small; tests use
  // a few hundred). Logical checkpoint size comes from `model`.
  ShardedTrainer(const ModelConfig& model, int num_machines, int payload_elements,
                 uint64_t seed);

  // Optional observability sinks: "trainer.*" counters, and restore/rollback
  // instants on the trace timeline. Counter handles are resolved here, once,
  // per the hot-path metric convention (src/obs/metrics.h).
  void set_metrics(MetricsRegistry* metrics);
  void set_tracer(RunTracer* tracer) { tracer_ = tracer; }

  int num_machines() const { return num_machines_; }
  int64_t iteration() const { return iteration_; }
  const ModelConfig& model() const { return model_; }
  Bytes checkpoint_bytes_per_machine() const {
    return model_.CheckpointBytesPerMachine(num_machines_);
  }

  // Advances the iteration counter by one deterministic optimizer step. O(1):
  // the update is deferred, and each shard applies every step it has not
  // seen yet the first time it is read (shard(), MakeCheckpoint(),
  // TakeDirtyChunks(), SetSparseUpdates()), so k steps between two reads of
  // a shard cost one pass over it, not k.
  void Step();

  // Sparse-update workload mode (MoE-style: only "touched" chunks change per
  // iteration). Each (iteration, rank, chunk) is touched with probability
  // `fraction` under a deterministic hash; untouched chunks are frozen for
  // that iteration. `fraction >= 1.0` (the default) is the dense path,
  // bit-identical to a trainer that never heard of sparsity. Step() and
  // ReplayTo() share the same predicate, so replay stays bit-exact. Steps
  // taken before the call are applied under the rule they were taken with.
  void SetSparseUpdates(double fraction, size_t chunk_elements);
  double sparse_update_fraction() const { return sparse_fraction_; }

  // Chunk-granular dirty tracking for incremental checkpoints: once enabled,
  // every chunk possibly modified since the owner's last TakeDirtyChunks()
  // call has its change bit set (the steps Step/ReplayTo defer mark their
  // touched chunks when applied, restores mark everything — the bits are a
  // conservative superset of real changes). A step changes every element of
  // a chunk it touches, so between restores the bits are exactly the
  // changed chunks, and GeminiSystem ships them to the CPU tier as they are
  // (BuildMarkedDelta); only the persistent tier's BuildDeltaCheckpoint
  // compares bytes.
  void EnableDirtyTracking(size_t chunk_elements);
  bool dirty_tracking_enabled() const { return dirty_chunk_elements_ > 0; }
  size_t dirty_chunk_count() const;
  // Returns the accumulated change bits for `rank` (pending steps applied
  // first) and clears them.
  std::vector<uint8_t> TakeDirtyChunks(int rank);

  // `rank`'s current model states, brought up to the current iteration first.
  // The reference is valid only until the next Restore*(), or the next read
  // of this rank after a Step() or ReplayTo(): a write while a capture holds
  // the buffer moves the states to another one.
  const std::vector<float>& shard(int rank) const;

  // Snapshot of `rank`'s model states at the current iteration. Copy-free:
  // the checkpoint shares the live shard buffer (copy-on-write — the next
  // write to this rank goes to a recycled buffer while any capture holds it).
  // Its payload_crc is combined from the shard's block CRCs. The pending
  // steps are applied here, and each block they write is checksummed while
  // it is still in cache; only blocks stale for another reason (a restore,
  // a read by shard()) are read again, so a sparse step's untouched chunks
  // are not re-read.
  Checkpoint MakeCheckpoint(int rank) const;

  // Buffers allocated across the per-rank pools: live shards plus captures
  // still held downstream. Flat once the capture pattern is steady.
  size_t allocated_buffers() const;

  // Restores one rank's shard, dropping its pending steps: the next step
  // applies to the restored states. Fails when the checkpoint belongs to a
  // different rank or has a mismatched payload size.
  Status RestoreShard(const Checkpoint& checkpoint);

  // Restores all ranks from a consistent checkpoint set (one per rank, all at
  // the same iteration) and rolls the iteration counter back.
  Status RestoreAll(const std::vector<Checkpoint>& checkpoints);

  // Replays the deterministic update forward to `target_iteration` (the
  // gradient-log replay of Checkmate-style recovery: the same (iteration,
  // rank, element) deltas produce bit-exactly the pre-failure states). Like
  // Step(), it only advances the counter; the next read of each shard applies
  // the replayed steps. No-op when already at or past the target. Replayed
  // steps count under "trainer.replayed_iterations", not "trainer.steps".
  Status ReplayTo(int64_t target_iteration);

 private:
  // One rank's states: the live buffer and the pool it came from. The pool
  // owns every buffer the rank's states have lived in and recycles one once
  // no capture references it.
  struct Shard {
    PayloadPool pool;
    std::shared_ptr<std::vector<float>> live;
  };

  // Applies `rank`'s pending steps, [shard_iterations_[rank], iteration_),
  // in one pass over the shard: block by block (a block is the sparse chunk,
  // or the whole shard when dense), each L1-sized tile of a block takes every
  // pending step that touches the block before the next tile is read. With
  // `checksum`, each written block is CRC'd tile by tile while hot and its
  // stale bit cleared; without, its stale bit is set. Logically const: a
  // read sees the same states whether or not the steps were applied earlier.
  void CatchUp(int rank, bool checksum) const;
  // The buffer `shard`'s next states go to: the live one when no capture
  // holds it (in place), else a free pool buffer with unspecified contents.
  static std::shared_ptr<std::vector<float>> WriteBuffer(Shard& shard);
  // Block size of the shards' CRC tables and of the update rule: the sparse
  // chunk, else the whole shard.
  size_t CrcBlockElements() const;
  // Sizes the CRC tables for the current update mode, all stale.
  void ResetCrcTables();
  // Marks every tracking chunk that elements [begin, end) overlap.
  void MarkRangeDirty(int rank, size_t begin, size_t end) const;

  ModelConfig model_;
  int num_machines_;
  uint64_t seed_;
  int64_t iteration_ = 0;
  double sparse_fraction_ = 1.0;
  size_t sparse_chunk_elements_ = 1;
  // 0 = dirty tracking off.
  size_t dirty_chunk_elements_ = 0;
  // Per-rank change bits (one byte per chunk), accumulated since the rank's
  // last TakeDirtyChunks(). A pending step marks its chunks when applied.
  mutable std::vector<std::vector<uint8_t>> dirty_;
  RunTracer* tracer_ = nullptr;
  // Hot-path metric handles (resolved once in set_metrics).
  Counter* steps_counter_ = DiscardCounter();
  Counter* restores_counter_ = DiscardCounter();
  Counter* rollback_iterations_counter_ = DiscardCounter();
  Counter* replayed_iterations_counter_ = DiscardCounter();
  // One pool per rank keeps each pool's linear Acquire scan short. Mutable,
  // like the per-rank iterations and the CRC tables below, because reads
  // apply pending steps (CatchUp).
  mutable std::vector<Shard> shards_;
  // The iteration whose step each rank's live buffer takes next; the rank's
  // steps in [shard_iterations_[rank], iteration_) are pending.
  mutable std::vector<int64_t> shard_iterations_;
  // Scratch for CatchUp: the pending iterations that touch the current
  // block. A member so a steady capture loop does not allocate.
  mutable std::vector<int64_t> touching_;
  // CRC tables of every rank's live buffer, rank-major: entry
  // rank * crc_blocks_per_rank_ + b is the CRC of block b (blocks of
  // CrcBlockElements()) unless its stale bit is set. A capture checksums the
  // blocks its catch-up writes as it writes them; a catch-up for any other
  // reader sets their bits, a restore sets the rank's bits, and the next
  // capture checksums the stale blocks and clears their bits, so CRC work
  // follows captures, not steps. One table for all ranks keeps the
  // constructor at two allocations however many ranks there are.
  size_t crc_blocks_per_rank_ = 0;
  mutable std::vector<uint32_t> block_crcs_;
  mutable std::vector<uint8_t> stale_blocks_;
};

}  // namespace gemini

#endif  // SRC_TRAINING_TRAINER_H_
