// Remote persistent checkpoint storage (the FSx stand-in).
//
// Models the storage tier existing solutions checkpoint to: a shared store
// with a fixed *aggregate* bandwidth (20 Gb/s in the paper's testbed) that
// all machines' transfers serialize through. Saves are grouped into global
// checkpoints: a training iteration is only restorable once every rank's
// shard for that iteration has finished uploading — exactly why a failure
// mid-upload falls back to the previous complete checkpoint (paper Fig. 1).
//
// Incremental saves (SaveDelta) move only a delta's bytes and are applied to
// the owner's newest durable shard at arrival. The tier keeps no delta
// chain: every durable shard is a full shard.
//
// Retention is bounded: once a set completes, every older set goes, except
// one that a retrieval still in flight (or retrying) reads. So the store
// holds the newest complete set, any newer sets still being written, and the
// sets being read.
//
// Bandwidth, request latency and the retrieval retry schedule are the
// calibrated constants in src/common/calibration.h.
#ifndef SRC_STORAGE_PERSISTENT_STORE_H_
#define SRC_STORAGE_PERSISTENT_STORE_H_

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "src/common/calibration.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/storage/checkpoint.h"
#include "src/storage/delta.h"
#include "src/storage/retry_policy.h"

namespace gemini {

class PersistentStore {
 public:
  explicit PersistentStore(Simulator& sim) : sim_(sim) {}

  // Optional observability sink ("persistent.*" counters). Counter handles
  // are resolved here, once, per the hot-path metric convention
  // (src/obs/metrics.h); null rebinds them to the discard sinks.
  void set_metrics(MetricsRegistry* metrics);

  using DoneCallback = std::function<void(Status)>;

  // Uploads one rank's shard of the global checkpoint at its iteration.
  // Completion time honours the shared-bandwidth FIFO. The shard becomes
  // visible (durable) only at completion.
  TimeNs Save(Checkpoint checkpoint, int expected_world_size, DoneCallback done);

  // Uploads one rank's delta through the same shared-bandwidth FIFO, paying
  // only the delta bytes. Every durable shard (Save, SeedImmediate or an
  // applied delta) becomes its owner's head, a handle of its own on the
  // shard's bytes, so bit-rot injected into the durable copy (CorruptShard)
  // never reaches the next delta. At arrival the delta is applied to the head
  // (ApplyDeltaCheckpoint: base binding, per-chunk and full-state CRC gates)
  // and the full result becomes durable, so readers only ever see full
  // shards. Deltas must be scheduled in iteration order on top of the
  // previously scheduled state (the FIFO preserves arrival order); a delta
  // that does not extend the head fails through `done` and changes nothing.
  TimeNs SaveDelta(DeltaCheckpoint delta, int expected_world_size, DoneCallback done);

  // Downloads a shard; `done` receives the checkpoint at the simulated
  // completion time. Transient transfer failures (fault hook) and CRC
  // rejections are retried internally up to kPersistentRetrievalMaxAttempts
  // with capped exponential backoff; `done` fires once, with the final
  // outcome. Retries are counted in "persistent_store.retries", CRC
  // rejections in "persistent_store.crc_failures".
  // Returns the completion time of the first attempt.
  TimeNs Retrieve(int owner_rank, int64_t iteration,
                  std::function<void(StatusOr<Checkpoint>)> done);

  // Fault hook for tests: consulted once per retrieval attempt (after the
  // transfer completes); a non-OK return fails that attempt.
  using RetrievalFaultHook = std::function<Status(int owner_rank, int64_t iteration, int attempt)>;
  void set_fault_hook(RetrievalFaultHook hook) { fault_hook_ = std::move(hook); }

  // Flips one payload bit of a durable shard so tests can exercise the CRC
  // cascade.
  Status CorruptShard(int owner_rank, int64_t iteration, size_t bit_index);

  // Latest iteration for which all `world_size` shards are durable; -1 if
  // none.
  int64_t LatestCompleteIteration() const;

  // Immediate (zero-time) lookup used by analysis code and tests.
  std::optional<Checkpoint> Peek(int owner_rank, int64_t iteration) const;

  // Iterations that still hold durable shards, ascending (tests).
  std::vector<int64_t> retained_iterations() const;

  // Zero-time durable write, used to seed the initial (pre-training) global
  // checkpoint during job setup.
  void SeedImmediate(Checkpoint checkpoint, int expected_world_size);

  // Analytic time to move `bytes` through the store (excluding queueing).
  TimeNs TransferCost(Bytes bytes) const {
    return kPersistentRequestLatency + TransferTime(bytes, kPersistentBandwidth);
  }

  // Total bytes ever written (for reporting).
  Bytes bytes_written() const { return bytes_written_; }

 private:
  // Shared-bandwidth FIFO: a transfer starts when the previous one finishes.
  TimeNs ScheduleTransfer(Bytes bytes, std::function<void()> at_completion);
  // One attempt of the retrieval cascade (backoff comes from the shared
  // RetryPolicy).
  TimeNs TryRetrieve(int owner_rank, int64_t iteration, int attempt,
                     std::function<void(StatusOr<Checkpoint>)> done);

  // Makes `checkpoint` durable and its owner's head.
  void MakeDurable(Checkpoint checkpoint, int expected_world_size);
  // Erases every set older than the newest complete one that no retrieval
  // reads.
  void Prune();

  Simulator& sim_;
  // Per-owner newest durable shard, the base the next delta applies to.
  std::map<int, Checkpoint> heads_;
  // Hot-path metric handles (resolved once in set_metrics).
  Counter* saves_counter_ = DiscardCounter();
  Counter* bytes_written_counter_ = DiscardCounter();
  Counter* retrievals_counter_ = DiscardCounter();
  Counter* retries_counter_ = DiscardCounter();
  Counter* crc_failures_counter_ = DiscardCounter();
  Counter* corruptions_counter_ = DiscardCounter();
  Counter* delta_saves_counter_ = DiscardCounter();
  Counter* delta_bytes_saved_counter_ = DiscardCounter();
  RetrievalFaultHook fault_hook_;
  TimeNs busy_until_ = 0;
  Bytes bytes_written_ = 0;
  // iteration -> owner -> shard; complete-set tracking by expected world.
  std::map<int64_t, std::map<int, Checkpoint>> shards_;
  std::map<int64_t, int> expected_world_;
  // iteration -> retrievals of it in flight; Prune keeps these sets.
  std::map<int64_t, int> reading_;
};

}  // namespace gemini

#endif  // SRC_STORAGE_PERSISTENT_STORE_H_
