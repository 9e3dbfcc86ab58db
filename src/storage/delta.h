// Incremental (delta) checkpoints and the epoch-sealed redo log.
//
// A DeltaCheckpoint encodes the difference between two full checkpoints of
// the same shard as a list of (chunk index, PayloadRef slice) pairs, one per
// changed fixed-size chunk. Chunks are selected by content, not just by the
// trainer's dirty bits: each candidate chunk's bytes are compared against the
// base, so a dirty bit that turned out to be a no-op write is deduplicated
// away, and only shipped chunks are checksummed. Every chunk carries its own
// CRC32 and the delta carries the full-state CRC of the post-apply shard, so
// application is verifiable at both granularities — recovery must never
// silently materialize a corrupted state.
//
// A RedoLog is the epoch-sealed append-only chain the CPU checkpoint store
// keeps per hosted owner (the persistent tier applies each delta on arrival
// and keeps no chain): one sealed full base plus deltas in strictly increasing
// epoch order (each delta's base_iteration must equal the chain's current
// head iteration — out-of-order or gapped appends are rejected, which is
// what "epoch-sealed" buys: the chain is always a replayable prefix), and
// with the chain's one chunk geometry. Materialize() replays the chain in
// epoch order, CRC-gating every link, as one fold: the base is copied once,
// every link is applied in place, and each link's full-state CRC is combined
// from per-chunk CRCs (src/common/crc32.h), so no link re-reads the whole
// state. Compact() folds the chain into a new base once the configured chain
// length / bytes caps are exceeded, bounding recovery replay work.
//
// Sizing model: like Checkpoint, a delta carries both real floats (the
// slices) and modeled bytes. `delta_bytes` prorates the full shard's
// logical_bytes by the fraction of elements shipped, so every timing and
// bandwidth path charges only the bytes a real system would move.
#ifndef SRC_STORAGE_DELTA_H_
#define SRC_STORAGE_DELTA_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/storage/checkpoint.h"

namespace gemini {

// One changed chunk: `data` views the new contents of chunk `chunk_index`
// (elements [chunk_index*chunk_elements, ...+data.size())), `crc` is the
// CRC32 of those bytes, recorded at build time.
struct DeltaChunk {
  size_t chunk_index = 0;
  PayloadRef data;
  uint32_t crc = 0;
};

struct DeltaCheckpoint {
  int owner_rank = -1;
  // Iteration of the state this delta produces when applied.
  int64_t iteration = -1;
  // Iteration of the base state this delta applies on top of.
  int64_t base_iteration = -1;
  // Payload CRC of the base state (binds the delta to exact base bytes).
  uint32_t base_crc = 0;
  // Payload CRC of the full post-apply state (the end-to-end gate).
  uint32_t state_crc = 0;
  // Modeled size of the full shard and of this delta (prorated).
  Bytes logical_bytes = 0;
  Bytes delta_bytes = 0;
  // Chunking geometry the delta was built with.
  size_t chunk_elements = 0;
  size_t payload_elements = 0;
  std::vector<DeltaChunk> chunks;

  bool valid() const {
    return owner_rank >= 0 && iteration >= 0 && base_iteration >= 0 &&
           iteration > base_iteration && chunk_elements > 0;
  }
  size_t delta_elements() const {
    size_t total = 0;
    for (const DeltaChunk& chunk : chunks) {
      total += chunk.data.size();
    }
    return total;
  }
};

// Builds the delta taking `base` to `current` (same owner, same payload
// size, current.iteration > base.iteration). `dirty_hint`, when non-null,
// is a per-chunk changed-bit vector (chunk i possibly changed when
// dirty_hint[i] != 0) and must be a *superset* of the truly changed chunks;
// hinted chunks are still byte-compared (content dedupe), unhinted
// chunks are skipped as known-clean. A null hint compares every chunk.
StatusOr<DeltaCheckpoint> BuildDeltaCheckpoint(const Checkpoint& base, const Checkpoint& current,
                                               size_t chunk_elements,
                                               const std::vector<uint8_t>* dirty_hint = nullptr);

// Applies `delta` on top of `base`, verifying (1) the base binding
// (iteration + base payload CRC), (2) every chunk's CRC against its bytes,
// and (3) the materialized full state against `state_crc`. Any mismatch is
// a DataLossError — a corrupted link must fail loudly, never restore
// silently. The one-link case of RedoLog::Materialize's fold.
StatusOr<Checkpoint> ApplyDeltaCheckpoint(const Checkpoint& base, const DeltaCheckpoint& delta);

// Compaction caps for a redo log chain. `max_chain_length` caps the number
// of deltas (must be >= 1 when incremental mode is on: a cap of 0 would let
// recovery replay an unbounded chain — GeminiConfig::Validate rejects it).
// `max_chain_bytes` additionally caps the summed delta_bytes (0 = no byte
// cap).
struct RedoLogConfig {
  int max_chain_length = 8;
  Bytes max_chain_bytes = 0;
};

class RedoLog {
 public:
  RedoLog() = default;
  explicit RedoLog(const RedoLogConfig& config) : config_(config) {}

  void set_config(const RedoLogConfig& config) { config_ = config; }

  // Seals a new full base; any existing chain is discarded (the base
  // subsumes it).
  void Reset(Checkpoint base);
  // Drops everything (owner no longer hosted / machine lost).
  void Clear();

  // Appends one delta. Epoch sealing: the delta must extend the current
  // head exactly (delta.base_iteration == latest_iteration()) and carry a
  // base CRC matching the head state's digest; anything else is rejected.
  // Geometry: the delta must cover the base's payload_elements and use the
  // chain's chunk_elements (the first link's), else kInvalidArgument.
  Status Append(DeltaCheckpoint delta);

  bool has_base() const { return base_.valid(); }
  const Checkpoint& base() const { return base_; }
  int64_t base_iteration() const { return base_.valid() ? base_.iteration : -1; }
  // Iteration of the chain head (base + all sealed deltas); -1 when empty.
  int64_t latest_iteration() const;
  // Payload CRC of the chain-head state (what the next delta must base on).
  uint32_t latest_state_crc() const;
  size_t chain_length() const { return deltas_.size(); }
  Bytes chain_bytes() const { return chain_bytes_; }
  bool NeedsCompaction() const;

  // Replays base + deltas in epoch order, CRC-gating every link; the result
  // is the full checkpoint at latest_iteration(). Fails on any corrupt or
  // inconsistent link, at that link, exactly as applying the links one by
  // one with ApplyDeltaCheckpoint would.
  StatusOr<Checkpoint> Materialize() const;

  // Folds the chain into a new sealed base (Materialize + Reset). On
  // failure the chain is left untouched so the caller's read path can
  // surface the corruption.
  Status Compact();

  // Fault injection: flips one payload bit of the sealed base (copy-on-write,
  // like CorruptDelta). The base keeps its capture-time CRC, so the flip
  // fails the read path's CRC gate unless the first delta rewrites that
  // chunk: a chunk only a later delta rewrites still fails link 1's
  // full-state CRC.
  Status CorruptBase(size_t bit_index);

  // Fault injection: flips one payload bit inside the chain's
  // `chain_index`-th delta (copy-on-write — other holders of the slices are
  // unaffected). The stale chunk CRC then fails the apply gate.
  Status CorruptDelta(size_t chain_index, size_t bit_index);

 private:
  RedoLogConfig config_;
  Checkpoint base_;
  std::vector<DeltaCheckpoint> deltas_;
  Bytes chain_bytes_ = 0;
};

}  // namespace gemini

#endif  // SRC_STORAGE_DELTA_H_
