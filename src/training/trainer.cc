#include "src/training/trainer.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/common/crc32.h"
#include "src/obs/metrics.h"
#include "src/obs/run_tracer.h"
#include "src/training/update_kernel.h"

namespace gemini {
namespace {

// Deterministic sparse-update predicate: whether (iteration, rank, chunk)
// is touched this step. A distinct mix constant keeps it decorrelated from
// UpdateDelta without a second seed.
bool ChunkTouched(uint64_t seed, int64_t iteration, int rank, size_t chunk, double fraction) {
  uint64_t x = seed ^ 0xD1B54A32D192ED03ULL;
  x ^= static_cast<uint64_t>(iteration) * 0x9E3779B97F4A7C15ULL;
  x ^= (static_cast<uint64_t>(rank) + 1) * 0xBF58476D1CE4E5B9ULL;
  x ^= (static_cast<uint64_t>(chunk) + 1) * 0x94D049BB133111EBULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < fraction;
}

}  // namespace

ShardedTrainer::ShardedTrainer(const ModelConfig& model, int num_machines, int payload_elements,
                               uint64_t seed)
    : model_(model), num_machines_(num_machines), seed_(seed) {
  assert(num_machines >= 1);
  assert(payload_elements >= 1);
  shards_.resize(static_cast<size_t>(num_machines));
  for (int rank = 0; rank < num_machines; ++rank) {
    Shard& shard = shards_[static_cast<size_t>(rank)];
    shard.live = shard.pool.Acquire(static_cast<size_t>(payload_elements));
    // The initial states are the iteration -1 deltas: 0 * 0.999f + d == d.
    std::fill(shard.live->begin(), shard.live->end(), 0.0f);
    ApplyUpdate(seed_, /*iteration=*/-1, rank, 0, shard.live->size(), shard.live->data(),
                shard.live->data());
  }
  ResetCrcTables();
}

void ShardedTrainer::set_metrics(MetricsRegistry* metrics) {
  steps_counter_ = CounterHandle(metrics, "trainer.steps");
  restores_counter_ = CounterHandle(metrics, "trainer.restores");
  rollback_iterations_counter_ = CounterHandle(metrics, "trainer.rollback_iterations");
  replayed_iterations_counter_ = CounterHandle(metrics, "trainer.replayed_iterations");
}

void ShardedTrainer::SetSparseUpdates(double fraction, size_t chunk_elements) {
  assert(fraction > 0.0);
  assert(chunk_elements >= 1);
  sparse_fraction_ = fraction;
  sparse_chunk_elements_ = chunk_elements;
  // The CRC block grid follows the update mode.
  ResetCrcTables();
}

void ShardedTrainer::EnableDirtyTracking(size_t chunk_elements) {
  assert(chunk_elements >= 1);
  dirty_chunk_elements_ = chunk_elements;
  dirty_.assign(static_cast<size_t>(num_machines_), {});
  for (int rank = 0; rank < num_machines_; ++rank) {
    // Everything starts dirty: no base has seen the initial states yet.
    dirty_[static_cast<size_t>(rank)].assign(dirty_chunk_count(), 1);
  }
}

size_t ShardedTrainer::dirty_chunk_count() const {
  if (dirty_chunk_elements_ == 0 || shards_.empty()) {
    return 0;
  }
  const size_t elements = shards_.front().live->size();
  return (elements + dirty_chunk_elements_ - 1) / dirty_chunk_elements_;
}

std::vector<uint8_t> ShardedTrainer::TakeDirtyChunks(int rank) {
  if (!dirty_tracking_enabled()) {
    return {};
  }
  auto& bits = dirty_.at(static_cast<size_t>(rank));
  std::vector<uint8_t> taken = bits;
  std::fill(bits.begin(), bits.end(), 0);
  return taken;
}

void ShardedTrainer::MarkAllDirty(int rank) {
  if (dirty_tracking_enabled()) {
    auto& bits = dirty_.at(static_cast<size_t>(rank));
    std::fill(bits.begin(), bits.end(), 1);
  }
}

void ShardedTrainer::MarkChunkDirty(int rank, size_t chunk) {
  if (dirty_tracking_enabled()) {
    dirty_.at(static_cast<size_t>(rank)).at(chunk) = 1;
  }
}

std::shared_ptr<std::vector<float>> ShardedTrainer::WriteBuffer(Shard& shard) {
  // The pool's slot and `live` are the only handles unless a capture (or a
  // view of one) still shares the buffer.
  if (shard.live.use_count() == 2) {
    return shard.live;
  }
  return shard.pool.Acquire(shard.live->size());
}

size_t ShardedTrainer::CrcBlockElements() const {
  return sparse_fraction_ >= 1.0 ? shards_.front().live->size() : sparse_chunk_elements_;
}

void ShardedTrainer::ResetCrcTables() {
  const size_t block = CrcBlockElements();
  crc_blocks_per_rank_ = (shards_.front().live->size() + block - 1) / block;
  block_crcs_.assign(shards_.size() * crc_blocks_per_rank_, 0);
  stale_blocks_.assign(shards_.size() * crc_blocks_per_rank_, 1);
}

void ShardedTrainer::UpdateShardsAtCurrentIteration() {
  for (int rank = 0; rank < num_machines_; ++rank) {
    Shard& shard = shards_[static_cast<size_t>(rank)];
    std::shared_ptr<std::vector<float>> out = WriteBuffer(shard);
    const float* in = shard.live->data();
    const size_t elements = shard.live->size();
    if (sparse_fraction_ >= 1.0) {
      ApplyUpdate(seed_, iteration_, rank, 0, elements, in, out->data());
      shard.live = std::move(out);
      stale_blocks_[static_cast<size_t>(rank)] = 1;  // One block per rank when dense.
      MarkAllDirty(rank);
      continue;
    }
    // Sparse mode: only touched chunks see the update (and its decay) this
    // iteration — the MoE-style workload where most expert shards are
    // frozen per step. Written out of place, untouched chunks are copied;
    // either way their CRC table entries still hold.
    const size_t num_chunks = (elements + sparse_chunk_elements_ - 1) / sparse_chunk_elements_;
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      const size_t begin = chunk * sparse_chunk_elements_;
      const size_t end = std::min(elements, begin + sparse_chunk_elements_);
      if (!ChunkTouched(seed_, iteration_, rank, chunk, sparse_fraction_)) {
        if (out->data() != in) {
          std::memcpy(out->data() + begin, in + begin, (end - begin) * sizeof(float));
        }
        continue;
      }
      ApplyUpdate(seed_, iteration_, rank, begin, end - begin, in + begin, out->data() + begin);
      // The next capture checksums it; a step does no CRC work.
      stale_blocks_[static_cast<size_t>(rank) * crc_blocks_per_rank_ + chunk] = 1;
      if (dirty_tracking_enabled()) {
        if (dirty_chunk_elements_ == sparse_chunk_elements_) {
          MarkChunkDirty(rank, chunk);
        } else {
          // Different granularities: mark every tracking chunk the touched
          // element range overlaps (conservative superset).
          for (size_t e = begin; e < end; e += dirty_chunk_elements_) {
            MarkChunkDirty(rank, e / dirty_chunk_elements_);
          }
          MarkChunkDirty(rank, (end - 1) / dirty_chunk_elements_);
        }
      }
    }
    shard.live = std::move(out);
  }
}

void ShardedTrainer::Step() {
  UpdateShardsAtCurrentIteration();
  ++iteration_;
  steps_counter_->Increment();
}

const std::vector<float>& ShardedTrainer::shard(int rank) const {
  return *shards_.at(static_cast<size_t>(rank)).live;
}

size_t ShardedTrainer::allocated_buffers() const {
  size_t buffers = 0;
  for (const Shard& shard : shards_) {
    buffers += shard.pool.allocated_buffers();
  }
  return buffers;
}

Checkpoint ShardedTrainer::MakeCheckpoint(int rank) const {
  Checkpoint checkpoint;
  checkpoint.owner_rank = rank;
  checkpoint.iteration = iteration_;
  checkpoint.logical_bytes = checkpoint_bytes_per_machine();
  const Shard& shard = shards_.at(static_cast<size_t>(rank));
  checkpoint.payload = PayloadRef(std::shared_ptr<const std::vector<float>>(shard.live));
  const size_t block = CrcBlockElements();
  const size_t elements = shard.live->size();
  uint32_t* crcs = block_crcs_.data() + static_cast<size_t>(rank) * crc_blocks_per_rank_;
  uint8_t* stale = stale_blocks_.data() + static_cast<size_t>(rank) * crc_blocks_per_rank_;
  // Only the blocks written since the previous capture are read.
  for (size_t b = 0; b < crc_blocks_per_rank_; ++b) {
    if (stale[b] != 0) {
      const size_t begin = b * block;
      crcs[b] =
          Crc32(shard.live->data() + begin, std::min(block, elements - begin) * sizeof(float));
      stale[b] = 0;
    }
  }
  checkpoint.payload_crc = Crc32FromBlocks(crcs, block * sizeof(float), elements * sizeof(float));
  return checkpoint;
}

Status ShardedTrainer::RestoreShard(const Checkpoint& checkpoint) {
  if (checkpoint.owner_rank < 0 || checkpoint.owner_rank >= num_machines_) {
    return InvalidArgumentError("checkpoint owner rank out of range");
  }
  Shard& shard = shards_[static_cast<size_t>(checkpoint.owner_rank)];
  if (checkpoint.payload.size() != shard.live->size()) {
    return InvalidArgumentError("checkpoint payload size mismatch");
  }
  // A checkpoint viewing the live buffer holds it, so this never copies a
  // buffer onto itself.
  std::shared_ptr<std::vector<float>> out = WriteBuffer(shard);
  std::copy(checkpoint.payload.begin(), checkpoint.payload.end(), out->begin());
  shard.live = std::move(out);
  const size_t first_block = static_cast<size_t>(checkpoint.owner_rank) * crc_blocks_per_rank_;
  std::fill_n(stale_blocks_.begin() + first_block, crc_blocks_per_rank_, 1);
  // A restore can land arbitrarily far from any delta base; every chunk is
  // potentially changed until the next full snapshot seals a new base.
  MarkAllDirty(checkpoint.owner_rank);
  return Status::Ok();
}

Status ShardedTrainer::RestoreAll(const std::vector<Checkpoint>& checkpoints) {
  if (static_cast<int>(checkpoints.size()) != num_machines_) {
    return InvalidArgumentError("need exactly one checkpoint per rank");
  }
  std::vector<bool> seen(static_cast<size_t>(num_machines_), false);
  const int64_t iteration = checkpoints.front().iteration;
  for (const Checkpoint& checkpoint : checkpoints) {
    if (checkpoint.iteration != iteration) {
      return FailedPreconditionError("inconsistent checkpoint set: mixed iterations");
    }
    if (checkpoint.owner_rank < 0 || checkpoint.owner_rank >= num_machines_ ||
        seen[static_cast<size_t>(checkpoint.owner_rank)]) {
      return InvalidArgumentError("checkpoint set does not cover each rank exactly once");
    }
    seen[static_cast<size_t>(checkpoint.owner_rank)] = true;
  }
  for (const Checkpoint& checkpoint : checkpoints) {
    GEMINI_RETURN_IF_ERROR(RestoreShard(checkpoint));
  }
  restores_counter_->Increment();
  if (iteration < iteration_) {
    rollback_iterations_counter_->Increment(iteration_ - iteration);
  }
  if (tracer_ != nullptr) {
    tracer_->Event("trainer_restore", "training",
                   {TraceAttr::Int("from_iteration", iteration_),
                    TraceAttr::Int("to_iteration", iteration)});
  }
  iteration_ = iteration;
  return Status::Ok();
}

Status ShardedTrainer::ReplayTo(int64_t target_iteration) {
  if (target_iteration < iteration_) {
    return InvalidArgumentError("replay target is behind the current iteration");
  }
  const int64_t replayed = target_iteration - iteration_;
  while (iteration_ < target_iteration) {
    UpdateShardsAtCurrentIteration();
    ++iteration_;
  }
  if (replayed > 0) {
    replayed_iterations_counter_->Increment(replayed);
    if (tracer_ != nullptr) {
      tracer_->Event("trainer_replay", "training",
                     {TraceAttr::Int("to_iteration", iteration_),
                      TraceAttr::Int("replayed", replayed)});
    }
  }
  return Status::Ok();
}

}  // namespace gemini
