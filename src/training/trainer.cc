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

// Elements per tile of a catch-up pass: 16 KiB of floats, so a tile stays in
// L1 while every pending step and its CRC go over it.
constexpr size_t kTileElements = 4096;

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
  shard_iterations_.assign(static_cast<size_t>(num_machines), 0);
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
  // Pending steps were taken under the old rule.
  for (int rank = 0; rank < num_machines_; ++rank) {
    CatchUp(rank, /*checksum=*/false);
  }
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
  CatchUp(rank, /*checksum=*/false);
  auto& bits = dirty_.at(static_cast<size_t>(rank));
  std::vector<uint8_t> taken = bits;
  std::fill(bits.begin(), bits.end(), 0);
  return taken;
}

void ShardedTrainer::MarkRangeDirty(int rank, size_t begin, size_t end) const {
  if (dirty_tracking_enabled()) {
    auto& bits = dirty_.at(static_cast<size_t>(rank));
    std::fill(bits.begin() + static_cast<std::ptrdiff_t>(begin / dirty_chunk_elements_),
              bits.begin() + static_cast<std::ptrdiff_t>((end - 1) / dirty_chunk_elements_ + 1), 1);
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

void ShardedTrainer::CatchUp(int rank, bool checksum) const {
  int64_t& next = shard_iterations_[static_cast<size_t>(rank)];
  if (next == iteration_) {
    return;
  }
  Shard& shard = shards_[static_cast<size_t>(rank)];
  std::shared_ptr<std::vector<float>> out = WriteBuffer(shard);
  const float* in = shard.live->data();
  const size_t elements = shard.live->size();
  const size_t block = CrcBlockElements();
  const bool dense = sparse_fraction_ >= 1.0;
  uint32_t* crcs = block_crcs_.data() + static_cast<size_t>(rank) * crc_blocks_per_rank_;
  uint8_t* stale = stale_blocks_.data() + static_cast<size_t>(rank) * crc_blocks_per_rank_;
  for (size_t b = 0; b < crc_blocks_per_rank_; ++b) {
    const size_t begin = b * block;
    const size_t end = std::min(elements, begin + block);
    // Sparse mode: only touched chunks see an iteration's update (and its
    // decay) — the MoE-style workload where most expert shards are frozen
    // per step. Dense mode touches its one block every iteration.
    touching_.clear();
    for (int64_t iteration = next; iteration < iteration_; ++iteration) {
      if (dense || ChunkTouched(seed_, iteration, rank, b, sparse_fraction_)) {
        touching_.push_back(iteration);
      }
    }
    if (touching_.empty()) {
      // Written out of place, an untouched block is copied; either way its
      // CRC table entry still holds.
      if (out->data() != in) {
        std::memcpy(out->data() + begin, in + begin, (end - begin) * sizeof(float));
      }
      continue;
    }
    uint32_t crc = 0;
    for (size_t tile = begin; tile < end; tile += kTileElements) {
      const size_t count = std::min(kTileElements, end - tile);
      const float* from = in + tile;
      float* to = out->data() + tile;
      for (const int64_t iteration : touching_) {
        ApplyUpdate(seed_, iteration, rank, tile, count, from, to);
        from = to;
      }
      if (checksum) {
        crc = Crc32Update(crc, to, count * sizeof(float));
      }
    }
    crcs[b] = crc;
    stale[b] = checksum ? 0 : 1;
    MarkRangeDirty(rank, begin, end);
  }
  shard.live = std::move(out);
  next = iteration_;
}

void ShardedTrainer::Step() {
  ++iteration_;
  steps_counter_->Increment();
}

const std::vector<float>& ShardedTrainer::shard(int rank) const {
  CatchUp(rank, /*checksum=*/false);
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
  CatchUp(rank, /*checksum=*/true);
  const Shard& shard = shards_.at(static_cast<size_t>(rank));
  checkpoint.payload = PayloadRef(std::shared_ptr<const std::vector<float>>(shard.live));
  const size_t block = CrcBlockElements();
  const size_t elements = shard.live->size();
  uint32_t* crcs = block_crcs_.data() + static_cast<size_t>(rank) * crc_blocks_per_rank_;
  uint8_t* stale = stale_blocks_.data() + static_cast<size_t>(rank) * crc_blocks_per_rank_;
  // Only the blocks stale for a reason other than this capture's catch-up
  // are read again.
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
  shard_iterations_[static_cast<size_t>(checkpoint.owner_rank)] = iteration_;
  const size_t first_block = static_cast<size_t>(checkpoint.owner_rank) * crc_blocks_per_rank_;
  std::fill_n(stale_blocks_.begin() + first_block, crc_blocks_per_rank_, 1);
  // A restore can land arbitrarily far from any delta base; every chunk is
  // potentially changed until the next full snapshot seals a new base.
  MarkRangeDirty(checkpoint.owner_rank, 0, shard.live->size());
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
  std::fill(shard_iterations_.begin(), shard_iterations_.end(), iteration);
  return Status::Ok();
}

Status ShardedTrainer::ReplayTo(int64_t target_iteration) {
  if (target_iteration < iteration_) {
    return InvalidArgumentError("replay target is behind the current iteration");
  }
  const int64_t replayed = target_iteration - iteration_;
  iteration_ = target_iteration;
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
