#include "src/storage/delta.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include "src/common/crc32.h"

namespace gemini {
namespace {

// Prorates the shard's modeled size by the fraction of real elements moved,
// so delta timing/bandwidth charges scale with the dirty fraction exactly
// like the real payload does.
Bytes ProrateBytes(Bytes logical_bytes, size_t moved_elements, size_t payload_elements) {
  if (payload_elements == 0) {
    return 0;
  }
  return static_cast<Bytes>(static_cast<double>(logical_bytes) *
                            (static_cast<double>(moved_elements) /
                             static_cast<double>(payload_elements)));
}

// Replays `links` on top of `base` with one copy of the base: every link is
// applied in place and gated exactly like a standalone apply of that link to
// the previous link's result. The full-state CRC each link is checked
// against comes from one CRC per block of a fixed grid (the first link's
// chunk size): a block a link rewrites with an aligned chunk takes that
// chunk's just-verified CRC, and any other block is checksummed from the
// state bytes once, when the next full-state CRC needs it.
StatusOr<Checkpoint> FoldDeltas(const Checkpoint& base, std::span<const DeltaCheckpoint> links) {
  const size_t elements = base.payload.size();
  const size_t block = std::max<size_t>(links.front().chunk_elements, 1);
  const size_t num_blocks = (elements + block - 1) / block;
  std::vector<float> state(base.payload.begin(), base.payload.end());
  std::vector<uint32_t> block_crcs(num_blocks);
  // 1 = block_crcs entry does not describe the state bytes yet.
  std::vector<uint8_t> stale(num_blocks, 1);
  auto state_crc = [&] {
    for (size_t b = 0; b < num_blocks; ++b) {
      if (stale[b] != 0) {
        const size_t begin = b * block;
        block_crcs[b] =
            Crc32(state.data() + begin, std::min(block, elements - begin) * sizeof(float));
        stale[b] = 0;
      }
    }
    return Crc32FromBlocks(block_crcs.data(), block * sizeof(float), elements * sizeof(float));
  };

  // Identity and payload CRC of the state the next link applies on top of.
  int owner_rank = base.owner_rank;
  int64_t iteration = base.iteration;
  Bytes logical_bytes = base.logical_bytes;
  uint32_t head_crc = base.payload_crc;
  for (const DeltaCheckpoint& delta : links) {
    if (owner_rank != delta.owner_rank) {
      return InvalidArgumentError("delta applied to a different owner's base");
    }
    if (iteration != delta.base_iteration) {
      return FailedPreconditionError(
          "delta base iteration " + std::to_string(delta.base_iteration) +
          " does not match checkpoint iteration " + std::to_string(iteration));
    }
    if (elements != delta.payload_elements) {
      return InvalidArgumentError("delta payload geometry does not match the base");
    }
    if (head_crc == 0) {
      head_crc = state_crc();
    }
    if (delta.base_crc != 0 && head_crc != delta.base_crc) {
      return DataLossError("delta base CRC mismatch: base state is not the one the delta sealed");
    }

    for (const DeltaChunk& chunk : delta.chunks) {
      const size_t begin = chunk.chunk_index * delta.chunk_elements;
      const size_t count = chunk.data.size();
      if (begin + count > elements) {
        return DataLossError("delta chunk overflows the shard");
      }
      // Per-chunk CRC gate: a bit-flipped slice must fail here, before any
      // byte lands in the materialized state.
      if (Crc32(chunk.data.data(), chunk.data.size_bytes()) != chunk.crc) {
        return DataLossError("delta chunk " + std::to_string(chunk.chunk_index) +
                             " failed its CRC check");
      }
      if (count == 0) {
        continue;
      }
      std::copy(chunk.data.begin(), chunk.data.end(), state.begin() + begin);
      const size_t first = begin / block;
      if (begin % block == 0 && count == std::min(block, elements - begin)) {
        block_crcs[first] = chunk.crc;
        stale[first] = 0;
      } else {
        // A chunk off the grid (a hand-built delta) dirties every block it
        // touches.
        std::fill(stale.begin() + first, stale.begin() + (begin + count - 1) / block + 1, 1);
      }
    }

    owner_rank = delta.owner_rank;
    iteration = delta.iteration;
    logical_bytes = delta.logical_bytes;
    head_crc = state_crc();
    // End-to-end gate: the materialized state must match the digest recorded
    // when the delta was built.
    if (delta.state_crc != 0 && head_crc != delta.state_crc) {
      return DataLossError("materialized delta state failed its full-state CRC check");
    }
  }

  Checkpoint result;
  result.owner_rank = owner_rank;
  result.iteration = iteration;
  result.logical_bytes = logical_bytes;
  result.payload = std::move(state);
  result.payload_crc = head_crc;
  return result;
}

}  // namespace

StatusOr<DeltaCheckpoint> BuildDeltaCheckpoint(const Checkpoint& base, const Checkpoint& current,
                                               size_t chunk_elements,
                                               const std::vector<uint8_t>* dirty_hint) {
  if (chunk_elements == 0) {
    return InvalidArgumentError("delta chunk_elements must be >= 1");
  }
  if (base.owner_rank != current.owner_rank) {
    return InvalidArgumentError("delta base and current belong to different owners");
  }
  if (base.payload.size() != current.payload.size()) {
    return InvalidArgumentError("delta base and current payload sizes differ");
  }
  if (current.iteration <= base.iteration) {
    return InvalidArgumentError("delta must move forward in iterations");
  }
  const size_t elements = current.payload.size();
  const size_t num_chunks = (elements + chunk_elements - 1) / chunk_elements;
  if (dirty_hint != nullptr && dirty_hint->size() != num_chunks) {
    return InvalidArgumentError("dirty hint size does not match chunk count");
  }

  DeltaCheckpoint delta;
  delta.owner_rank = current.owner_rank;
  delta.iteration = current.iteration;
  delta.base_iteration = base.iteration;
  delta.base_crc = base.payload_crc != 0 ? base.payload_crc : base.ComputePayloadCrc();
  delta.state_crc = current.payload_crc != 0 ? current.payload_crc : current.ComputePayloadCrc();
  delta.logical_bytes = current.logical_bytes;
  delta.chunk_elements = chunk_elements;
  delta.payload_elements = elements;

  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    // The trainer's dirty bits are a superset of the truly changed chunks,
    // so an unhinted chunk is known-clean and skipped without comparison.
    if (dirty_hint != nullptr && (*dirty_hint)[chunk] == 0) {
      continue;
    }
    const size_t begin = chunk * chunk_elements;
    const size_t count = std::min(chunk_elements, elements - begin);
    const PayloadRef current_slice = current.payload.Slice(begin, count);
    // Content-wise dedupe: a dirty bit whose write was a no-op compares
    // equal here and ships nothing. Only shipped chunks are checksummed.
    if (std::memcmp(base.payload.data() + begin, current_slice.data(), count * sizeof(float)) ==
        0) {
      continue;
    }
    delta.chunks.push_back(DeltaChunk{
        chunk, current_slice, Crc32(current_slice.data(), current_slice.size_bytes())});
  }
  delta.delta_bytes = ProrateBytes(delta.logical_bytes, delta.delta_elements(), elements);
  return delta;
}

StatusOr<Checkpoint> ApplyDeltaCheckpoint(const Checkpoint& base, const DeltaCheckpoint& delta) {
  return FoldDeltas(base, std::span<const DeltaCheckpoint>(&delta, 1));
}

void RedoLog::Reset(Checkpoint base) {
  base_ = std::move(base);
  deltas_.clear();
  chain_bytes_ = 0;
}

void RedoLog::Clear() {
  base_ = Checkpoint{};
  deltas_.clear();
  chain_bytes_ = 0;
}

int64_t RedoLog::latest_iteration() const {
  if (!deltas_.empty()) {
    return deltas_.back().iteration;
  }
  return base_iteration();
}

uint32_t RedoLog::latest_state_crc() const {
  if (!deltas_.empty()) {
    return deltas_.back().state_crc;
  }
  return base_.valid() ? base_.payload_crc : 0;
}

Status RedoLog::Append(DeltaCheckpoint delta) {
  if (!base_.valid()) {
    return FailedPreconditionError("redo log has no sealed base");
  }
  if (!delta.valid()) {
    return InvalidArgumentError("delta is not well-formed");
  }
  if (delta.owner_rank != base_.owner_rank) {
    return InvalidArgumentError("delta owner does not match the sealed base");
  }
  // One chunk grid per chain: every link covers exactly the base's elements
  // with the first link's chunk size, so Materialize folds on a single grid.
  if (delta.payload_elements != base_.payload.size()) {
    return InvalidArgumentError("delta payload geometry does not match the sealed base");
  }
  if (!deltas_.empty() && delta.chunk_elements != deltas_.front().chunk_elements) {
    return InvalidArgumentError("delta chunk geometry does not match the chain");
  }
  // Epoch sealing: the chain is always a gapless replayable prefix — each
  // delta must extend the current head exactly.
  if (delta.base_iteration != latest_iteration()) {
    return FailedPreconditionError(
        "delta bases on iteration " + std::to_string(delta.base_iteration) +
        " but the chain head is " + std::to_string(latest_iteration()));
  }
  const uint32_t head_crc = latest_state_crc();
  if (delta.base_crc != 0 && head_crc != 0 && delta.base_crc != head_crc) {
    return DataLossError("delta base CRC does not match the chain head state");
  }
  chain_bytes_ += delta.delta_bytes;
  deltas_.push_back(std::move(delta));
  return Status::Ok();
}

bool RedoLog::NeedsCompaction() const {
  if (deltas_.empty()) {
    return false;
  }
  if (config_.max_chain_length > 0 &&
      deltas_.size() >= static_cast<size_t>(config_.max_chain_length)) {
    return true;
  }
  return config_.max_chain_bytes > 0 && chain_bytes_ >= config_.max_chain_bytes;
}

StatusOr<Checkpoint> RedoLog::Materialize() const {
  if (!base_.valid()) {
    return NotFoundError("redo log has no sealed base");
  }
  if (deltas_.empty()) {
    return base_;
  }
  return FoldDeltas(base_, deltas_);
}

Status RedoLog::Compact() {
  if (deltas_.empty()) {
    return Status::Ok();
  }
  GEMINI_ASSIGN_OR_RETURN(Checkpoint folded, Materialize());
  Reset(std::move(folded));
  return Status::Ok();
}

Status RedoLog::CorruptBase(size_t bit_index) {
  if (!base_.valid()) {
    return NotFoundError("redo log has no sealed base to corrupt");
  }
  if (base_.payload.empty()) {
    return FailedPreconditionError("base has no payload bytes");
  }
  const size_t bit = bit_index % (base_.payload.size_bytes() * 8);
  // Copy-on-write: the base shares its buffer with every other holder of
  // this snapshot; detach so the injected bit-rot stays local to this log.
  auto* bytes = reinterpret_cast<uint8_t*>(base_.payload.MutableData());
  bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  return Status::Ok();
}

Status RedoLog::CorruptDelta(size_t chain_index, size_t bit_index) {
  if (chain_index >= deltas_.size()) {
    return NotFoundError("redo log chain has no delta at that index");
  }
  DeltaCheckpoint& delta = deltas_[chain_index];
  size_t total_bits = 0;
  for (const DeltaChunk& chunk : delta.chunks) {
    total_bits += chunk.data.size_bytes() * 8;
  }
  if (total_bits == 0) {
    return FailedPreconditionError("delta has no payload bytes to corrupt");
  }
  size_t bit = bit_index % total_bits;
  for (DeltaChunk& chunk : delta.chunks) {
    const size_t chunk_bits = chunk.data.size_bytes() * 8;
    if (bit < chunk_bits) {
      // Copy-on-write: the slice shares its buffer with the builder's
      // snapshot (and possibly sibling replicas); detach before flipping.
      auto* bytes = reinterpret_cast<uint8_t*>(chunk.data.MutableData());
      bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      return Status::Ok();
    }
    bit -= chunk_bits;
  }
  return InternalError("bit index mapping failed");
}

}  // namespace gemini
