#include "src/storage/persistent_store.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "src/common/logging.h"

namespace gemini {
namespace {

constexpr RetryPolicy kRetrievalRetry{kPersistentRetrievalMaxAttempts,
                                      kPersistentRetrievalBackoffBase,
                                      kPersistentRetrievalBackoffCap};

}  // namespace

void PersistentStore::set_metrics(MetricsRegistry* metrics) {
  saves_counter_ = CounterHandle(metrics, "persistent.saves");
  bytes_written_counter_ = CounterHandle(metrics, "persistent.bytes_written");
  retrievals_counter_ = CounterHandle(metrics, "persistent.retrievals");
  retries_counter_ = CounterHandle(metrics, "persistent_store.retries");
  crc_failures_counter_ = CounterHandle(metrics, "persistent_store.crc_failures");
  corruptions_counter_ = CounterHandle(metrics, "persistent_store.corruptions");
  delta_saves_counter_ = CounterHandle(metrics, "persistent.delta_saves");
  delta_bytes_saved_counter_ = CounterHandle(metrics, "delta.bytes_saved");
}

void PersistentStore::MakeDurable(Checkpoint checkpoint, int expected_world_size) {
  const int64_t iteration = checkpoint.iteration;
  const int owner = checkpoint.owner_rank;
  heads_[owner] = checkpoint;  // Shares the payload buffer, not the handle.
  shards_[iteration][owner] = std::move(checkpoint);
  expected_world_[iteration] = expected_world_size;
  Prune();
}

void PersistentStore::Prune() {
  const int64_t newest = LatestCompleteIteration();
  for (auto it = shards_.begin(); it != shards_.end() && it->first < newest;) {
    if (reading_.contains(it->first)) {
      ++it;
      continue;
    }
    expected_world_.erase(it->first);
    it = shards_.erase(it);
  }
}

TimeNs PersistentStore::ScheduleTransfer(Bytes bytes, std::function<void()> at_completion) {
  const TimeNs start = std::max(sim_.now(), busy_until_);
  const TimeNs end = start + TransferCost(bytes);
  busy_until_ = end;
  sim_.ScheduleAt(end, std::move(at_completion));
  return end;
}

TimeNs PersistentStore::Save(Checkpoint checkpoint, int expected_world_size, DoneCallback done) {
  assert(checkpoint.valid());
  assert(expected_world_size > 0);
  const Bytes bytes = checkpoint.logical_bytes;
  return ScheduleTransfer(
      bytes, [this, checkpoint = std::move(checkpoint), expected_world_size,
              done = std::move(done)]() mutable {
        bytes_written_ += checkpoint.logical_bytes;
        saves_counter_->Increment();
        bytes_written_counter_->Increment(checkpoint.logical_bytes);
        MakeDurable(std::move(checkpoint), expected_world_size);
        done(Status::Ok());
      });
}

TimeNs PersistentStore::SaveDelta(DeltaCheckpoint delta, int expected_world_size,
                                  DoneCallback done) {
  assert(delta.valid());
  assert(expected_world_size > 0);
  const Bytes bytes = delta.delta_bytes;
  return ScheduleTransfer(
      bytes, [this, delta = std::move(delta), expected_world_size,
              done = std::move(done)]() mutable {
        bytes_written_ += delta.delta_bytes;
        delta_saves_counter_->Increment();
        bytes_written_counter_->Increment(delta.delta_bytes);
        delta_bytes_saved_counter_->Increment(delta.logical_bytes - delta.delta_bytes);
        const auto head = heads_.find(delta.owner_rank);
        if (head == heads_.end()) {
          done(FailedPreconditionError("no durable persistent head for rank " +
                                       std::to_string(delta.owner_rank)));
          return;
        }
        // Applied at arrival (CRC-gated) so the retrieval surface keeps
        // serving full shards; a real object store would verify the delta
        // object's digest on PUT the same way.
        StatusOr<Checkpoint> applied = ApplyDeltaCheckpoint(head->second, delta);
        if (!applied.ok()) {
          done(applied.status());
          return;
        }
        MakeDurable(std::move(applied).value(), expected_world_size);
        done(Status::Ok());
      });
}

TimeNs PersistentStore::Retrieve(int owner_rank, int64_t iteration,
                                 std::function<void(StatusOr<Checkpoint>)> done) {
  retrievals_counter_->Increment();
  // Every attempt re-reads the set, so it stays until the final outcome.
  ++reading_[iteration];
  return TryRetrieve(owner_rank, iteration, /*attempt=*/0,
                     [this, iteration, done = std::move(done)](StatusOr<Checkpoint> result) {
                       if (--reading_[iteration] == 0) {
                         reading_.erase(iteration);
                         Prune();
                       }
                       done(std::move(result));
                     });
}

TimeNs PersistentStore::TryRetrieve(int owner_rank, int64_t iteration, int attempt,
                                    std::function<void(StatusOr<Checkpoint>)> done) {
  const std::optional<Checkpoint> shard = Peek(owner_rank, iteration);
  if (!shard.has_value()) {
    // A missing shard is permanent — retrying cannot make it appear. The
    // lookup miss costs only the request latency.
    const TimeNs end = sim_.now() + kPersistentRequestLatency;
    sim_.ScheduleAt(end, [owner_rank, iteration, done = std::move(done)] {
      done(NotFoundError("persistent store has no shard for rank " + std::to_string(owner_rank) +
                         " at iteration " + std::to_string(iteration)));
    });
    return end;
  }
  return ScheduleTransfer(
      shard->logical_bytes,
      [this, shard = *shard, owner_rank, iteration, attempt, done = std::move(done)]() mutable {
        // Mirrors the CPU-memory retry cascade: a failed or CRC-rejected
        // attempt backs off exponentially and re-reads, up to the attempt
        // cap; only then does the error surface to the caller.
        auto retry = [this, owner_rank, iteration, attempt,
                      &done](const Status& why) mutable {
          if (kRetrievalRetry.Exhausted(attempt + 1)) {
            done(why);
            return;
          }
          retries_counter_->Increment();
          GEMINI_LOG(kWarning) << "persistent retrieval attempt " << attempt + 1 << " for rank "
                               << owner_rank << " at iteration " << iteration << " failed ("
                               << why << "); retrying";
          sim_.ScheduleAfter(kRetrievalRetry.BackoffBefore(attempt + 1),
                             [this, owner_rank, iteration, attempt, done = std::move(done)] {
                               TryRetrieve(owner_rank, iteration, attempt + 1, std::move(done));
                             });
        };
        if (fault_hook_) {
          const Status injected = fault_hook_(owner_rank, iteration, attempt);
          if (!injected.ok()) {
            retry(injected);
            return;
          }
        }
        if (!shard.IntegrityOk()) {
          crc_failures_counter_->Increment();
          retry(DataLossError("persistent shard for rank " + std::to_string(owner_rank) +
                              " failed its CRC check"));
          return;
        }
        done(std::move(shard));
      });
}

Status PersistentStore::CorruptShard(int owner_rank, int64_t iteration, size_t bit_index) {
  const auto by_iter = shards_.find(iteration);
  if (by_iter == shards_.end()) {
    return NotFoundError("no shards at that iteration");
  }
  const auto by_owner = by_iter->second.find(owner_rank);
  if (by_owner == by_iter->second.end()) {
    return NotFoundError("no durable shard for that rank");
  }
  Checkpoint& checkpoint = by_owner->second;
  if (checkpoint.payload.empty()) {
    return FailedPreconditionError("shard has no payload bytes");
  }
  const size_t payload_bytes = checkpoint.payload.size_bytes();
  const size_t bit = bit_index % (payload_bytes * 8);
  // Copy-on-write: the durable shard may still share its payload buffer with
  // in-memory holders of the same snapshot; MutableData() detaches onto a
  // private copy so the injected bit-rot stays local to the persistent tier.
  auto* bytes = reinterpret_cast<uint8_t*>(checkpoint.payload.MutableData());
  bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  corruptions_counter_->Increment();
  return Status::Ok();
}

int64_t PersistentStore::LatestCompleteIteration() const {
  for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
    const auto expected = expected_world_.find(it->first);
    if (expected != expected_world_.end() &&
        static_cast<int>(it->second.size()) >= expected->second) {
      return it->first;
    }
  }
  return -1;
}

void PersistentStore::SeedImmediate(Checkpoint checkpoint, int expected_world_size) {
  assert(checkpoint.valid());
  MakeDurable(std::move(checkpoint), expected_world_size);
}

std::optional<Checkpoint> PersistentStore::Peek(int owner_rank, int64_t iteration) const {
  const auto by_iter = shards_.find(iteration);
  if (by_iter == shards_.end()) {
    return std::nullopt;
  }
  const auto by_owner = by_iter->second.find(owner_rank);
  if (by_owner == by_iter->second.end()) {
    return std::nullopt;
  }
  return by_owner->second;
}

std::vector<int64_t> PersistentStore::retained_iterations() const {
  std::vector<int64_t> iterations;
  for (const auto& [iteration, owners] : shards_) {
    iterations.push_back(iteration);
  }
  return iterations;
}

}  // namespace gemini
