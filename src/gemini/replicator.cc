#include "src/gemini/replicator.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>

#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/obs/auditor.h"
#include "src/obs/metrics.h"

namespace gemini {
namespace {

// Shared completion state across all streams of one snapshot.
struct Outcome {
  ReplicationOutcome result;
  InterferenceAuditor* auditor = nullptr;
  // Hot-path metric handles, resolved once per replication pass — chunk
  // completions must not pay a string-keyed map lookup each.
  Counter* chunks_transferred_counter = DiscardCounter();
  Counter* bytes_replicated_counter = DiscardCounter();
  Counter* commits_counter = DiscardCounter();
  int pending_streams = 0;
  bool failed = false;
  std::function<void(ReplicationOutcome)> done;

  void StreamFinished(TimeNs at) {
    result.committed_at = std::max(result.committed_at, at);
    if (--pending_streams == 0 && !failed) {
      result.status = Status::Ok();
      done(result);
    }
  }
  void Fail(Status status) {
    if (failed) {
      return;
    }
    failed = true;
    result.status = std::move(status);
    done(result);
  }
};

// Tiles `total` bytes into `chunk_bytes`-bounded fabric pieces (one piece
// when chunk_bytes <= 0). Always at least one piece, so a zero-byte replica
// still round-trips the data plane and commits.
std::vector<ChunkAssignment> TileChunks(Bytes total, Bytes chunk_bytes) {
  const Bytes step = std::max<Bytes>(chunk_bytes > 0 ? std::min(chunk_bytes, total) : total, 1);
  std::vector<ChunkAssignment> chunks;
  Bytes offset = 0;
  do {
    ChunkAssignment chunk;
    chunk.bytes = std::min(step, total - offset);
    chunk.offset = offset;
    chunks.push_back(chunk);
    offset += step;
  } while (offset < total);
  return chunks;
}

// One source->holder chunk stream with a p-deep send window. Every chunk
// moves the same way — fabric transfer, auditor note, PCIe staging into the
// holder's CPU memory — and the stream counts what landed. The holder's store
// is touched once, after the last chunk: the CRC-checked source payload lands
// whole with WriteComplete, sharing its buffer.
struct Stream : std::enable_shared_from_this<Stream> {
  Cluster* cluster = nullptr;
  std::shared_ptr<Outcome> outcome;
  CpuCheckpointStore* store = nullptr;
  Checkpoint snapshot;  // Replica to land (payload shared, not copied).
  int source = -1;      // Fabric endpoint the bytes come from (the owner for
                        // foreground replication, any holder for re-protection).
  int dest = -1;
  // Re-protection streams run concurrently with foreground checkpointing: a
  // newer commit ending this stream means the redundancy goal was already
  // met, so losing that race is success.
  bool tolerate_supersede = false;
  // The holder slot's seal when the stream opened: a full write or a fresh
  // hosting of the slot since then ends the stream at its next landed chunk.
  uint64_t seal = 0;
  std::vector<ChunkAssignment> chunks;
  size_t next_send = 0;
  size_t landed_chunks = 0;
  Bytes landed_bytes = 0;
  // Set when a superseded stream ends early: chunks still in flight land
  // into nothing and must not count the stream finished again.
  bool ended = false;

  // True when a write-path error just means a newer checkpoint landed first.
  bool Superseded() const {
    return tolerate_supersede &&
           store->LatestIteration(snapshot.owner_rank) >= snapshot.iteration;
  }

  void SendNext() {
    if (outcome->failed || next_send >= chunks.size()) {
      return;
    }
    const size_t k = next_send++;
    const ChunkAssignment chunk = chunks[k];
    auto self = shared_from_this();
    const TimeNs sent_at = cluster->sim().now();
    Fabric::TransferOptions options;  // Checkpoint streams run at line rate.
    cluster->fabric().Transfer(
        source, dest, chunk.bytes, options, [self, chunk, sent_at](Status status) {
          if (!status.ok()) {
            self->outcome->Fail(std::move(status));
            return;
          }
          ++self->outcome->result.chunks_transferred;
          self->outcome->chunks_transferred_counter->Increment();
          self->outcome->bytes_replicated_counter->Increment(chunk.bytes);
          if (self->outcome->auditor != nullptr) {
            self->outcome->auditor->NoteBackgroundTransfer(chunk.span_index, chunk.bytes,
                                                           sent_at,
                                                           self->cluster->sim().now());
          }
          self->outcome->result.network_done =
              std::max(self->outcome->result.network_done, self->cluster->sim().now());
          // Stage the received chunk into CPU memory.
          self->cluster->pcie().Copy(self->dest, chunk.bytes, [self, chunk](Status copy_status) {
            if (!copy_status.ok()) {
              self->outcome->Fail(std::move(copy_status));
              return;
            }
            self->OnChunkCopied(chunk);
          });
        });
  }

  void OnChunkCopied(const ChunkAssignment& chunk) {
    if (outcome->failed || ended) {
      return;
    }
    const Status landed = Land(chunk);
    if (!landed.ok()) {
      EndOnWriteError(landed);
      return;
    }
    if (landed_chunks < chunks.size()) {
      SendNext();  // Replenish the send window.
      return;
    }
    outcome->commits_counter->Increment();
    outcome->StreamFinished(cluster->sim().now());
  }

  // Counts one landed chunk into the holder's ongoing buffer and, after the
  // last one, commits the replica.
  Status Land(const ChunkAssignment& chunk) {
    if (store->Seal(snapshot.owner_rank) != seal) {
      return FailedPreconditionError("holder slot for rank " +
                                     std::to_string(snapshot.owner_rank) +
                                     " was written or hosted anew mid-stream");
    }
    landed_bytes += chunk.bytes;
    if (landed_bytes > snapshot.logical_bytes) {
      return InvalidArgumentError("chunk overflows the ongoing checkpoint buffer");
    }
    if (++landed_chunks < chunks.size()) {
      return Status::Ok();
    }
    // Integrity gate: the digest stamped at capture must match the bytes
    // this stream moved.
    if (snapshot.payload_crc != 0 &&
        Crc32(snapshot.payload.data(), snapshot.payload.size_bytes()) != snapshot.payload_crc) {
      return DataLossError("replica streamed for rank " + std::to_string(snapshot.owner_rank) +
                           " failed its pre-commit CRC check");
    }
    if (landed_bytes != snapshot.logical_bytes) {
      return DataLossError("commit with incomplete checkpoint: received " +
                           FormatBytes(landed_bytes) + " of " +
                           FormatBytes(snapshot.logical_bytes));
    }
    return store->WriteComplete(snapshot);
  }

  void EndOnWriteError(Status status) {
    if (Superseded()) {
      ended = true;
      outcome->StreamFinished(cluster->sim().now());
      return;
    }
    outcome->Fail(std::move(status));
  }
};

// One replication pass: the outcome every write reports into, and the streams
// it launches together once all are open.
struct Pass {
  Pass(Cluster& cluster, const ReplicatorConfig& config,
       std::function<void(ReplicationOutcome)> done)
      : cluster(&cluster),
        window(std::max(1, config.num_buffers)),
        outcome(std::make_shared<Outcome>()) {
    outcome->auditor = config.auditor;
    outcome->chunks_transferred_counter =
        CounterHandle(config.metrics, "replicator.chunks_transferred");
    outcome->bytes_replicated_counter = CounterHandle(config.metrics, "replicator.bytes_replicated");
    outcome->commits_counter = CounterHandle(config.metrics, "replicator.commits");
    outcome->done = std::move(done);
  }

  // Opens a replica stream into the holder's ongoing buffer.
  Status AddReplica(CpuCheckpointStore* store, const Checkpoint& snapshot, int source, int dest,
                    std::vector<ChunkAssignment> chunks, bool tolerate_supersede = false) {
    if (!store->Hosts(snapshot.owner_rank)) {
      return FailedPreconditionError("owner not hosted on this machine");
    }
    auto stream = std::make_shared<Stream>();
    stream->cluster = cluster;
    stream->outcome = outcome;
    stream->store = store;
    stream->snapshot = snapshot;  // Shares the payload buffer.
    stream->source = source;
    stream->dest = dest;
    stream->tolerate_supersede = tolerate_supersede;
    stream->seal = store->Seal(snapshot.owner_rank);
    stream->chunks = std::move(chunks);
    streams.push_back(std::move(stream));
    return Status::Ok();
  }

  // The owner's local replica: copies over its *own* GPUs' PCIe links, which
  // the received-replica staging (modeled by the shared per-machine engine)
  // does not use — the paper's "no interference between the local
  // GPU-to-CPU copy of its own checkpoint and other checkpoints".
  void AddLocalWrite(CpuCheckpointStore* store, const Checkpoint& snapshot) {
    ++outcome->pending_streams;
    cluster->sim().ScheduleAfter(
        TransferTime(snapshot.logical_bytes, cluster->spec().gpu_cpu_copy_bandwidth),
        [outcome = outcome, cluster = cluster, store, snapshot] {
          const Status written = store->WriteComplete(snapshot);
          if (!written.ok()) {
            outcome->Fail(written);
            return;
          }
          outcome->StreamFinished(cluster->sim().now());
        });
  }

  // Opens every stream's send window; with nothing to move at all, reports
  // success with zero traffic.
  void Start() {
    outcome->pending_streams += static_cast<int>(streams.size());
    if (outcome->pending_streams == 0) {
      outcome->result.status = Status::Ok();
      outcome->result.committed_at = cluster->sim().now();
      outcome->done(outcome->result);
      return;
    }
    for (const auto& stream : streams) {
      for (int i = 0; i < window; ++i) {
        stream->SendNext();
      }
    }
  }

  Cluster* cluster;
  int window;
  std::shared_ptr<Outcome> outcome;
  std::vector<std::shared_ptr<Stream>> streams;
};

}  // namespace

void ReplicateSnapshot(Cluster& cluster, const PlacementPlan& placement,
                       std::vector<CpuCheckpointStore*> stores,
                       const std::vector<Checkpoint>& snapshots,
                       const std::vector<ChunkAssignment>& chunks,
                       const ReplicatorConfig& config,
                       std::function<void(ReplicationOutcome)> done) {
  assert(static_cast<int>(stores.size()) == cluster.size());
  assert(static_cast<int>(snapshots.size()) == cluster.size());

  Pass pass(cluster, config, std::move(done));
  for (int owner = 0; owner < cluster.size(); ++owner) {
    if (!cluster.machine(owner).alive()) {
      continue;
    }
    const Checkpoint& snapshot = snapshots[static_cast<size_t>(owner)];
    const std::vector<int> destinations = placement.RemoteDestinations(owner);
    for (size_t replica = 0; replica < destinations.size(); ++replica) {
      const int dest = destinations[replica];
      if (!cluster.machine(dest).alive()) {
        continue;
      }
      std::vector<ChunkAssignment> replica_chunks;
      for (const ChunkAssignment& chunk : chunks) {
        if (chunk.replica_index == static_cast<int>(replica)) {
          replica_chunks.push_back(chunk);
        }
      }
      const Status opened = pass.AddReplica(stores[static_cast<size_t>(dest)], snapshot, owner,
                                            dest, std::move(replica_chunks));
      if (!opened.ok()) {
        pass.outcome->Fail(opened);
        return;
      }
    }
    pass.AddLocalWrite(stores[static_cast<size_t>(owner)], snapshot);
  }
  pass.Start();
}

void ReprotectReplicas(Cluster& cluster, const PlacementPlan& placement,
                       std::vector<CpuCheckpointStore*> stores,
                       const std::vector<int>& target_ranks, Bytes chunk_bytes,
                       const ReplicatorConfig& config,
                       std::function<void(ReplicationOutcome)> done) {
  assert(static_cast<int>(stores.size()) == cluster.size());

  Pass pass(cluster, config, std::move(done));
  for (const int target : target_ranks) {
    if (!cluster.machine(target).alive()) {
      continue;  // Died again; a later pass will pick it up post-replacement.
    }
    for (int owner = 0; owner < cluster.size(); ++owner) {
      const auto& holders = placement.replica_sets[static_cast<size_t>(owner)];
      if (std::find(holders.begin(), holders.end(), target) == holders.end()) {
        continue;  // The target is not in this owner's replica set.
      }
      // Best alive source: the holder (or the owner itself) with the newest
      // CRC-verified copy of `owner`'s checkpoint.
      int source = -1;
      std::optional<Checkpoint> snapshot;
      for (const int candidate : holders) {
        if (candidate == target || !cluster.machine(candidate).alive()) {
          continue;
        }
        std::optional<Checkpoint> copy =
            stores[static_cast<size_t>(candidate)]->LatestVerified(owner);
        if (copy.has_value() &&
            (!snapshot.has_value() || copy->iteration > snapshot->iteration)) {
          source = candidate;
          snapshot = std::move(copy);
        }
      }
      if (!snapshot.has_value()) {
        continue;  // No surviving copy anywhere; nothing to re-protect from.
      }
      CpuCheckpointStore* store = stores[static_cast<size_t>(target)];
      if (store->LatestIteration(owner) >= snapshot->iteration) {
        continue;  // Already protected (a foreground commit got there first).
      }
      const Status opened =
          pass.AddReplica(store, *snapshot, source, target,
                          TileChunks(snapshot->logical_bytes, chunk_bytes),
                          /*tolerate_supersede=*/true);
      if (!opened.ok()) {
        pass.outcome->Fail(opened);
        return;
      }
    }
  }

  if (!pass.streams.empty()) {
    CounterHandle(config.metrics, "replicator.reprotected_replicas")
        ->Increment(static_cast<int64_t>(pass.streams.size()));
  }
  pass.Start();
}

}  // namespace gemini
