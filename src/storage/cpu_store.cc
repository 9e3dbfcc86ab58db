#include "src/storage/cpu_store.h"

#include "src/common/logging.h"

namespace gemini {

void CpuCheckpointStore::set_metrics(MetricsRegistry* metrics) {
  commits_counter_ = CounterHandle(metrics, "cpu_store.commits");
  bytes_committed_counter_ = CounterHandle(metrics, "cpu_store.bytes_committed");
  crc_failures_counter_ = CounterHandle(metrics, "cpu_store.crc_failures");
  corruptions_counter_ = CounterHandle(metrics, "cpu_store.corruptions");
  delta_commits_counter_ = CounterHandle(metrics, "cpu_store.delta_commits");
  delta_bytes_saved_counter_ = CounterHandle(metrics, "delta.bytes_saved");
  compaction_folds_counter_ = CounterHandle(metrics, "compaction.folds");
  compaction_bytes_folded_counter_ = CounterHandle(metrics, "compaction.bytes_folded");
  chain_length_gauge_ = GaugeHandle(metrics, "delta.chain_length");
}

void CpuCheckpointStore::ConfigureRedoLog(const RedoLogConfig& config) {
  log_config_ = config;
  for (auto& [owner, slot] : slots_) {
    slot.log.set_config(config);
  }
}

void CpuCheckpointStore::ResetForMachine(Machine& machine) {
  // The previous machine's DRAM is gone; do not free against the new one.
  slots_.clear();
  reserved_ = 0;
  machine_ = &machine;
}

Status CpuCheckpointStore::HostOwner(int owner_rank, Bytes replica_bytes) {
  auto it = slots_.find(owner_rank);
  if (it != slots_.end()) {
    if (it->second.replica_bytes == replica_bytes) {
      return Status::Ok();
    }
    return AlreadyExistsError("owner already hosted with a different replica size");
  }
  // Double buffer: completed + ongoing.
  const Bytes needed = 2 * replica_bytes;
  GEMINI_RETURN_IF_ERROR(machine_->AllocateCpuMemory(needed));
  Slot slot;
  slot.replica_bytes = replica_bytes;
  slot.log.set_config(log_config_);
  slot.seal = ++last_seal_;
  slots_.emplace(owner_rank, std::move(slot));
  reserved_ += needed;
  return Status::Ok();
}

Status CpuCheckpointStore::WriteDelta(DeltaCheckpoint delta) {
  auto it = slots_.find(delta.owner_rank);
  if (it == slots_.end()) {
    return FailedPreconditionError("owner not hosted on this machine");
  }
  RedoLog& log = it->second.log;
  const Bytes delta_bytes = delta.delta_bytes;
  const Bytes full_bytes = delta.logical_bytes;
  GEMINI_RETURN_IF_ERROR(log.Append(std::move(delta)));
  delta_commits_counter_->Increment();
  bytes_committed_counter_->Increment(delta_bytes);
  delta_bytes_saved_counter_->Increment(full_bytes - delta_bytes);
  chain_length_gauge_->Set(static_cast<double>(log.chain_length()));
  if (log.NeedsCompaction()) {
    const Bytes folded = log.chain_bytes();
    if (log.Compact().ok()) {
      compaction_folds_counter_->Increment();
      compaction_bytes_folded_counter_->Increment(folded);
    }
    // A failed fold (corrupt link) is left in place: the read path will
    // surface the corruption and the retry cascade takes over.
  }
  return Status::Ok();
}

int64_t CpuCheckpointStore::ChainHeadIteration(int owner_rank) const {
  auto it = slots_.find(owner_rank);
  return it == slots_.end() ? -1 : it->second.log.latest_iteration();
}

size_t CpuCheckpointStore::ChainLength(int owner_rank) const {
  auto it = slots_.find(owner_rank);
  return it == slots_.end() ? 0 : it->second.log.chain_length();
}

Status CpuCheckpointStore::CorruptChainDelta(int owner_rank, size_t chain_index,
                                             size_t bit_index) {
  auto it = slots_.find(owner_rank);
  if (it == slots_.end()) {
    return NotFoundError("no redo log chain to corrupt");
  }
  GEMINI_RETURN_IF_ERROR(it->second.log.CorruptDelta(chain_index, bit_index));
  corruptions_counter_->Increment();
  return Status::Ok();
}

Status CpuCheckpointStore::WriteComplete(Checkpoint checkpoint) {
  auto it = slots_.find(checkpoint.owner_rank);
  if (it == slots_.end()) {
    return FailedPreconditionError("owner not hosted on this machine");
  }
  Slot& slot = it->second;
  const Bytes committed_bytes = checkpoint.logical_bytes;
  if (committed_bytes > slot.replica_bytes) {
    return InvalidArgumentError("checkpoint overflows the hosted replica buffer");
  }
  // A full commit seals a new redo-log base; any older chain is subsumed.
  slot.log.Reset(std::move(checkpoint));
  slot.seal = ++last_seal_;
  commits_counter_->Increment();
  bytes_committed_counter_->Increment(committed_bytes);
  return Status::Ok();
}

uint64_t CpuCheckpointStore::Seal(int owner_rank) const {
  auto it = slots_.find(owner_rank);
  return it == slots_.end() ? 0 : it->second.seal;
}

std::optional<Checkpoint> CpuCheckpointStore::LatestImpl(int owner_rank,
                                                         bool count_failures) const {
  auto it = slots_.find(owner_rank);
  if (it == slots_.end() || !it->second.log.has_base()) {
    return std::nullopt;
  }
  // Replay base+deltas in epoch order (just the base when the chain is
  // empty). A corrupt link fails the whole replica — serving the base (an
  // older iteration than siblings committed) would hand RestoreAll a
  // mixed-iteration set, so the retry cascade falls to another holder or the
  // persistent tier instead.
  StatusOr<Checkpoint> materialized = it->second.log.Materialize();
  if (!materialized.ok()) {
    if (count_failures) {
      crc_failures_counter_->Increment();
      GEMINI_LOG(kWarning) << "cpu store on " << machine_->DebugName()
                           << ": delta chain for owner " << owner_rank
                           << " failed to materialize (" << materialized.status()
                           << "); treating as lost";
    }
    return std::nullopt;
  }
  return std::move(materialized).value();
}

std::optional<Checkpoint> CpuCheckpointStore::Latest(int owner_rank) const {
  return LatestImpl(owner_rank, /*count_failures=*/false);
}

std::optional<Checkpoint> CpuCheckpointStore::LatestVerified(int owner_rank) const {
  std::optional<Checkpoint> latest = LatestImpl(owner_rank, /*count_failures=*/true);
  if (!latest.has_value()) {
    return std::nullopt;
  }
  if (!latest->IntegrityOk()) {
    crc_failures_counter_->Increment();
    GEMINI_LOG(kWarning) << "cpu store on " << machine_->DebugName()
                         << ": replica for owner " << owner_rank
                         << " failed its CRC check; treating as lost";
    return std::nullopt;
  }
  return latest;
}

int64_t CpuCheckpointStore::LatestIteration(int owner_rank) const {
  return ChainHeadIteration(owner_rank);
}

Status CpuCheckpointStore::CorruptLatest(int owner_rank, size_t bit_index) {
  auto it = slots_.find(owner_rank);
  if (it == slots_.end() || !it->second.log.has_base()) {
    return NotFoundError("no completed replica to corrupt");
  }
  GEMINI_RETURN_IF_ERROR(it->second.log.CorruptBase(bit_index));
  corruptions_counter_->Increment();
  return Status::Ok();
}

}  // namespace gemini
