#include "src/gemini/gemini_system.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <utility>

#include "src/common/calibration.h"
#include "src/common/logging.h"
#include "src/gemini/replicator.h"
#include "src/policy/cost_model.h"

namespace gemini {
namespace {

// A failed background re-protection pass is retried after this delay, up to
// this many consecutive attempts.
constexpr TimeNs kReprotectionRetryDelay = Seconds(5);
constexpr int kReprotectionMaxAttempts = 3;

}  // namespace

Status GeminiConfig::Validate() const {
  if (num_machines < 1) {
    return InvalidArgumentError("need at least one machine");
  }
  if (num_replicas < 1 || num_replicas > num_machines) {
    return InvalidArgumentError("replica count must be in [1, num_machines]");
  }
  if (payload_elements < 1) {
    return InvalidArgumentError("payload_elements must be positive");
  }
  if (profile_iterations < 1) {
    return InvalidArgumentError("profile_iterations must be positive");
  }
  if (num_buffers < 1) {
    return InvalidArgumentError("num_buffers must be positive");
  }
  if (gamma <= 0.0 || gamma > 1.0) {
    return InvalidArgumentError("gamma must be in (0, 1]");
  }
  if (kv_server_count < 1) {
    return InvalidArgumentError("kv_server_count must be positive");
  }
  if (retrieval_max_attempts < 1) {
    return InvalidArgumentError("retrieval_max_attempts must be positive");
  }
  if (pipeline_threads != 1) {
    return InvalidArgumentError("pipeline_threads must be 1: host-side threading was removed");
  }
  if (incremental.sparse_update_fraction <= 0.0 || incremental.sparse_update_fraction > 1.0) {
    return InvalidArgumentError("incremental.sparse_update_fraction must be in (0, 1]");
  }
  // Chunks size both the delta encoding and the sparse-update workload; the
  // chain caps only matter when deltas are built.
  const bool deltas = incremental.enabled;
  if ((deltas || incremental.sparse_update_fraction < 1.0) && incremental.chunk_elements < 1) {
    return InvalidArgumentError("incremental.chunk_elements must be positive");
  }
  if (deltas && incremental.max_chain_length < 1) {
    return InvalidArgumentError(
        "incremental.max_chain_length must be >= 1: a compaction cap of 0 would let delta "
        "chains grow without bound and recovery replay them forever");
  }
  if (deltas && incremental.max_chain_bytes < 0) {
    return InvalidArgumentError("incremental.max_chain_bytes must be non-negative");
  }
  return policy.Validate();
}

GeminiSystem::GeminiSystem(GeminiConfig config)
    : config_(std::move(config)),
      auditor_(config_.audit, &metrics_, &tracer_),
      flight_recorder_(FlightRecorderConfig{config_.flight_recorder_capacity}),
      audit_rng_(config_.seed ^ 0x617564ULL) {
  if (config_.instance.name.empty()) {
    config_.instance = P4d24xlarge();
  }
}

GeminiSystem::~GeminiSystem() = default;

StatusOr<std::unique_ptr<GeminiSystem>> GeminiSystem::Create(GeminiConfig config) {
  GEMINI_RETURN_IF_ERROR(config.Validate());
  auto system = std::make_unique<GeminiSystem>(std::move(config));
  GEMINI_RETURN_IF_ERROR(system->Initialize());
  return system;
}

Status GeminiSystem::Initialize() {
  if (initialized_) {
    return FailedPreconditionError("GeminiSystem already initialized");
  }
  GEMINI_RETURN_IF_ERROR(config_.Validate());
  policy_ = MakeProtectionPolicy(config_.policy);

  // ---- Cluster and fabric.
  FabricConfig fabric_config;
  fabric_config.link_bandwidth = config_.instance.network_bandwidth;
  cluster_ = std::make_unique<Cluster>(sim_, config_.num_machines, config_.instance,
                                       fabric_config);

  // ---- Placement (Algorithm 1) and CPU checkpoint stores.
  GEMINI_ASSIGN_OR_RETURN(placement_,
                          BuildMixedPlacement(config_.num_machines, config_.num_replicas));
  const Bytes replica_bytes = config_.model.CheckpointBytesPerMachine(config_.num_machines);
  RedoLogConfig redo_config;
  redo_config.max_chain_length = config_.incremental.max_chain_length;
  redo_config.max_chain_bytes = config_.incremental.max_chain_bytes;
  cpu_stores_.clear();
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    cpu_stores_.push_back(std::make_unique<CpuCheckpointStore>(cluster_->machine(rank)));
    cpu_stores_.back()->set_metrics(&metrics_);
    cpu_stores_.back()->ConfigureRedoLog(redo_config);
  }
  for (int owner = 0; owner < config_.num_machines; ++owner) {
    for (const int holder : placement_.replica_sets[static_cast<size_t>(owner)]) {
      GEMINI_RETURN_IF_ERROR(
          cpu_stores_[static_cast<size_t>(holder)]->HostOwner(owner, replica_bytes));
    }
  }

  // ---- Trainer and persistent tier (seeded with the initial checkpoint).
  trainer_ = std::make_unique<ShardedTrainer>(config_.model, config_.num_machines,
                                              config_.payload_elements, config_.seed);
  trainer_->set_metrics(&metrics_);
  trainer_->set_tracer(&tracer_);
  if (config_.incremental.sparse_update_fraction < 1.0) {
    trainer_->SetSparseUpdates(config_.incremental.sparse_update_fraction,
                               static_cast<size_t>(config_.incremental.chunk_elements));
  }
  if (config_.incremental.enabled) {
    trainer_->EnableDirtyTracking(static_cast<size_t>(config_.incremental.chunk_elements));
  }
  delta_bases_.assign(static_cast<size_t>(config_.num_machines), std::nullopt);
  dirty_accum_.assign(static_cast<size_t>(config_.num_machines),
                      std::vector<uint8_t>(trainer_->dirty_chunk_count(), 0));
  persistent_bases_.assign(static_cast<size_t>(config_.num_machines), std::nullopt);
  persistent_ = std::make_unique<PersistentStore>(sim_);
  persistent_->set_metrics(&metrics_);
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    // The seed is the persistent tier's first delta head; the first interval
    // save can already ship a delta against iteration 0.
    Checkpoint seeded = trainer_->MakeCheckpoint(rank);
    persistent_bases_[static_cast<size_t>(rank)] = seeded;
    persistent_->SeedImmediate(std::move(seeded), config_.num_machines);
  }

  // ---- Distributed KV store on the first few machines.
  std::vector<int> kv_ranks;
  for (int rank = 0; rank < std::min(config_.kv_server_count, config_.num_machines); ++rank) {
    kv_ranks.push_back(rank);
  }
  kvstore_ = std::make_unique<KvStoreCluster>(
      sim_, cluster_->fabric(), kv_ranks,
      [this](int rank) { return cluster_->machine(rank).alive(); }, config_.kvstore,
      config_.seed ^ 0x6b76ULL);
  kvstore_->set_observability(&metrics_, &tracer_);
  kvstore_->Start();

  // ---- Agents: every machine runs a worker agent; the first one to win the
  // root election becomes the root agent (the same path used at failover).
  workers_.clear();
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    workers_.push_back(StartWorker(rank));
  }

  // ---- Cloud operator and failure injection.
  cloud_ = std::make_unique<CloudOperator>(sim_, *cluster_, config_.cloud,
                                           config_.seed ^ 0x636cULL);
  cloud_->set_metrics(&metrics_);
  injector_ = std::make_unique<FailureInjector>(sim_, *cluster_, config_.seed ^ 0x666cULL);
  injector_->set_metrics(&metrics_);
  injector_->set_observer([this](const FailureEvent& event) {
    // Synchronous training hangs the moment any participant fails: the
    // in-flight iteration (and its in-flight checkpoint) never completes.
    if (running_ && !active_case_.has_value()) {
      CancelInFlightIteration();
    }
    if (event.type == FailureType::kSoftware) {
      for (const int rank : event.ranks) {
        workers_[static_cast<size_t>(rank)]->ReportProcessDown();
      }
    }
  });
  // Chaos hook: bit-flip corruption lands directly in a holder's CPU store —
  // in the completed replica or in one link of its delta chain — where the
  // CRC verification on the recovery read path must catch it.
  injector_->set_corruption_hook([this](const CorruptionTarget& target) {
    CpuCheckpointStore& store = *cpu_stores_[static_cast<size_t>(target.holder)];
    return target.chain_index.has_value()
               ? store.CorruptChainDelta(target.owner, *target.chain_index, target.bit)
               : store.CorruptLatest(target.owner, target.bit);
  });

  // ---- Profile the timeline and plan checkpoint traffic (Sections 5.3/5.4).
  TimelineParams timeline_params;
  timeline_params.model = config_.model;
  timeline_params.instance = config_.instance;
  timeline_params.num_machines = config_.num_machines;
  timeline_ = BuildZero3Timeline(timeline_params);
  ProfilerConfig profiler_config;
  profiler_config.iterations = config_.profile_iterations;
  Rng profile_rng(config_.seed ^ 0x70726fULL);
  profile_ = ProfileIdleSpans(timeline_, profiler_config, profile_rng);

  executor_params_ = ExecutorParams{};
  executor_params_.timeline = timeline_params;
  executor_params_.scheme = InterleaveScheme::kPipelined;
  executor_params_.num_replicas = config_.num_replicas;
  executor_params_.reserved_buffer_per_gpu = config_.reserved_buffer_per_gpu;
  executor_params_.num_buffers = config_.num_buffers;
  executor_params_.gamma = config_.gamma;
  executor_params_.profiled_spans = profile_.spans;
  const FrequencyDecision frequency = ChooseCheckpointFrequency(executor_params_);
  execution_ = frequency.execution;
  checkpoint_interval_iterations_ = frequency.interval_iterations;
  GEMINI_RETURN_IF_ERROR(execution_.status);
  if (checkpoint_interval_iterations_ > 1) {
    GEMINI_LOG(kInfo) << "checkpoint traffic exceeds one iteration's idle time; "
                      << "checkpointing every " << checkpoint_interval_iterations_
                      << " iterations (Section 5.3 amortization)";
  }

  // ---- Continuous interference auditor + flight recorder (observability
  // feedback loop): the tracer feeds the bounded ring through its record
  // sink, and the auditor watches every iteration's spans for drift away
  // from the profile just installed.
  tracer_.set_metrics(&metrics_);
  tracer_.set_max_records(config_.tracer_max_records);
  tracer_.set_record_sink(
      [this](const TraceRecord& record) { flight_recorder_.Record(record); });
  auditor_.Rebaseline(profile_.spans, execution_.partition, AuditPartitionParams());
  auditor_.set_on_drift([this](int64_t iteration) { ReprofileAndRepartition(iteration); });

  // The protection policy goes live against the freshly computed schedule
  // (its Activate publishes the per-policy overhead gauges).
  current_iteration_duration_ = execution_.iteration_time;
  policy_->Activate(*this);

  // Reserve the checkpoint communication buffer on every GPU.
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    GEMINI_RETURN_IF_ERROR(
        cluster_->machine(rank).AllocateOnAllGpus(config_.reserved_buffer_per_gpu));
  }

  report_ = TrainingReport{};
  report_.iteration_time = execution_.iteration_time;
  initialized_ = true;
  return Status::Ok();
}

StatusOr<TrainingReport> GeminiSystem::TrainUntil(int64_t target_iterations,
                                                  TimeNs sim_deadline) {
  if (!initialized_) {
    return FailedPreconditionError("Initialize() first");
  }
  if (running_) {
    return FailedPreconditionError("training already running");
  }
  target_iterations_ = target_iterations;
  running_ = true;
  run_started_at_ = sim_.now();
  last_persistent_checkpoint_at_ = sim_.now();
  StartNextIteration();
  while (running_) {
    const std::optional<TimeNs> next = sim_.NextEventTime();
    if (!next.has_value()) {
      return InternalError("simulation deadlocked: event queue drained while training");
    }
    if (sim_deadline > 0 && *next > sim_deadline) {
      // Every event due by the deadline has run; the run ends exactly there.
      if (sim_.now() < sim_deadline) {
        sim_.RunUntil(sim_deadline);
      }
      GEMINI_LOG(kWarning) << "training stopped at the simulated-time deadline";
      FinishRun();
      break;
    }
    sim_.Step();
  }
  CountRuledKeepalives();
  report_.wall_time = sim_.now() - run_started_at_;
  report_.iterations_completed = trainer_->iteration();
  return report_;
}

void GeminiSystem::FinishRun() {
  running_ = false;
  CancelInFlightIteration();
}

void GeminiSystem::CountRuledKeepalives() {
  for (const auto& worker : workers_) {
    worker->CountRuledKeepalives();
  }
}

void GeminiSystem::CancelInFlightIteration() {
  if (iteration_end_event_.valid()) {
    sim_.Cancel(iteration_end_event_);
    iteration_end_event_ = EventId{};
  }
  if (checkpoint_commit_event_.valid()) {
    sim_.Cancel(checkpoint_commit_event_);
    checkpoint_commit_event_ = EventId{};
  }
}

void GeminiSystem::StartNextIteration() {
  if (!running_ || active_case_.has_value()) {
    return;
  }
  if (trainer_->iteration() >= target_iterations_) {
    FinishRun();
    return;
  }
  // Synchronous training hangs while any participant is down: the next
  // iteration starts when the recovery of that failure resumes training.
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    if (!cluster_->machine(rank).process_running()) {
      return;
    }
  }
  // Checkpoint block structure: the snapshot is captured (staged) at the
  // start of a k-iteration block and its traffic spreads across the block's
  // idle spans, committing during the block's last iteration. k == 1 is the
  // paper's common case: stage and commit within the same iteration.
  const int64_t iteration = trainer_->iteration();
  iteration_started_at_ = sim_.now();
  // Audit this iteration's realized timeline before scheduling anything: a
  // persistent drift may re-profile and re-partition right here, changing the
  // interval and chunk schedule the rest of this function uses. Interference
  // (chunks that no longer fit their shrunken spans) prolongs the iteration
  // by the attributed inflation.
  AuditReport audit;
  if (config_.audit.enabled) {
    audit = auditor_.AuditIteration(iteration, ObservedSpanLengths(), iteration_started_at_);
    if (audit.reprofile_triggered) {
      // The attributed inflation belonged to the schedule the re-profile just
      // replaced; this iteration already runs the fresh one.
      audit.inflation = 0;
    }
  }
  // The policy decides this iteration's capture/commit/stall (after the
  // audit, so it plans against the schedule as it now is). The selector's
  // switch rules also run here, at iteration-start granularity.
  const IterationPlan plan = policy_->PlanIteration(*this, iteration);
  current_iteration_duration_ = plan.iteration_duration;
  if (plan.stage_snapshot) {
    staged_snapshots_.clear();
    for (int owner = 0; owner < config_.num_machines; ++owner) {
      if (cluster_->machine(owner).alive()) {
        staged_snapshots_.push_back(trainer_->MakeCheckpoint(owner));
        // Fold the bits marked since the previous capture into the window
        // accumulated since the owner's last sealed base (a discarded block
        // just leaves the accumulator a conservative superset).
        AccumulateDirtyBits(owner);
      }
    }
    staged_iteration_ = iteration;
    staged_at_ = sim_.now();
  }
  if (plan.commit_staged && staged_iteration_ >= 0) {
    const int64_t snapshot_iteration = staged_iteration_;
    checkpoint_commit_event_ =
        sim_.ScheduleAfter(plan.commit_delay, [this, snapshot_iteration] {
          checkpoint_commit_event_ = EventId{};
          OnCheckpointCommit(snapshot_iteration);
        });
  }
  iteration_end_event_ = sim_.ScheduleAfter(
      plan.iteration_duration + plan.added_stall + audit.inflation, [this] {
        iteration_end_event_ = EventId{};
        OnIterationComplete();
      });
}

void GeminiSystem::DiscardStagedBlock() {
  if (checkpoint_commit_event_.valid()) {
    sim_.Cancel(checkpoint_commit_event_);
    checkpoint_commit_event_ = EventId{};
  }
  staged_iteration_ = -1;
  staged_snapshots_.clear();
}

std::vector<TimeNs> GeminiSystem::ObservedSpanLengths() {
  std::vector<TimeNs> observed;
  observed.reserve(timeline_.idle_spans.size());
  for (const IdleSpan& span : timeline_.idle_spans) {
    const double jitter =
        1.0 + audit_rng_.Normal(0.0, config_.observed_span_jitter_stddev);
    const double length =
        static_cast<double>(span.length) * timeline_shift_ * std::max(0.0, jitter);
    observed.push_back(static_cast<TimeNs>(length));
  }
  return observed;
}

PartitionParams GeminiSystem::AuditPartitionParams() const {
  PartitionParams params;
  params.idle_spans = profile_.spans;
  params.bandwidth = config_.instance.network_bandwidth;
  params.alpha = executor_params_.timeline.comm_alpha;
  return params;
}

void GeminiSystem::ReprofileAndRepartition(int64_t iteration) {
  // Online Section 5.4 re-profile against the timeline as it now is: the
  // nominal spans scaled by the persistent shift, observed with the usual
  // profiling jitter.
  IterationTimeline shifted = timeline_;
  for (IdleSpan& span : shifted.idle_spans) {
    span.length = static_cast<TimeNs>(static_cast<double>(span.length) * timeline_shift_);
  }
  ProfilerConfig profiler_config;
  profiler_config.iterations = config_.profile_iterations;
  profile_ = ProfileIdleSpans(shifted, profiler_config, audit_rng_);

  // Algorithm-2 re-partition on the fresh profile; Section 5.3 frequency
  // adaptation may raise the interval when the shrunken spans no longer
  // carry a full checkpoint per iteration.
  executor_params_.profiled_spans = profile_.spans;
  const FrequencyDecision frequency = ChooseCheckpointFrequency(executor_params_);
  if (frequency.execution.status.ok()) {
    execution_ = frequency.execution;
    checkpoint_interval_iterations_ = frequency.interval_iterations;
    report_.iteration_time = execution_.iteration_time;
    // Any in-flight checkpoint block was planned under the old schedule;
    // restart block accounting under the new one.
    staged_iteration_ = -1;
    staged_snapshots_.clear();
  } else {
    GEMINI_LOG(kWarning) << "online re-partition failed (" << frequency.execution.status
                         << "); keeping the previous schedule";
  }
  auditor_.Rebaseline(profile_.spans, execution_.partition, AuditPartitionParams());
  metrics_.counter("system.reprofiles").Increment();
  tracer_.Span("reprofile", "audit", iteration_started_at_, sim_.now(),
               {TraceAttr::Int("iteration", iteration),
                TraceAttr::Int("interval", checkpoint_interval_iterations_),
                TraceAttr::Real("shift", timeline_shift_)});
  GEMINI_LOG(kInfo) << "auditor: timeline drift persisted at iteration " << iteration
                    << "; re-profiled and re-partitioned (interval now "
                    << checkpoint_interval_iterations_ << ")";
}

void GeminiSystem::OnCheckpointCommit(int64_t snapshot_iteration) {
  // Real data plane: the block's staged snapshots land in all holders'
  // double-buffered CPU stores (the transfer timing was already paid by the
  // interleaved schedule that led to this commit instant).
  if (staged_iteration_ != snapshot_iteration) {
    GEMINI_LOG(kWarning) << "stale checkpoint commit dropped (staged " << staged_iteration_
                         << ", committing " << snapshot_iteration << ")";
    return;
  }
  for (const Checkpoint& snapshot : staged_snapshots_) {
    const int owner = snapshot.owner_rank;
    if (!cluster_->machine(owner).alive()) {
      continue;
    }
    const std::vector<uint8_t>& hint = dirty_accum_[static_cast<size_t>(owner)];
    const std::optional<DeltaCheckpoint> delta = MaybeBuildDelta(
        delta_bases_[static_cast<size_t>(owner)], snapshot, hint.empty() ? nullptr : &hint);
    for (const int holder : placement_.replica_sets[static_cast<size_t>(owner)]) {
      if (!cluster_->machine(holder).alive()) {
        continue;
      }
      CpuCheckpointStore& store = *cpu_stores_[static_cast<size_t>(holder)];
      if (delta.has_value() && store.ExtendsChainHead(*delta)) {
        const Status status = store.WriteDelta(*delta);
        if (status.ok()) {
          continue;
        }
        // A holder whose chain fell out of sync (e.g. a fresh replacement)
        // gets the full snapshot instead.
        GEMINI_LOG(kWarning) << "delta commit failed on rank " << holder << " (" << status
                             << "); falling back to a full write";
      }
      const Status status = store.WriteComplete(snapshot);
      if (!status.ok()) {
        GEMINI_LOG(kWarning) << "checkpoint commit failed on rank " << holder << ": " << status;
        return;
      }
    }
    incremental_committed_bytes_ += delta.has_value() ? delta->delta_bytes : snapshot.logical_bytes;
    incremental_full_equivalent_bytes_ += snapshot.logical_bytes;
    delta_bases_[static_cast<size_t>(owner)] = snapshot;
    auto& accum = dirty_accum_[static_cast<size_t>(owner)];
    std::fill(accum.begin(), accum.end(), 0);
  }
  metrics_.counter("system.cpu_checkpoint_commits").Increment();
  tracer_.Span("checkpoint_block", "checkpoint", staged_at_, sim_.now(),
               {TraceAttr::Int("iteration", snapshot_iteration)});
  tracer_.Event("checkpoint_commit", "checkpoint",
                {TraceAttr::Int("iteration", snapshot_iteration)});
}

void GeminiSystem::OnIterationComplete() {
  tracer_.Span("iteration", "training", iteration_started_at_, sim_.now(),
               {TraceAttr::Int("iteration", trainer_->iteration())});
  trainer_->Step();
  MaybePersistentCheckpoint();
}

void GeminiSystem::MaybePersistentCheckpoint() {
  const TimeNs interval = policy_->PersistentInterval(*this);
  if (interval <= 0 || sim_.now() - last_persistent_checkpoint_at_ < interval) {
    StartNextIteration();
    return;
  }
  last_persistent_checkpoint_at_ = sim_.now();
  // Serialization blocks training (torch.save); the upload itself is
  // asynchronous through the store's shared bandwidth. Ranks serialize
  // concurrently, so the stall is the largest per-rank serialized size — the
  // full replica, or just the delta bytes in incremental mode.
  const Bytes replica_bytes = config_.model.CheckpointBytesPerMachine(config_.num_machines);
  Bytes max_rank_bytes = 0;
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    if (!cluster_->machine(rank).alive()) {
      continue;
    }
    Checkpoint full = trainer_->MakeCheckpoint(rank);
    // Deltas are built against the last *scheduled* state; the store's FIFO
    // preserves arrival order, so each delta lands on the chain head it was
    // sealed against.
    std::optional<DeltaCheckpoint> delta =
        MaybeBuildDelta(persistent_bases_[static_cast<size_t>(rank)], full, nullptr);
    if (delta.has_value()) {
      max_rank_bytes = std::max(max_rank_bytes, delta->delta_bytes);
      persistent_->SaveDelta(std::move(*delta), config_.num_machines, [this, rank](Status status) {
        if (!status.ok()) {
          GEMINI_LOG(kWarning) << "persistent delta save for rank " << rank
                               << " failed: " << status;
          // Broken seal: force the next interval back to a full upload.
          persistent_bases_[static_cast<size_t>(rank)] = std::nullopt;
        }
      });
    } else {
      max_rank_bytes = std::max(max_rank_bytes, replica_bytes);
      persistent_->Save(full, config_.num_machines, [this, rank](Status status) {
        if (!status.ok()) {
          persistent_bases_[static_cast<size_t>(rank)] = std::nullopt;
        }
      });
    }
    persistent_bases_[static_cast<size_t>(rank)] = std::move(full);
  }
  const TimeNs serialize = SerializationStall(max_rank_bytes, kSerializationBandwidth);
  metrics_.counter("system.persistent_checkpoints").Increment();
  tracer_.Span("persistent_serialize", "checkpoint", sim_.now(), sim_.now() + serialize,
               {TraceAttr::Int("iteration", trainer_->iteration())});
  sim_.ScheduleAfter(serialize, [this] { StartNextIteration(); });
}

// ---------------------------------------------------------------------------
// Incremental checkpoints
// ---------------------------------------------------------------------------

void GeminiSystem::AccumulateDirtyBits(int owner_rank) {
  std::vector<uint8_t> taken = trainer_->TakeDirtyChunks(owner_rank);
  auto& accum = dirty_accum_[static_cast<size_t>(owner_rank)];
  if (accum.size() != taken.size()) {
    accum.assign(taken.size(), 1);
    return;
  }
  for (size_t i = 0; i < taken.size(); ++i) {
    accum[i] = static_cast<uint8_t>(accum[i] | taken[i]);
  }
}

std::optional<DeltaCheckpoint> GeminiSystem::MaybeBuildDelta(
    const std::optional<Checkpoint>& base, const Checkpoint& current,
    const std::vector<uint8_t>* dirty_hint) const {
  if (!config_.incremental.enabled || !base.has_value() || current.iteration <= base->iteration ||
      base->payload.size() != current.payload.size()) {
    return std::nullopt;
  }
  StatusOr<DeltaCheckpoint> delta = BuildDeltaCheckpoint(
      *base, current, static_cast<size_t>(config_.incremental.chunk_elements), dirty_hint);
  if (!delta.ok()) {
    GEMINI_LOG(kWarning) << "delta build for owner " << current.owner_rank << " failed ("
                         << delta.status() << "); writing a full snapshot";
    return std::nullopt;
  }
  return std::move(delta).value();
}

void GeminiSystem::ResetIncrementalBases() {
  std::fill(delta_bases_.begin(), delta_bases_.end(), std::nullopt);
  std::fill(persistent_bases_.begin(), persistent_bases_.end(), std::nullopt);
  for (auto& accum : dirty_accum_) {
    std::fill(accum.begin(), accum.end(), 1);
  }
}

double GeminiSystem::incremental_delta_fraction() const {
  if (incremental_full_equivalent_bytes_ <= 0) {
    return 1.0;
  }
  return static_cast<double>(incremental_committed_bytes_) /
         static_cast<double>(incremental_full_equivalent_bytes_);
}

// ---------------------------------------------------------------------------
// Recovery (Section 6.2)
// ---------------------------------------------------------------------------

void GeminiSystem::OnFailureDetected(const FailureReport& report) {
  if (!running_) {
    return;
  }
  if (active_case_.has_value()) {
    // Cascading failure: merge it into the active case instead of dropping
    // it (the pre-hardening behavior silently ignored these).
    AbsorbFailureDuringRecovery(report);
    return;
  }
  // Feed the failure-rate signal the Chameleon selector keys on (pure
  // bookkeeping: no metric or trace output).
  auditor_.NoteFailure(sim_.now());
  active_case_.emplace();
  ActiveRecoveryCase& recovery_case = *active_case_;
  recovery_case.type = report.type;
  recovery_case.reports.push_back(report);
  recovery_case.ranks.insert(report.ranks.begin(), report.ranks.end());
  recovery_case.first_detected_at = report.detected_at;
  recovery_case.serialize_done_at = sim_.now() + policy_->RecoverySerializationTime(*this);
  recovery_case.iteration_at_failure = trainer_->iteration();
  metrics_.counter("system.failures_detected").Increment();
  tracer_.Event("failure_detected", "recovery",
                {TraceAttr::Text("type", std::string(FailureTypeName(report.type))),
                 TraceAttr::Int("num_ranks", static_cast<int64_t>(report.ranks.size())),
                 TraceAttr::Int("iteration", trainer_->iteration())});
  if (config_.flight_recorder_capacity > 0) {
    CountRuledKeepalives();
    flight_recorder_.Dump("failure_detected", sim_.now(), &metrics_);
  }
  GEMINI_LOG(kInfo) << "recovery: handling " << FailureTypeName(report.type) << " failure of "
                    << report.ranks.size() << " machine(s)";
  // The root agent keeps scanning during recovery (its handled-set suppresses
  // re-reports of the ranks already in the case) so overlapping failures are
  // detected and absorbed rather than invisible.
  injector_->Fire(kTriggerRecoveryStart);
  StartRecoveryAttempt();
}

void GeminiSystem::AbsorbFailureDuringRecovery(const FailureReport& report) {
  ActiveRecoveryCase& recovery_case = *active_case_;
  bool new_ranks = false;
  for (const int rank : report.ranks) {
    if (!recovery_case.ranks.contains(rank)) {
      new_ranks = true;
      break;
    }
  }
  const bool escalates = report.type == FailureType::kHardware &&
                         recovery_case.type == FailureType::kSoftware;
  if (!new_ranks && !escalates) {
    // Same ranks, no escalation: a freshly promoted root re-reporting a
    // failure the case already covers.
    metrics_.counter("system.failure_reports.deduplicated").Increment();
    return;
  }
  auditor_.NoteFailure(sim_.now());
  recovery_case.reports.push_back(report);
  recovery_case.ranks.insert(report.ranks.begin(), report.ranks.end());
  if (report.type == FailureType::kHardware) {
    recovery_case.type = FailureType::kHardware;
    // Survivors re-serialize their replicas against the updated alive set.
    recovery_case.serialize_done_at = std::max(
        recovery_case.serialize_done_at, sim_.now() + policy_->RecoverySerializationTime(*this));
  }
  metrics_.counter("system.recoveries.preempted").Increment();
  tracer_.Event("recovery_preempted", "recovery",
                {TraceAttr::Text("type", std::string(FailureTypeName(report.type))),
                 TraceAttr::Int("num_ranks", static_cast<int64_t>(report.ranks.size()))});
  GEMINI_LOG(kInfo) << "recovery: absorbed overlapping " << FailureTypeName(report.type)
                    << " failure of " << report.ranks.size()
                    << " machine(s); restarting the case analysis";
  StartRecoveryAttempt();
}

template <typename Fn>
auto GeminiSystem::InEpoch(Fn fn) {
  return [this, epoch = recovery_epoch_, fn = std::move(fn)](auto&&... args) mutable {
    if (epoch == recovery_epoch_) {
      fn(std::forward<decltype(args)>(args)...);
    }
  };
}

void GeminiSystem::StartRecoveryAttempt() {
  ++recovery_epoch_;  // Invalidate every callback of the previous attempt.
  ActiveRecoveryCase& recovery_case = *active_case_;
  if (recovery_case.type == FailureType::kSoftware) {
    // Restart the crashed processes: serialize the in-memory checkpoints so
    // torch.load can read them, then warm up. The policy decides the chain —
    // GEMINI restores everyone from the local replica (Figure 6b) with zero
    // retrieval traffic.
    const TimeNs serialize_wait =
        std::max<TimeNs>(0, recovery_case.serialize_done_at - sim_.now());
    sim_.ScheduleAfter(serialize_wait + kRestartWarmup,
                       InEpoch([this] { RunRecoveryPlan(); }));
    return;
  }
  // Hardware: replace every rank that is currently dead and not already being
  // replaced; alive machines serialize their replicas meanwhile (the two
  // overlap, Figure 14). Ranks already replaced in an earlier attempt of this
  // case carry over.
  for (const int rank : recovery_case.ranks) {
    if (cluster_->machine(rank).alive() || recovery_case.replacing.contains(rank)) {
      continue;
    }
    recovery_case.replacing.insert(rank);
    ++recovery_case.pending_replacements;
    cloud_->ReplaceMachine(
        rank, [this, rank](Machine& machine) { OnMachineReplaced(rank, machine); });
  }
  MaybeAnalyzeHardwareCase();
}

void GeminiSystem::OnMachineReplaced(int rank, Machine& machine) {
  // Fresh DRAM: rebuild the store's hosting reservations for this rank.
  CpuCheckpointStore& store = *cpu_stores_[static_cast<size_t>(rank)];
  store.ResetForMachine(machine);
  const Bytes replica_bytes = config_.model.CheckpointBytesPerMachine(config_.num_machines);
  for (int owner = 0; owner < config_.num_machines; ++owner) {
    const auto& holders = placement_.replica_sets[static_cast<size_t>(owner)];
    if (std::find(holders.begin(), holders.end(), rank) != holders.end()) {
      (void)store.HostOwner(owner, replica_bytes);
    }
  }
  (void)machine.AllocateOnAllGpus(config_.reserved_buffer_per_gpu);
  // Restart the co-located KV member and agents.
  for (int i = 0; i < kvstore_->num_nodes(); ++i) {
    if (kvstore_->server_ranks()[static_cast<size_t>(i)] == rank) {
      kvstore_->node(i).ResetAndRestart();
    }
  }
  RestartAgentsForRank(rank);
  if (!active_case_.has_value()) {
    return;  // The case resolved without this machine (bookkeeping only).
  }
  active_case_->replaced.push_back(rank);
  --active_case_->pending_replacements;
  MaybeAnalyzeHardwareCase();
}

void GeminiSystem::MaybeAnalyzeHardwareCase() {
  if (!active_case_.has_value() || active_case_->type != FailureType::kHardware ||
      active_case_->pending_replacements > 0) {
    return;
  }
  // All machines replaced. Serialization may still be running.
  const TimeNs wait = std::max<TimeNs>(0, active_case_->serialize_done_at - sim_.now());
  sim_.ScheduleAfter(wait, InEpoch([this] { RunRecoveryPlan(); }));
}

void GeminiSystem::RunRecoveryPlan() {
  // Case analysis: can every rank's checkpoint be served from CPU memory of
  // machines that survived? The policy turns the answer into its fallback
  // chain (Section 6.2's cases for GEMINI).
  ActiveRecoveryCase& recovery_case = *active_case_;
  std::vector<bool> failed(static_cast<size_t>(config_.num_machines), false);
  for (const int rank : recovery_case.replaced) {
    failed[static_cast<size_t>(rank)] = true;
  }
  RecoverySituation situation;
  situation.type = recovery_case.type;
  situation.peer_recoverable = placement_.Recoverable(failed);
  if (!situation.peer_recoverable && policy_->uses_cpu_checkpoints()) {
    GEMINI_LOG(kWarning) << "recovery: an entire placement group was lost; falling back to "
                            "persistent storage";
  }
  recovery_case.plan = policy_->BuildRecoveryPlan(situation);
  recovery_case.step = 0;
  RunRecoveryStep();
}

void GeminiSystem::RunRecoveryStep() {
  ActiveRecoveryCase& recovery_case = *active_case_;
  if (recovery_case.step >= recovery_case.plan.size()) {
    GEMINI_LOG(kError) << "recovery: the policy's fallback chain is exhausted; "
                          "training cannot resume";
    FinishRun();
    return;
  }
  recovery_case.step_started_at = sim_.now();
  recovery_case.fetched.clear();
  switch (recovery_case.plan[recovery_case.step]) {
    case RecoverySource::kLocalCpuMemory:
      for (int rank = 0; rank < config_.num_machines; ++rank) {
        const std::optional<Checkpoint> local =
            cpu_stores_[static_cast<size_t>(rank)]->LatestVerified(rank);
        if (!local.has_value()) {
          // Failure before the first commit, or a corrupted local replica.
          FallThrough(DataLossError("rank " + std::to_string(rank) +
                                    " has no CRC-verified local replica"));
          return;
        }
        // The restarting process loads through the serialized form (the
        // torch.save/torch.load path), so the CRC integrity check guards the
        // bytes actually restored.
        StatusOr<Checkpoint> loaded = DeserializeCheckpoint(SerializeCheckpoint(*local));
        if (!loaded.ok()) {
          FallThrough(loaded.status());
          return;
        }
        recovery_case.fetched.push_back(std::move(loaded).value());
      }
      RestoreFetched();
      return;
    case RecoverySource::kRemoteCpuMemory:
      recovery_case.pending_fetches = static_cast<int>(recovery_case.replaced.size());
      injector_->Fire(kTriggerRetrievalStart);
      if (recovery_case.replaced.empty()) {
        RestoreFetched();
        return;
      }
      for (const int rank : recovery_case.replaced) {
        // Go through the scheduler so trigger-armed events with zero delay
        // (from the Fire above) land before the first read.
        sim_.ScheduleAfter(0, InEpoch([this, rank] { TryFetchReplica(rank, 0); }));
      }
      return;
    case RecoverySource::kPersistentStorage:
    case RecoverySource::kGradientReplay: {
      // Replay starts from the same persistent base a rollback restores.
      const int64_t iteration = persistent_->LatestCompleteIteration();
      if (iteration < 0) {
        FallThrough(NotFoundError("no complete persistent checkpoint exists"));
        return;
      }
      FetchFromPersistent(iteration);
      return;
    }
    case RecoverySource::kPeerRecompute: {
      // No checkpoint fetch at all: surviving peers hold enough redundancy to
      // rebuild the lost shard in place at a fixed iterations-worth of
      // recompute. The state never left the GPUs.
      const TimeNs stall = static_cast<TimeNs>(
          kRecomputeIterations * static_cast<double>(current_iteration_duration_));
      tracer_.Span("peer_recompute", "recovery", sim_.now(), sim_.now() + stall,
                   {TraceAttr::Real("recompute_iterations", kRecomputeIterations)});
      FinishStep(stall);
      return;
    }
  }
}

void GeminiSystem::FallThrough(const Status& why) {
  ActiveRecoveryCase& recovery_case = *active_case_;
  GEMINI_LOG(kWarning) << "recovery: "
                       << RecoverySourceName(recovery_case.plan[recovery_case.step])
                       << " step failed (" << why << "); falling through to the next step";
  ++recovery_epoch_;  // The abandoned step's in-flight callbacks become no-ops.
  ++recovery_case.step;
  RunRecoveryStep();
}

RetryPolicy GeminiSystem::RetrievalRetryPolicy() const {
  return RetryPolicy{config_.retrieval_max_attempts, kPeerRetrievalBackoffBase,
                     kPeerRetrievalBackoffCap};
}

void GeminiSystem::TryFetchReplica(int rank, int attempt) {
  if (RetrievalRetryPolicy().Exhausted(attempt)) {
    FallThrough(UnavailableError("rank " + std::to_string(rank) + " exhausted " +
                                 std::to_string(attempt) + " retrieval attempts"));
    return;
  }
  // Re-derive the holder set every attempt: the alive set may have changed
  // since the case analysis. Replaced ranks count as holding nothing (their
  // fresh DRAM is only filled when this step restores).
  std::vector<bool> holder_alive(static_cast<size_t>(config_.num_machines), false);
  for (int r = 0; r < config_.num_machines; ++r) {
    holder_alive[static_cast<size_t>(r)] = cluster_->machine(r).alive();
  }
  for (const int r : active_case_->replaced) {
    holder_alive[static_cast<size_t>(r)] = false;
  }
  const std::vector<int> holders = placement_.AliveRemoteHolders(rank, holder_alive);
  if (holders.empty()) {
    FallThrough(UnavailableError("no alive peer holds rank " + std::to_string(rank)));
    return;
  }
  // Cycle through the holders: m-1 distinct sources first, then another
  // round for transient (flaky-link) errors.
  const int holder = holders[static_cast<size_t>(attempt) % holders.size()];
  std::optional<Checkpoint> replica =
      cpu_stores_[static_cast<size_t>(holder)]->LatestVerified(rank);
  if (!replica.has_value()) {
    RetryFetchReplica(rank, attempt,
                      DataLossError("holder " + std::to_string(holder) +
                                    " has no CRC-verified replica"));
    return;
  }
  Fabric::TransferOptions options;  // Full line rate for retrieval.
  cluster_->fabric().Transfer(
      holder, rank, replica->logical_bytes, options,
      InEpoch([this, rank, attempt, replica = std::move(*replica)](Status status) mutable {
        if (!status.ok()) {
          RetryFetchReplica(rank, attempt, status);
          return;
        }
        if (!replica.IntegrityOk()) {
          RetryFetchReplica(rank, attempt, DataLossError("fetched replica failed its CRC check"));
          return;
        }
        OnFetched(std::move(replica));
      }));
}

void GeminiSystem::RetryFetchReplica(int rank, int attempt, const Status& why) {
  metrics_.counter("replicator.retries").Increment();
  tracer_.Event("retrieval_retry", "recovery",
                {TraceAttr::Int("rank", rank), TraceAttr::Int("attempt", attempt + 1)});
  GEMINI_LOG(kWarning) << "recovery: retrieval attempt " << attempt + 1 << " for rank " << rank
                       << " failed (" << why << "); retrying";
  sim_.ScheduleAfter(RetrievalRetryPolicy().BackoffBefore(attempt + 1),
                     InEpoch([this, rank, attempt] { TryFetchReplica(rank, attempt + 1); }));
}

void GeminiSystem::FetchFromPersistent(int64_t iteration) {
  active_case_->pending_fetches = config_.num_machines;
  for (int rank = 0; rank < config_.num_machines; ++rank) {
    persistent_->Retrieve(rank, iteration, InEpoch([this](StatusOr<Checkpoint> result) {
                            if (!result.ok()) {
                              FallThrough(result.status());
                              return;
                            }
                            OnFetched(std::move(result).value());
                          }));
  }
}

void GeminiSystem::OnFetched(Checkpoint checkpoint) {
  active_case_->fetched.push_back(std::move(checkpoint));
  if (--active_case_->pending_fetches == 0) {
    RestoreFetched();
  }
}

void GeminiSystem::RestoreFetched() {
  ActiveRecoveryCase& recovery_case = *active_case_;
  const RecoverySource source = recovery_case.plan[recovery_case.step];
  if (source == RecoverySource::kRemoteCpuMemory) {
    // Install fetched replicas, then restore everyone: survivors from local
    // CPU memory, replacements from the fetched copies (Figure 6c).
    std::vector<bool> have(static_cast<size_t>(config_.num_machines), false);
    for (const Checkpoint& checkpoint : recovery_case.fetched) {
      (void)cpu_stores_[static_cast<size_t>(checkpoint.owner_rank)]->WriteComplete(checkpoint);
      have[static_cast<size_t>(checkpoint.owner_rank)] = true;
    }
    for (int rank = 0; rank < config_.num_machines; ++rank) {
      if (have[static_cast<size_t>(rank)]) {
        continue;
      }
      std::optional<Checkpoint> local =
          cpu_stores_[static_cast<size_t>(rank)]->LatestVerified(rank);
      if (!local.has_value()) {
        FallThrough(DataLossError("survivor rank " + std::to_string(rank) +
                                  " has no CRC-verified local replica"));
        return;
      }
      recovery_case.fetched.push_back(std::move(*local));
    }
  }
  const Status restored = trainer_->RestoreAll(recovery_case.fetched);
  if (!restored.ok()) {
    FallThrough(restored);
    return;
  }
  TimeNs stall = 0;
  if (source == RecoverySource::kPersistentStorage) {
    // Refill the CPU tier so subsequent failures recover fast again.
    for (const Checkpoint& checkpoint : recovery_case.fetched) {
      for (const int holder :
           placement_.replica_sets[static_cast<size_t>(checkpoint.owner_rank)]) {
        if (cluster_->machine(holder).alive()) {
          (void)cpu_stores_[static_cast<size_t>(holder)]->WriteComplete(checkpoint);
        }
      }
    }
  }
  if (source == RecoverySource::kRemoteCpuMemory ||
      source == RecoverySource::kPersistentStorage) {
    tracer_.Span("retrieval", "recovery", recovery_case.step_started_at, sim_.now(),
                 {TraceAttr::Text("source", std::string(RecoverySourceName(source)))});
  }
  if (source == RecoverySource::kGradientReplay) {
    // Replay the logged gradient stream forward to the failure iteration: the
    // deterministic update reproduces the pre-failure states bit-exactly, so
    // no progress is lost — only the replay stall (a fraction of an iteration
    // per replayed iteration) is paid.
    const int64_t base_iteration = trainer_->iteration();
    const int64_t target = recovery_case.iteration_at_failure;
    const Status replayed = trainer_->ReplayTo(target);
    if (!replayed.ok()) {
      FallThrough(replayed);
      return;
    }
    stall = static_cast<TimeNs>(static_cast<double>(target - base_iteration) *
                                kCheckmateReplayCostFraction *
                                static_cast<double>(current_iteration_duration_));
    tracer_.Span("gradient_replay", "recovery", recovery_case.step_started_at,
                 sim_.now() + stall,
                 {TraceAttr::Int("base_iteration", base_iteration),
                  TraceAttr::Int("replayed_iterations", target - base_iteration)});
  }
  FinishStep(stall);
}

void GeminiSystem::FinishStep(TimeNs stall) {
  ActiveRecoveryCase& recovery_case = *active_case_;
  // Lost progress, plus the step's own retrieval time and stall (the paper's
  // wasted-time metric). No iteration runs while a participant is down, so
  // the trainer is never past the failure iteration here.
  recovery_case.rollback_iteration = trainer_->iteration();
  const int64_t lost_iterations =
      recovery_case.iteration_at_failure - recovery_case.rollback_iteration;
  recovery_case.wasted_time = lost_iterations * execution_.iteration_time +
                              (sim_.now() - recovery_case.step_started_at) + stall;
  // A software case's restart warm-up already ran before the chain started
  // (StartRecoveryAttempt); a hardware case warms up its replacements here.
  const TimeNs wait =
      stall + (recovery_case.type == FailureType::kSoftware ? 0 : kRestartWarmup);
  if (wait == 0) {
    ResumeTraining();
    return;
  }
  sim_.ScheduleAfter(wait, InEpoch([this] { ResumeTraining(); }));
}

void GeminiSystem::ResumeTraining() {
  const ActiveRecoveryCase& recovery_case = *active_case_;
  const RecoverySource source = recovery_case.plan[recovery_case.step];
  const TimeNs resumed_at = sim_.now();
  // Clear the process-down marks: every surviving machine in the case is
  // running its restarted process again (also after a software case fell
  // through to a non-local step).
  const std::vector<int> case_ranks(recovery_case.ranks.begin(), recovery_case.ranks.end());
  for (const int rank : case_ranks) {
    Machine& machine = cluster_->machine(rank);
    if (machine.alive() && !machine.process_running()) {
      machine.set_health(MachineHealth::kHealthy);
      workers_[static_cast<size_t>(rank)]->ReportHealthy();
    }
  }
  // Expand the merged case into one RecoveryRecord per absorbed FailureReport:
  // a cascade of k overlapping failures yields k records (none dropped), each
  // with its own type/ranks/detection time but the shared resolution.
  for (const FailureReport& report : recovery_case.reports) {
    RecoveryRecord record;
    record.type = report.type;
    record.failed_ranks = report.ranks;
    record.source = source;
    record.failure_detected_at = report.detected_at;
    record.training_resumed_at = resumed_at;
    record.iteration_at_failure = recovery_case.iteration_at_failure;
    record.rollback_iteration = recovery_case.rollback_iteration;
    record.wasted_time = recovery_case.wasted_time;
    record.downtime = resumed_at - report.detected_at;
    GEMINI_LOG(kInfo) << "recovery: resumed training at iteration " << record.rollback_iteration
                      << " from " << RecoverySourceName(source) << " (downtime "
                      << FormatDuration(record.downtime) << ", wasted "
                      << FormatDuration(record.wasted_time) << ")";
    metrics_.counter("system.recoveries").Increment();
    switch (source) {
      case RecoverySource::kLocalCpuMemory:
        metrics_.counter("system.recoveries.local_cpu").Increment();
        break;
      case RecoverySource::kRemoteCpuMemory:
        metrics_.counter("system.recoveries.remote_cpu").Increment();
        break;
      case RecoverySource::kPersistentStorage:
        metrics_.counter("system.recoveries.persistent").Increment();
        break;
      case RecoverySource::kGradientReplay:
        metrics_.counter("system.recoveries.replay").Increment();
        break;
      case RecoverySource::kPeerRecompute:
        metrics_.counter("system.recoveries.recompute").Increment();
        break;
    }
    metrics_.histogram("system.recovery.downtime_seconds")
        .Observe(static_cast<double>(record.downtime) / 1e9);
    metrics_.histogram("system.recovery.wasted_seconds")
        .Observe(static_cast<double>(record.wasted_time) / 1e9);
    // The recovery span covers detection -> resume by construction, so its
    // duration equals the record's downtime; the attrs carry the rest.
    tracer_.Span("recovery", "recovery", record.failure_detected_at, record.training_resumed_at,
                 {TraceAttr::Text("type", std::string(FailureTypeName(record.type))),
                  TraceAttr::Text("source", std::string(RecoverySourceName(source))),
                  TraceAttr::Int("rollback_iteration", record.rollback_iteration),
                  TraceAttr::Int("wasted_time_ns", record.wasted_time),
                  TraceAttr::Int("downtime_ns", record.downtime)});
    report_.recoveries.push_back(std::move(record));
  }
  tracer_.Event("training_resumed", "recovery",
                {TraceAttr::Int("iteration", recovery_case.rollback_iteration)});
  if (config_.flight_recorder_capacity > 0) {
    CountRuledKeepalives();
    flight_recorder_.Dump("recovery_complete", sim_.now(), &metrics_);
  }
  const std::vector<int> replaced = recovery_case.replaced;
  const TimeNs degraded_since = recovery_case.first_detected_at;
  ++recovery_epoch_;  // Nothing scheduled for the resolved case may run.
  active_case_.reset();
  // Recovery rewired store contents (restores, refills, rollbacks); no sealed
  // base can be trusted, so the next block writes full snapshots.
  ResetIncrementalBases();
  if (root_agent_ != nullptr) {
    root_agent_->ClearHandled(case_ranks);
    root_agent_->SetPaused(false);
  }
  if (!replaced.empty() && policy_->uses_cpu_checkpoints()) {
    QueueReprotection(replaced, degraded_since);
  }
  MaybeStartReprotection();
  StartNextIteration();
}

void GeminiSystem::QueueReprotection(const std::vector<int>& targets, TimeNs degraded_since) {
  degraded_since_ =
      reprotect_targets_.empty() ? degraded_since : std::min(degraded_since_, degraded_since);
  reprotect_targets_.insert(targets.begin(), targets.end());
}

void GeminiSystem::MaybeStartReprotection() {
  if (reprotection_inflight_ || reprotect_targets_.empty() || !running_ ||
      active_case_.has_value()) {
    return;
  }
  reprotection_inflight_ = true;
  const std::vector<int> targets(reprotect_targets_.begin(), reprotect_targets_.end());
  const TimeNs started = sim_.now();
  const TimeNs since = degraded_since_;
  injector_->Fire(kTriggerReprotectionStart);
  ReplicatorConfig replicator_config;
  replicator_config.num_buffers = config_.num_buffers;
  replicator_config.metrics = &metrics_;
  replicator_config.auditor = &auditor_;
  std::vector<CpuCheckpointStore*> stores;
  stores.reserve(cpu_stores_.size());
  for (const auto& store : cpu_stores_) {
    stores.push_back(store.get());
  }
  // Chunks sized by the Algorithm-2 partition: the background traffic uses
  // the same bursts the idle-span schedule was planned around, so it cannot
  // stretch the steady-state iteration time.
  ReprotectReplicas(
      *cluster_, placement_, std::move(stores), targets, execution_.partition.max_chunk_bytes,
      replicator_config, [this, targets, started, since](ReplicationOutcome outcome) {
        reprotection_inflight_ = false;
        if (!outcome.status.ok()) {
          GEMINI_LOG(kWarning) << "re-protection pass failed: " << outcome.status;
          if (running_ && ++reprotection_attempts_ < kReprotectionMaxAttempts) {
            sim_.ScheduleAfter(kReprotectionRetryDelay,
                               [this] { MaybeStartReprotection(); });
          }
          return;
        }
        reprotection_attempts_ = 0;
        for (const int rank : targets) {
          reprotect_targets_.erase(rank);
        }
        metrics_.counter("system.reprotections").Increment();
        metrics_.gauge("system.redundancy.degraded_seconds")
            .Add(static_cast<double>(sim_.now() - since) / 1e9);
        tracer_.Span("reprotection", "recovery", started, sim_.now(),
                     {TraceAttr::Int("targets", static_cast<int64_t>(targets.size()))});
        GEMINI_LOG(kInfo) << "re-protection: full replica sets restored for "
                          << targets.size() << " replaced machine(s) after "
                          << FormatDuration(sim_.now() - since) << " degraded";
        MaybeStartReprotection();
      });
}

void GeminiSystem::RestartAgentsForRank(int rank) {
  workers_[static_cast<size_t>(rank)]->Stop();
  workers_[static_cast<size_t>(rank)] = StartWorker(rank);
}

std::unique_ptr<WorkerAgent> GeminiSystem::StartWorker(int rank) {
  auto worker = std::make_unique<WorkerAgent>(sim_, *cluster_, *kvstore_, rank, config_.agent);
  worker->set_on_promoted_to_root([this, rank] { OnWorkerPromotedToRoot(rank); });
  worker->set_metrics(&metrics_);
  worker->set_tracer(&tracer_);
  worker->Start();
  return worker;
}

void GeminiSystem::OnWorkerPromotedToRoot(int rank) {
  if (root_agent_ != nullptr && root_rank_ == rank) {
    return;  // Already the root.
  }
  GEMINI_LOG(kInfo) << "root agent now running on rank " << rank;
  metrics_.counter("system.root_promotions").Increment();
  tracer_.Event("root_promoted", "recovery", {TraceAttr::Int("rank", rank)});
  root_rank_ = rank;
  if (root_agent_ != nullptr) {
    root_agent_->Stop();
  }
  root_agent_ = std::make_unique<RootAgent>(
      sim_, *cluster_, *kvstore_, rank, config_.agent,
      [this](const FailureReport& report) { OnFailureDetected(report); });
  root_agent_->set_metrics(&metrics_);
  root_agent_->Start();
}

SystemSnapshot GeminiSystem::Snapshot() const {
  SystemSnapshot snapshot;
  snapshot.placement_strategy = std::string(PlacementStrategyName(placement_.strategy));
  snapshot.num_machines = config_.num_machines;
  snapshot.num_replicas = config_.num_replicas;
  snapshot.num_placement_groups = static_cast<int>(placement_.groups.size());
  snapshot.iteration_time = execution_.iteration_time;
  snapshot.baseline_iteration_time = execution_.baseline_iteration_time;
  snapshot.checkpoint_overhead_fraction = execution_.overhead_fraction;
  snapshot.checkpoint_fits_iteration = execution_.checkpoint_within_iteration;
  snapshot.checkpoint_interval_iterations = checkpoint_interval_iterations_;
  snapshot.profiled_iterations = profile_.iterations_profiled;
  snapshot.profile_max_normalized_stddev = profile_.max_normalized_stddev;
  snapshot.profile_mean_iteration_time = profile_.mean_iteration_time;
  snapshot.iterations_completed = trainer_ != nullptr ? trainer_->iteration() : 0;
  snapshot.cpu_checkpoints_committed = metrics_.counter_value("system.cpu_checkpoint_commits");
  snapshot.persistent_checkpoints_committed =
      metrics_.counter_value("system.persistent_checkpoints");
  snapshot.recoveries = metrics_.counter_value("system.recoveries");
  snapshot.recoveries_from_local_cpu = metrics_.counter_value("system.recoveries.local_cpu");
  snapshot.recoveries_from_remote_cpu = metrics_.counter_value("system.recoveries.remote_cpu");
  snapshot.recoveries_from_persistent = metrics_.counter_value("system.recoveries.persistent");
  snapshot.recoveries_from_replay = metrics_.counter_value("system.recoveries.replay");
  snapshot.recoveries_from_recompute = metrics_.counter_value("system.recoveries.recompute");
  snapshot.root_rank = root_rank_;
  snapshot.audits = auditor_.audits();
  snapshot.interference_events = auditor_.total_interference_events();
  snapshot.interference_inflation = auditor_.total_inflation();
  for (const double ewma : auditor_.drift_ewma()) {
    snapshot.max_abs_drift_ewma = std::max(snapshot.max_abs_drift_ewma, std::fabs(ewma));
  }
  snapshot.reprofiles = auditor_.reprofiles();
  snapshot.flight_dumps = flight_recorder_.dump_count();
  snapshot.tracer_dropped_records = tracer_.dropped_records();
  snapshot.delta_commits = metrics_.counter_value("cpu_store.delta_commits");
  snapshot.delta_bytes_saved = metrics_.counter_value("delta.bytes_saved");
  snapshot.compaction_folds = metrics_.counter_value("compaction.folds");
  return snapshot;
}

}  // namespace gemini
