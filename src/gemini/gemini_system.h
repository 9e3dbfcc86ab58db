// GeminiSystem: the end-to-end distributed training system with in-memory
// checkpointing (the paper's full design, Sections 3-6, on the simulated
// substrate).
//
// Wiring: a Cluster of GPU machines shares a Fabric; a KvStoreCluster (etcd
// stand-in) runs on the first few machines; every machine runs a WorkerAgent
// heartbeating into the store; one RootAgent scans health keys and drives
// recovery through the CloudOperator. Training is a ShardedTrainer whose
// per-iteration timing comes from the ZeRO-3 executor, with checkpoint
// traffic scheduled by Algorithm 2 into profiled idle spans. Checkpoints are
// real byte payloads replicated per the Algorithm 1 placement into
// CpuCheckpointStores (double-buffered), with a PersistentStore tier for the
// 3-hourly user checkpoints and the group-loss fallback path.
//
// Recovery faithfully follows Section 6.2:
//  * software failure  -> all ranks reload their local CPU replica;
//  * hardware, case 1  -> replaced machines fetch replicas from group peers;
//  * hardware, case 2  -> a whole group died: everyone rolls back to the
//                         latest complete persistent checkpoint;
//  * root death        -> workers detect the expired root key and promote
//                         one of themselves via the KV election primitive.
#ifndef SRC_GEMINI_GEMINI_SYSTEM_H_
#define SRC_GEMINI_GEMINI_SYSTEM_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/agent/cloud_operator.h"
#include "src/agent/failure_injector.h"
#include "src/agent/root_agent.h"
#include "src/agent/worker_agent.h"
#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/kvstore/kv_store.h"
#include "src/obs/auditor.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/run_tracer.h"
#include "src/placement/placement.h"
#include "src/policy/protection_policy.h"
#include "src/schedule/executor.h"
#include "src/storage/cpu_store.h"
#include "src/storage/persistent_store.h"
#include "src/storage/serializer.h"
#include "src/training/model_config.h"
#include "src/training/profiler.h"
#include "src/training/trainer.h"

namespace gemini {

struct GeminiConfig {
  ModelConfig model = Gpt2_100B();
  InstanceSpec instance;  // Defaults to p4d.24xlarge when left empty.
  int num_machines = 16;
  int num_replicas = 2;  // m
  Bytes reserved_buffer_per_gpu = MiB(128);
  int num_buffers = 4;  // p
  double gamma = 0.7;
  int profile_iterations = 20;
  TimeNs persistent_checkpoint_interval = Hours(3);
  // Real floats per machine shard (the data plane payload).
  int payload_elements = 64;
  int kv_server_count = 3;
  // Peer-retrieval retry cascade (recovery hardening): per-rank attempt cap
  // across all alive replica holders, with capped exponential backoff between
  // attempts (kPeerRetrievalBackoff{Base,Cap}). Only after the cap is
  // exhausted does recovery fall back to the persistent tier.
  int retrieval_max_attempts = 6;
  // Continuous interference auditing (drift detection + adaptive re-profile).
  AuditorConfig audit;
  // Per-iteration multiplicative jitter on the observed idle spans the
  // auditor compares against the profile (mirrors the profiler's measured
  // <10% normalized stddev). Zero-mean, so it never triggers drift by itself.
  double observed_span_jitter_stddev = 0.05;
  // Flight recorder ring capacity in trace records (0 disables dumps).
  size_t flight_recorder_capacity = 256;
  // RunTracer stored-record cap (0 = unlimited; dropped records are counted
  // in "tracer.dropped_records").
  size_t tracer_max_records = 0;
  // Only 1 is valid; kept because perfbench/workloads.cc still assigns it.
  int pipeline_threads = 1;
  // Incremental delta checkpoints (default off: every checkpoint is a full
  // snapshot and the system's outputs are byte-identical to the pre-delta
  // code). When enabled, CPU-tier commits and persistent saves ship only the
  // chunks that changed since the owner's last sealed base — dirty bits from
  // the trainer pruned further by chunk CRC + content compare. CPU holders
  // keep per-owner epoch-sealed redo logs that compact back into full bases
  // at the configured caps; the persistent tier applies each delta at
  // arrival and keeps only full shards.
  struct IncrementalCheckpointConfig {
    bool enabled = false;
    // Chunk granularity (payload elements) for dirty tracking and delta
    // encoding.
    int chunk_elements = 16;
    // CPU-tier compaction caps: fold the chain into a new base once it holds
    // this many deltas (must be >= 1 — Validate rejects an unbounded chain) or,
    // when > 0, this many accumulated delta bytes.
    int max_chain_length = 8;
    Bytes max_chain_bytes = 0;
    // Sparse-update workload knob (MoE-style): fraction of chunks each
    // (iteration, rank) touches per step; 1.0 is the dense path. Applied to
    // the trainer whether or not `enabled` is set, so full-vs-incremental
    // comparisons run the identical trajectory.
    double sparse_update_fraction = 1.0;
  };
  IncrementalCheckpointConfig incremental;
  // Protection-policy engine: which strategy guards training (GEMINI
  // in-memory checkpoints by default), and the Chameleon selector's starting
  // policy.
  PolicyConfig policy;
  AgentConfig agent;
  CloudOperatorConfig cloud;
  KvStoreConfig kvstore;
  uint64_t seed = 42;

  // Knob sanity for the whole config (machine/replica/KV-server counts,
  // fractions, retry and chain caps, the selector's starting policy).
  // Initialize() and Create() both reject invalid configs through this one
  // gate. The fixed costs (serialization and persistent bandwidth, restart
  // warm-up, machine replacement) are constants in src/common/calibration.h.
  Status Validate() const;
};

struct RecoveryRecord {
  FailureType type = FailureType::kSoftware;
  std::vector<int> failed_ranks;
  RecoverySource source = RecoverySource::kLocalCpuMemory;
  TimeNs failure_detected_at = 0;
  TimeNs training_resumed_at = 0;
  int64_t iteration_at_failure = 0;
  int64_t rollback_iteration = 0;
  // Lost progress plus retrieval (the paper's wasted-time metric).
  TimeNs wasted_time = 0;
  // Wall-clock from detection to resume (includes fixed overheads).
  TimeNs downtime = 0;
};

// One-call introspection surface: the configuration-derived facts (placement,
// schedule, profile) plus run-to-date progress counters. Everything here is
// also reachable through the individual getters; Snapshot() exists so tests,
// examples, and benches read one coherent struct instead of poking at five
// subsystems.
struct SystemSnapshot {
  // Placement (Algorithm 1).
  std::string placement_strategy;
  int num_machines = 0;
  int num_replicas = 0;
  int num_placement_groups = 0;

  // Scheduled iteration (Algorithm 2 outcome).
  TimeNs iteration_time = 0;
  TimeNs baseline_iteration_time = 0;
  double checkpoint_overhead_fraction = 0.0;
  bool checkpoint_fits_iteration = false;
  int checkpoint_interval_iterations = 1;

  // Profile digest (Section 5.2).
  int profiled_iterations = 0;
  double profile_max_normalized_stddev = 0.0;
  TimeNs profile_mean_iteration_time = 0;

  // Run progress.
  int64_t iterations_completed = 0;
  int64_t cpu_checkpoints_committed = 0;
  int64_t persistent_checkpoints_committed = 0;
  int64_t recoveries = 0;
  int64_t recoveries_from_local_cpu = 0;
  int64_t recoveries_from_remote_cpu = 0;
  int64_t recoveries_from_persistent = 0;
  int64_t recoveries_from_replay = 0;
  int64_t recoveries_from_recompute = 0;
  int root_rank = 0;

  // Interference audit headline numbers (tentpole observability).
  int64_t audits = 0;
  int64_t interference_events = 0;
  TimeNs interference_inflation = 0;
  double max_abs_drift_ewma = 0.0;
  int64_t reprofiles = 0;
  int64_t flight_dumps = 0;
  int64_t tracer_dropped_records = 0;

  // Incremental checkpoint data path (zero when the mode is off).
  int64_t delta_commits = 0;
  int64_t delta_bytes_saved = 0;
  int64_t compaction_folds = 0;
};

struct TrainingReport {
  int64_t iterations_completed = 0;
  TimeNs wall_time = 0;
  TimeNs iteration_time = 0;
  std::vector<RecoveryRecord> recoveries;

  // Productive fraction: forward progress over wall-clock.
  double effective_training_ratio() const {
    if (wall_time <= 0) {
      return 1.0;
    }
    return static_cast<double>(iterations_completed) * static_cast<double>(iteration_time) /
           static_cast<double>(wall_time);
  }
};

class GeminiSystem : public PolicyHost {
 public:
  explicit GeminiSystem(GeminiConfig config);
  ~GeminiSystem() override;

  GeminiSystem(const GeminiSystem&) = delete;
  GeminiSystem& operator=(const GeminiSystem&) = delete;

  // Validating factory: rejects a bad config (GeminiConfig::Validate) before
  // any substrate is built, then runs Initialize(). The one-step entry point
  // examples and benches should prefer.
  static StatusOr<std::unique_ptr<GeminiSystem>> Create(GeminiConfig config);

  // Builds the substrate, computes the placement, profiles the timeline,
  // plans checkpoint traffic, starts agents, and seeds the persistent store
  // with the initial (iteration 0) global checkpoint.
  Status Initialize();

  // Runs training until `target_iterations` iterations have completed
  // (across failures and rollbacks). A non-zero `sim_deadline` bounds the
  // simulated time: exceeding it returns the report so far (e.g. a failure
  // storm that takes out the KV quorum would otherwise never finish).
  StatusOr<TrainingReport> TrainUntil(int64_t target_iterations, TimeNs sim_deadline = 0);

  // ---- Observability ------------------------------------------------------
  // Every component of the system reports into this registry ("cpu_store.*",
  // "kv.*", "agent.*", "system.*", ...) and the tracer records the run's
  // span/event timeline (iterations, checkpoint blocks, failure->resume
  // windows). Both are deterministic: same seed, same export bytes.
  MetricsRegistry& metrics() override { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  RunTracer& tracer() override { return tracer_; }
  const RunTracer& tracer() const { return tracer_; }
  InterferenceAuditor& auditor() { return auditor_; }
  const InterferenceAuditor& auditor() const { return auditor_; }
  FlightRecorder& flight_recorder() { return flight_recorder_; }
  const FlightRecorder& flight_recorder() const { return flight_recorder_; }

  // Fault/experiment hook: from now on, every observed idle span is `scale`
  // times its nominal length (a persistent timeline shift — e.g. network
  // contention shrinking the spans the chunk schedule was planned around).
  // The auditor sees the shift, attributes the resulting interference, and —
  // once drift persists — re-profiles and re-partitions online.
  void InjectTimelineShift(double scale) { timeline_shift_ = scale; }

  // Coherent one-struct view of placement/schedule/profile/progress.
  SystemSnapshot Snapshot() const;

  // ---- Introspection ------------------------------------------------------
  Simulator& sim() override { return sim_; }
  Cluster& cluster() { return *cluster_; }
  KvStoreCluster& kvstore() { return *kvstore_; }
  FailureInjector& failure_injector() { return *injector_; }
  CloudOperator& cloud_operator() { return *cloud_; }
  ShardedTrainer& trainer() { return *trainer_; }
  PersistentStore& persistent_store() { return *persistent_; }
  CpuCheckpointStore& cpu_store(int rank) { return *cpu_stores_.at(static_cast<size_t>(rank)); }
  const PlacementPlan& placement() const { return placement_; }
  const ExecutionResult& iteration_execution() const { return execution_; }
  // Checkpoint every k iterations (k > 1 when the traffic does not fit one
  // iteration's idle time; Section 5.3 frequency amortization).
  int checkpoint_interval_iterations() const override {
    return checkpoint_interval_iterations_;
  }
  const ProfileResult& profile() const { return profile_; }
  const TrainingReport& report() const { return report_; }
  const GeminiConfig& config() const { return config_; }
  // The active protection policy (a ChameleonSelector under kChameleon).
  ProtectionPolicy& policy() { return *policy_; }
  const ProtectionPolicy& policy() const { return *policy_; }
  int root_rank() const { return root_rank_; }
  int64_t current_iteration() const { return trainer_ != nullptr ? trainer_->iteration() : 0; }

  // ---- PolicyHost (the slice policies program against) --------------------
  const ExecutionResult& execution() const override { return execution_; }
  int num_replicas() const override { return config_.num_replicas; }
  Bytes replica_bytes() const override {
    return config_.model.CheckpointBytesPerMachine(config_.num_machines);
  }
  TimeNs default_persistent_interval() const override {
    return config_.persistent_checkpoint_interval;
  }
  double observed_failure_rate_per_hour() const override {
    return auditor_.ObservedFailureRatePerHour(sim_.now());
  }
  TimeNs interference_inflation() const override { return auditor_.total_inflation(); }
  double degraded_seconds() const override {
    return metrics_.gauge_value("system.redundancy.degraded_seconds");
  }
  // Observed delta-to-full byte ratio of the CPU-tier commits (1.0 when the
  // incremental mode is off or no delta has committed yet); policies fold it
  // into their steady-state cost models.
  double incremental_delta_fraction() const override;
  void DiscardStagedBlock() override;

 private:
  // ---- Training loop ----
  void StartNextIteration();
  void OnCheckpointCommit(int64_t snapshot_iteration);
  void OnIterationComplete();
  void MaybePersistentCheckpoint();
  void FinishRun();
  // Brings "agent.keepalives" up to date with the ticks renewal rules have
  // covered (WorkerAgent::CountRuledKeepalives); run before the registry is
  // read: when TrainUntil returns and before a flight dump.
  void CountRuledKeepalives();
  // Drops the in-flight iteration's end and its checkpoint commit.
  void CancelInFlightIteration();

  // ---- Incremental checkpoints ----
  // Folds the owner's freshly taken dirty bits into the accumulator covering
  // the window since its last sealed base.
  void AccumulateDirtyBits(int owner_rank);
  // Builds the delta taking `base` to `current` for a CPU-tier commit or a
  // persistent save; nullopt (-> full write) when the mode is off or no
  // compatible base exists.
  std::optional<DeltaCheckpoint> MaybeBuildDelta(const std::optional<Checkpoint>& base,
                                                 const Checkpoint& current,
                                                 const std::vector<uint8_t>* dirty_hint) const;
  // Invalidates every delta base after recovery rewires store contents; the
  // next block re-seals full bases everywhere.
  void ResetIncrementalBases();

  // ---- Interference audit (tentpole) ----
  // The iteration's realized idle-span lengths: nominal spans scaled by the
  // injected timeline shift and per-span jitter (deterministic audit RNG).
  std::vector<TimeNs> ObservedSpanLengths();
  // Transfer-cost model the auditor uses to price chunks (matches the
  // executor's partition parameters).
  PartitionParams AuditPartitionParams() const;
  // Drift hook: re-run the Section 5.4 profiling on the shifted timeline,
  // re-partition with Algorithm 2 (possibly raising the checkpoint interval,
  // Section 5.3), and rebaseline the auditor.
  void ReprofileAndRepartition(int64_t iteration);

  // ---- Recovery (Section 6.2, hardened) ----
  // One recovery *case* merges every FailureReport that arrives while it is
  // in flight: an overlapping failure escalates the case (hardware supersedes
  // software), extends its rank set and restarts the case analysis against
  // the updated alive set. The case owns the policy's fallback chain and runs
  // each step through one pipeline: fetch -> restore -> finish -> resume. A
  // failing step falls through to the next one. Preemption, fall-through and
  // resume each bump `recovery_epoch_`; every in-flight recovery callback is
  // wrapped by InEpoch() and no-ops once its epoch is stale. At resume, one
  // RecoveryRecord is emitted per absorbed report — overlapping failures are
  // never dropped.
  struct ActiveRecoveryCase {
    FailureType type = FailureType::kSoftware;  // Escalates, never de-escalates.
    std::vector<FailureReport> reports;         // Every report merged into the case.
    std::set<int> ranks;                        // Union of all reported ranks.
    std::set<int> replacing;                    // Replacement requested (once per rank).
    std::vector<int> replaced;                  // Fresh-DRAM ranks (replacement done).
    int pending_replacements = 0;
    TimeNs first_detected_at = 0;
    TimeNs serialize_done_at = 0;
    int64_t iteration_at_failure = 0;
    // The policy's fallback chain and the step being executed.
    RecoveryPlan plan;
    size_t step = 0;
    TimeNs step_started_at = 0;
    // The step's checkpoints (one per rank once restorable) and the fetches
    // still in flight.
    std::vector<Checkpoint> fetched;
    int pending_fetches = 0;
    // Set by the step that restored training state.
    int64_t rollback_iteration = 0;
    TimeNs wasted_time = 0;
  };

  void OnFailureDetected(const FailureReport& report);
  void AbsorbFailureDuringRecovery(const FailureReport& report);
  // (Re)starts the case under a fresh epoch: software cases schedule the
  // local restore, hardware cases replace any still-dead ranks first.
  void StartRecoveryAttempt();
  void OnMachineReplaced(int rank, Machine& machine);
  // Once no replacement is pending, schedules the Section 6.2 case analysis
  // after the serialization window.
  void MaybeAnalyzeHardwareCase();
  // Wraps a recovery callback so it runs only while the epoch it was created
  // under is current.
  template <typename Fn>
  auto InEpoch(Fn fn);
  // Asks the policy for the case's fallback chain and runs its first step.
  void RunRecoveryPlan();
  // Fetch phase of the current step; an exhausted chain ends the run.
  void RunRecoveryStep();
  // Abandons the current step (its callbacks go stale) and runs the next.
  void FallThrough(const Status& why);
  // kRemoteCpuMemory: fetch replacements' checkpoints from alive group
  // peers, retrying across all holders (capped exponential backoff, CRC per
  // attempt); exhaustion falls through.
  void TryFetchReplica(int rank, int attempt);
  void RetryFetchReplica(int rank, int attempt, const Status& why);
  RetryPolicy RetrievalRetryPolicy() const;
  // kPersistentStorage and kGradientReplay: every rank's shard of the
  // persistent checkpoint at `iteration`.
  void FetchFromPersistent(int64_t iteration);
  // Collects one fetched checkpoint; the last pending fetch starts the
  // restore.
  void OnFetched(Checkpoint checkpoint);
  // Restore phase: load the fetched checkpoints into the trainer (plus the
  // step's own epilogue: refill, replay), then FinishStep.
  void RestoreFetched();
  // Records rollback and wasted time, then resumes after `stall`, plus the
  // restart warm-up for a hardware case (a software case paid its warm-up
  // before the chain started); a zero wait resumes at once.
  void FinishStep(TimeNs stall);
  void ResumeTraining();
  void RestartAgentsForRank(int rank);
  // Builds, wires and starts the worker agent for `rank`.
  std::unique_ptr<WorkerAgent> StartWorker(int rank);
  void OnWorkerPromotedToRoot(int rank);

  // ---- Re-protection (recovery hardening) ----
  // After a hardware recovery resumes training, replaced machines hold no
  // replicas for the owners they are assigned — the cluster runs with
  // degraded redundancy. A background pass streams the missing replicas back
  // through the Replicator's chunked data plane (chunks sized by the
  // Algorithm-2 partition so the traffic stays inside idle spans) and exports
  // the vulnerability window as system.redundancy.degraded_seconds.
  void QueueReprotection(const std::vector<int>& targets, TimeNs degraded_since);
  void MaybeStartReprotection();

  GeminiConfig config_;
  Simulator sim_;
  MetricsRegistry metrics_;
  RunTracer tracer_{sim_};
  InterferenceAuditor auditor_;
  FlightRecorder flight_recorder_;
  Rng audit_rng_;
  double timeline_shift_ = 1.0;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<KvStoreCluster> kvstore_;
  std::unique_ptr<PersistentStore> persistent_;
  std::vector<std::unique_ptr<CpuCheckpointStore>> cpu_stores_;
  std::unique_ptr<ShardedTrainer> trainer_;
  std::unique_ptr<CloudOperator> cloud_;
  std::unique_ptr<FailureInjector> injector_;
  std::vector<std::unique_ptr<WorkerAgent>> workers_;
  std::unique_ptr<RootAgent> root_agent_;
  int root_rank_ = 0;

  // The active protection strategy (never null after Initialize). The host
  // executes what the policy decides; policies never reach system internals.
  std::unique_ptr<ProtectionPolicy> policy_;
  // The duration the active policy assigned the current iteration; prices
  // replay/recompute stalls (GeminiPolicy keeps it at the scheduled time).
  TimeNs current_iteration_duration_ = 0;

  PlacementPlan placement_;
  IterationTimeline timeline_;
  ProfileResult profile_;
  ExecutionResult execution_;
  // Executor parameters of the active schedule, kept so the online
  // re-partition replans against the refreshed profile.
  ExecutorParams executor_params_;
  int checkpoint_interval_iterations_ = 1;
  // Snapshot captured at the start of the current checkpoint block, held in
  // the staging buffers until the block's last iteration commits it.
  std::vector<Checkpoint> staged_snapshots_;
  int64_t staged_iteration_ = -1;
  TimeNs staged_at_ = 0;
  TimeNs iteration_started_at_ = 0;

  // ---- Delta bases (kept in both modes; deltas are built only when on) ----
  // Per-owner diff base: the last full snapshot whose replication to the CPU
  // tier committed, plus the dirty bits accumulated since it was captured
  // (empty while dirty tracking is off).
  std::vector<std::optional<Checkpoint>> delta_bases_;
  std::vector<std::vector<uint8_t>> dirty_accum_;
  // Last full state *scheduled* to the persistent tier per rank; the store's
  // FIFO preserves arrival order, so schedule-order sealing is safe.
  std::vector<std::optional<Checkpoint>> persistent_bases_;
  // Commit-byte tallies behind incremental_delta_fraction() (per staged
  // snapshot, not per holder).
  Bytes incremental_committed_bytes_ = 0;
  Bytes incremental_full_equivalent_bytes_ = 0;

  bool initialized_ = false;
  bool running_ = false;
  // The active merged failure case (set while recovering) and the epoch that
  // invalidates stale recovery callbacks.
  std::optional<ActiveRecoveryCase> active_case_;
  uint64_t recovery_epoch_ = 0;
  // Replaced machines awaiting the background re-replication pass.
  std::set<int> reprotect_targets_;
  TimeNs degraded_since_ = 0;
  bool reprotection_inflight_ = false;
  int reprotection_attempts_ = 0;
  int64_t target_iterations_ = 0;
  TimeNs run_started_at_ = 0;
  TimeNs last_persistent_checkpoint_at_ = 0;
  EventId iteration_end_event_{};
  EventId checkpoint_commit_event_{};
  TrainingReport report_;
};

}  // namespace gemini

#endif  // SRC_GEMINI_GEMINI_SYSTEM_H_
