#include "perfbench/traced_run.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>

#include "perfbench/setup_split.h"
#include "src/agent/root_agent.h"
#include "src/agent/worker_agent.h"
#include "src/cluster/cluster.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/gemini/replicator.h"
#include "src/kvstore/kv_store.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/run_tracer.h"
#include "src/sim/timer.h"
#include "src/storage/cpu_store.h"
#include "src/storage/delta.h"
#include "src/storage/serializer.h"
#include "src/training/trainer.h"

namespace perfbench {

namespace {

using gemini::Bytes;
using gemini::Checkpoint;
using gemini::Cluster;
using gemini::CpuCheckpointStore;
using gemini::GeminiConfig;
using gemini::KvStoreCluster;
using gemini::Simulator;
using gemini::TimeNs;
using Clock = std::chrono::steady_clock;

// Simulated time one control-plane replay span covers.
constexpr TimeNs kReplaySpanSimTime = gemini::Seconds(60);
// Unit-cost probes repeat until they took this long (and at least kMinProbes
// times).
constexpr double kProbeSeconds = 0.05;
constexpr int kMinProbes = 5;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Samples the host-speed kernel at most every kHostSampleSeconds, called
// between spans so that the kernel's time never lands in a self time.
class HostPacer {
 public:
  static constexpr double kHostSampleSeconds = 0.25;

  explicit HostPacer(HostSpeed& host) : host_(host), last_(Clock::now()) {}

  void Tick() {
    if (SecondsSince(last_) >= kHostSampleSeconds) {
      host_.Sample();
      last_ = Clock::now();
    }
  }

 private:
  HostSpeed& host_;
  Clock::time_point last_;
};

// What the untraced system run did: the load each replay reproduces.
struct ReplayLoad {
  GeminiConfig config;
  gemini::PlacementPlan placement;
  TimeNs sim_duration = 0;
  int64_t steps = 0;
  int64_t checkpoint_blocks = 0;
  int64_t persistent_checkpoints = 0;
  int64_t tracer_records = 0;
  Bytes chunk_bytes = 0;
  std::vector<gemini::RecoveryRecord> recoveries;
};

gemini::FabricConfig FabricFor(const GeminiConfig& config) {
  gemini::FabricConfig fabric;
  fabric.link_bandwidth = config.instance.network_bandwidth;
  return fabric;
}

std::unique_ptr<KvStoreCluster> StartKvStore(const GeminiConfig& config, Simulator& sim,
                                             Cluster& cluster) {
  std::vector<int> kv_ranks;
  for (int rank = 0; rank < std::min(config.kv_server_count, config.num_machines); ++rank) {
    kv_ranks.push_back(rank);
  }
  auto kv = std::make_unique<KvStoreCluster>(
      sim, cluster.fabric(), kv_ranks,
      [&cluster](int rank) { return cluster.machine(rank).alive(); }, config.kvstore,
      config.seed ^ 0x6b76ULL);
  kv->Start();
  return kv;
}

// A raw lease client making a WorkerAgent's KV calls on the agent's cadence:
// grant + health put, a keepalive per keepalive interval, a root-key read per
// scan interval (campaigning while it is absent) and, once it holds the root
// key, the root agent's health-prefix scan.
class LeaseClient {
 public:
  LeaseClient(Simulator& sim, KvStoreCluster& kv, int rank, const gemini::AgentConfig& config)
      : kv_(kv),
        rank_(rank),
        ttl_(config.health_lease_ttl),
        keepalive_(sim, config.keepalive_interval, [this] { OnKeepAlive(); }),
        root_watch_(sim, config.root_scan_interval, [this] { OnRootWatch(); }),
        root_scan_(sim, config.root_scan_interval,
                   [this] { (void)kv_.List(gemini::kHealthKeyPrefix); }) {}

  void Start() {
    Acquire();
    keepalive_.Start();
    root_watch_.Start();
  }

 private:
  void Acquire() {
    kv_.LeaseGrant(ttl_, [this](gemini::StatusOr<gemini::LeaseId> lease) {
      if (!lease.ok()) {
        return;
      }
      lease_ = *lease;
      kv_.Put(gemini::kHealthKeyPrefix + std::to_string(rank_), gemini::kStatusHealthy, lease_,
              [](gemini::Status) {});
    });
  }

  void OnKeepAlive() {
    if (lease_ == gemini::kNoLease) {
      Acquire();
      return;
    }
    kv_.LeaseKeepAlive(lease_, [this](gemini::Status status) {
      if (!status.ok()) {
        lease_ = gemini::kNoLease;
      }
    });
  }

  void OnRootWatch() {
    if (lease_ == gemini::kNoLease) {
      return;
    }
    const gemini::StatusOr<gemini::KvEntry> root = kv_.Get(gemini::kRootKey);
    if (root.ok() || root.status().code() != gemini::StatusCode::kNotFound) {
      return;
    }
    kv_.PutIfAbsent(gemini::kRootKey, std::to_string(rank_), lease_, [this](gemini::Status s) {
      const gemini::StatusOr<gemini::KvEntry> winner = kv_.Get(gemini::kRootKey);
      if (s.ok() && winner.ok() && winner->value == std::to_string(rank_) &&
          !root_scan_.running()) {
        root_scan_.Start();
      }
    });
  }

  KvStoreCluster& kv_;
  int rank_;
  TimeNs ttl_;
  gemini::LeaseId lease_ = gemini::kNoLease;
  gemini::RepeatingTimer keepalive_;
  gemini::RepeatingTimer root_watch_;
  gemini::RepeatingTimer root_scan_;
};

// The KV store on a bare cluster for the run's simulated duration, driven by
// raw lease clients (`agents` false) or by WorkerAgents plus the RootAgent
// the first promoted worker starts, as GeminiSystem wires them.
class ControlPlane {
 public:
  ControlPlane(const GeminiConfig& config, bool agents)
      : config_(config),
        cluster_(sim_, config.num_machines, config.instance, FabricFor(config)),
        kv_(StartKvStore(config, sim_, cluster_)) {
    for (int rank = 0; rank < config.num_machines; ++rank) {
      if (!agents) {
        clients_.push_back(std::make_unique<LeaseClient>(sim_, *kv_, rank, config.agent));
        clients_.back()->Start();
        continue;
      }
      auto worker =
          std::make_unique<gemini::WorkerAgent>(sim_, cluster_, *kv_, rank, config.agent);
      worker->set_on_promoted_to_root([this, rank] { Promote(rank); });
      worker->set_metrics(&metrics_);
      worker->Start();
      workers_.push_back(std::move(worker));
    }
  }

  int64_t RunUntil(TimeNs until) { return sim_.RunUntil(until); }

 private:
  void Promote(int rank) {
    if (root_ != nullptr) {
      root_->Stop();
    }
    root_ = std::make_unique<gemini::RootAgent>(sim_, cluster_, *kv_, rank, config_.agent,
                                                [](const gemini::FailureReport&) {});
    root_->set_metrics(&metrics_);
    root_->Start();
  }

  const GeminiConfig& config_;
  Simulator sim_;
  Cluster cluster_;
  gemini::MetricsRegistry metrics_;
  std::unique_ptr<KvStoreCluster> kv_;
  std::vector<std::unique_ptr<LeaseClient>> clients_;
  std::vector<std::unique_ptr<gemini::WorkerAgent>> workers_;
  std::unique_ptr<gemini::RootAgent> root_;
};

struct ControlPlaneReplay {
  double kv_seconds = 0.0;
  int64_t kv_events = 0;
  double agents_seconds = 0.0;
  int64_t agents_events = 0;
};

// Runs the KV-alone and the agents+KV control planes in lockstep, one span of
// simulated time each in alternating order, so both see the same host
// conditions and their difference is the agents' own cost.
ControlPlaneReplay ReplayControlPlanes(const ReplayLoad& load, SpanRecorder& spans,
                                       HostPacer& pacer) {
  ControlPlane kv_only(load.config, /*agents=*/false);
  ControlPlane with_agents(load.config, /*agents=*/true);
  ControlPlaneReplay replay;
  const auto advance = [&spans](ControlPlane& plane, bool agents, TimeNs until, double& seconds,
                                int64_t& events) {
    const Clock::time_point start = Clock::now();
    SpanRecorder::Scope scope(spans, agents ? "agents+kv replay" : "kv replay",
                              agents ? "agent" : "kvstore");
    events += plane.RunUntil(until);
    seconds += SecondsSince(start);
  };
  bool kv_first = true;
  for (TimeNs until = 0; until < load.sim_duration; kv_first = !kv_first) {
    until = std::min(until + kReplaySpanSimTime, load.sim_duration);
    if (kv_first) {
      advance(kv_only, false, until, replay.kv_seconds, replay.kv_events);
    }
    advance(with_agents, true, until, replay.agents_seconds, replay.agents_events);
    if (!kv_first) {
      advance(kv_only, false, until, replay.kv_seconds, replay.kv_events);
    }
    pacer.Tick();
  }
  return replay;
}

// The simulator alone: `events` no-op events, with as many pending at a time
// as the control plane keeps (one chain per machine).
double ReplaySimEngine(int64_t events, int chains, SpanRecorder& spans) {
  Simulator sim;
  gemini::Rng rng(0x73696dULL);
  int64_t remaining = events;
  std::function<void()> tick = [&] {
    if (--remaining > chains) {
      sim.ScheduleAfter(gemini::Micros(rng.UniformDouble(1.0, 1000.0)), tick);
    }
  };
  for (int i = 0; i < chains && remaining > 0; ++i) {
    sim.ScheduleAfter(gemini::Micros(rng.UniformDouble(1.0, 1000.0)), tick);
  }
  const Clock::time_point start = Clock::now();
  SpanRecorder::Scope scope(spans, "no-op events", "sim");
  sim.Run();
  return SecondsSince(start);
}

// Wraps one call in a span.
template <typename Fn>
auto Traced(SpanRecorder& spans, const char* name, const char* layer, Fn&& fn) {
  SpanRecorder::Scope scope(spans, name, layer);
  return fn();
}

// The data plane: trainer steps and captures, CPU-store commits (full or
// delta, as GeminiSystem chooses), the persistent tier's captures and delta
// builds, and each recovery's verified reads, serialize round trips,
// restores and re-protection passes, in the counts the system run made.
class DataPlaneReplay {
 public:
  DataPlaneReplay(const ReplayLoad& load, SpanRecorder& spans, CheckLog& checks,
                  HostPacer& pacer)
      : load_(load),
        config_(load.config),
        n_(config_.num_machines),
        spans_(spans),
        checks_(checks),
        pacer_(pacer),
        cluster_(sim_, n_, config_.instance, FabricFor(config_)),
        trainer_(config_.model, n_, config_.payload_elements, config_.seed),
        chunk_(static_cast<size_t>(config_.incremental.chunk_elements)) {
    if (config_.incremental.sparse_update_fraction < 1.0) {
      trainer_.SetSparseUpdates(config_.incremental.sparse_update_fraction, chunk_);
    }
    if (incremental()) {
      trainer_.EnableDirtyTracking(chunk_);
    }
    gemini::RedoLogConfig redo;
    redo.max_chain_length = config_.incremental.max_chain_length;
    redo.max_chain_bytes = config_.incremental.max_chain_bytes;
    for (int rank = 0; rank < n_; ++rank) {
      stores_.push_back(std::make_unique<CpuCheckpointStore>(cluster_.machine(rank)));
      stores_.back()->set_metrics(&metrics_);
      if (incremental()) {
        stores_.back()->ConfigureRedoLog(redo);
      }
    }
    for (int owner = 0; owner < n_; ++owner) {
      for (const int holder : load_.placement.replica_sets[static_cast<size_t>(owner)]) {
        checks_.Check(stores_[static_cast<size_t>(holder)]->HostOwner(owner, replica_bytes()).ok(),
                      "replay: HostOwner failed");
      }
    }
    bases_.assign(static_cast<size_t>(n_), std::nullopt);
    persistent_bases_.assign(static_cast<size_t>(n_), std::nullopt);
    dirty_.assign(static_cast<size_t>(n_), {});
  }

  void Run() {
    const int64_t steps = std::max<int64_t>(load_.steps, 1);
    const auto events_at = [steps](int64_t count, int64_t step) {
      return (step + 1) * count / steps - step * count / steps;
    };
    const int64_t recoveries = static_cast<int64_t>(load_.recoveries.size());
    for (int64_t step = 0; step < steps; ++step) {
      Traced(spans_, "ShardedTrainer::Step", "training", [&] { trainer_.Step(); });
      for (int64_t i = 0; i < events_at(load_.checkpoint_blocks, step); ++i) {
        CommitBlock();
      }
      for (int64_t i = 0; i < events_at(load_.persistent_checkpoints, step); ++i) {
        PersistentCapture();
      }
      for (int64_t i = 0; i < events_at(recoveries, step); ++i) {
        Recover(load_.recoveries[static_cast<size_t>(next_recovery_++)]);
      }
      pacer_.Tick();
    }
  }

  // Unit-cost probes (run id 2) of entry points the replay did not call.
  void ProbeUncalled() {
    spans_.set_run_id(kProbeRun);
    if (SpanDurationsMs(spans_.spans(), kReplayRun, "LatestVerified").empty()) {
      for (int i = 0; i < kMinProbes; ++i) {
        VerifiedRead(i % n_, i % n_);
      }
    }
    if (SpanDurationsMs(spans_.spans(), kReplayRun, "BuildDeltaCheckpoint").empty()) {
      ProbeDelta();
    }
    if (SpanDurationsMs(spans_.spans(), kReplayRun, "ReprotectReplicas").empty()) {
      ReplaceRank(n_ - 1);
      Reprotect(n_ - 1);
    }
    ProbeThroughput();
    spans_.set_run_id(kReplayRun);
  }

  double crc32_mb_s() const { return crc32_mb_s_; }
  double serialize_mb_s() const { return serialize_mb_s_; }

 private:
  bool incremental() const { return config_.incremental.enabled; }
  Bytes replica_bytes() const { return config_.model.CheckpointBytesPerMachine(n_); }
  CpuCheckpointStore& store(int rank) { return *stores_[static_cast<size_t>(rank)]; }

  Checkpoint Capture(int owner) {
    Checkpoint snapshot = Traced(spans_, "ShardedTrainer::MakeCheckpoint", "training",
                                 [&] { return trainer_.MakeCheckpoint(owner); });
    if (incremental()) {
      std::vector<uint8_t> taken = Traced(spans_, "ShardedTrainer::TakeDirtyChunks", "training",
                                          [&] { return trainer_.TakeDirtyChunks(owner); });
      auto& accum = dirty_[static_cast<size_t>(owner)];
      if (accum.size() != taken.size()) {
        accum.assign(taken.size(), 1);
      } else {
        for (size_t i = 0; i < taken.size(); ++i) {
          accum[i] = static_cast<uint8_t>(accum[i] | taken[i]);
        }
      }
    }
    return snapshot;
  }

  std::optional<gemini::DeltaCheckpoint> BuildDelta(const std::optional<Checkpoint>& base,
                                                    const Checkpoint& snapshot,
                                                    const std::vector<uint8_t>* hint) {
    if (!incremental() || !base.has_value() || snapshot.iteration <= base->iteration) {
      return std::nullopt;
    }
    gemini::StatusOr<gemini::DeltaCheckpoint> delta =
        Traced(spans_, "BuildDeltaCheckpoint", "storage", [&] {
          return gemini::BuildDeltaCheckpoint(*base, snapshot, chunk_,
                                              hint != nullptr && !hint->empty() ? hint : nullptr);
        });
    if (!delta.ok()) {
      return std::nullopt;
    }
    return std::move(delta).value();
  }

  void CommitBlock() {
    for (int owner = 0; owner < n_; ++owner) {
      const Checkpoint snapshot = Capture(owner);
      std::optional<gemini::DeltaCheckpoint> delta = BuildDelta(
          bases_[static_cast<size_t>(owner)], snapshot, &dirty_[static_cast<size_t>(owner)]);
      for (const int holder : load_.placement.replica_sets[static_cast<size_t>(owner)]) {
        if (delta.has_value() && store(holder).ChainHeadIteration(owner) == delta->base_iteration &&
            Traced(spans_, "CpuCheckpointStore::WriteDelta", "storage",
                   [&] { return store(holder).WriteDelta(*delta); })
                .ok()) {
          continue;
        }
        checks_.Check(Traced(spans_, "CpuCheckpointStore::WriteComplete", "storage",
                             [&] { return store(holder).WriteComplete(snapshot); })
                          .ok(),
                      "replay: WriteComplete failed");
      }
      if (incremental()) {
        bases_[static_cast<size_t>(owner)] = snapshot;
        std::fill(dirty_[static_cast<size_t>(owner)].begin(),
                  dirty_[static_cast<size_t>(owner)].end(), 0);
      }
    }
  }

  void PersistentCapture() {
    for (int rank = 0; rank < n_; ++rank) {
      Checkpoint full = Traced(spans_, "ShardedTrainer::MakeCheckpoint", "training",
                               [&] { return trainer_.MakeCheckpoint(rank); });
      (void)BuildDelta(persistent_bases_[static_cast<size_t>(rank)], full, nullptr);
      if (incremental()) {
        persistent_bases_[static_cast<size_t>(rank)] = std::move(full);
      }
    }
  }

  std::optional<Checkpoint> VerifiedRead(int holder, int owner) {
    return Traced(spans_, "LatestVerified", "storage",
                  [&] { return store(holder).LatestVerified(owner); });
  }

  // A replacement machine: fresh DRAM, hosting reservations rebuilt.
  void ReplaceRank(int rank) {
    gemini::Machine& machine = cluster_.ReplaceMachine(rank);
    store(rank).ResetForMachine(machine);
    for (int owner = 0; owner < n_; ++owner) {
      const auto& holders = load_.placement.replica_sets[static_cast<size_t>(owner)];
      if (std::find(holders.begin(), holders.end(), rank) != holders.end()) {
        (void)store(rank).HostOwner(owner, replica_bytes());
      }
    }
  }

  void Recover(const gemini::RecoveryRecord& record) {
    std::vector<int> replaced;
    if (record.source == gemini::RecoverySource::kRemoteCpuMemory) {
      replaced = record.failed_ranks;
    }
    for (const int rank : replaced) {
      ReplaceRank(rank);
    }
    std::vector<Checkpoint> checkpoints;
    for (int rank = 0; rank < n_; ++rank) {
      std::optional<Checkpoint> checkpoint;
      if (std::find(replaced.begin(), replaced.end(), rank) == replaced.end()) {
        checkpoint = VerifiedRead(rank, rank);
        if (checkpoint.has_value()) {
          // The local restore path loads through the serialized form.
          const std::vector<uint8_t> bytes =
              Traced(spans_, "SerializeCheckpoint", "storage",
                     [&] { return gemini::SerializeCheckpoint(*checkpoint); });
          gemini::StatusOr<Checkpoint> loaded =
              Traced(spans_, "DeserializeCheckpoint", "storage",
                     [&] { return gemini::DeserializeCheckpoint(bytes); });
          checkpoint = loaded.ok() ? std::optional<Checkpoint>(*loaded) : std::nullopt;
        }
      } else {
        for (const int holder : load_.placement.replica_sets[static_cast<size_t>(rank)]) {
          if (holder != rank && !checkpoint.has_value()) {
            checkpoint = VerifiedRead(holder, rank);
          }
        }
      }
      if (!checkpoint.has_value()) {
        return;  // Before the first commit: the system fell back to the persistent tier.
      }
      checkpoints.push_back(std::move(*checkpoint));
    }
    checks_.Check(Traced(spans_, "ShardedTrainer::RestoreAll", "training",
                         [&] { return trainer_.RestoreAll(checkpoints); })
                      .ok(),
                  "replay: RestoreAll failed");
    // Recovery rewires store contents: the next block re-seals full bases.
    std::fill(bases_.begin(), bases_.end(), std::nullopt);
    std::fill(persistent_bases_.begin(), persistent_bases_.end(), std::nullopt);
    for (const int rank : replaced) {
      Reprotect(rank);
    }
  }

  // One background re-protection pass for a replaced rank, run to completion
  // on the replay's simulator.
  void Reprotect(int target) {
    std::vector<CpuCheckpointStore*> stores;
    for (const auto& store : stores_) {
      stores.push_back(store.get());
    }
    gemini::ReplicatorConfig replicator;
    replicator.num_buffers = config_.num_buffers;
    replicator.metrics = &metrics_;
    bool done = false;
    gemini::Status status;
    SpanRecorder::Scope scope(spans_, "ReprotectReplicas", "gemini");
    gemini::ReprotectReplicas(cluster_, load_.placement, std::move(stores), {target},
                              std::max<Bytes>(load_.chunk_bytes, 1), replicator,
                              [&](gemini::ReplicationOutcome outcome) {
                                done = true;
                                status = outcome.status;
                              });
    while (!done && sim_.Step()) {
    }
    checks_.Check(done && status.ok(), "replay: ReprotectReplicas failed: " + status.ToString());
  }

  // Delta build + commit at this workload's shard size and sparsity, on a
  // store of its own with a redo log.
  void ProbeDelta() {
    CpuCheckpointStore probe_store(cluster_.machine(0));
    probe_store.ConfigureRedoLog(gemini::RedoLogConfig{});
    (void)probe_store.HostOwner(0, replica_bytes());
    Checkpoint base = trainer_.MakeCheckpoint(0);
    (void)probe_store.WriteComplete(base);
    for (int i = 0; i < kMinProbes; ++i) {
      trainer_.Step();
      Checkpoint current = trainer_.MakeCheckpoint(0);
      gemini::StatusOr<gemini::DeltaCheckpoint> delta =
          Traced(spans_, "BuildDeltaCheckpoint", "storage",
                 [&] { return gemini::BuildDeltaCheckpoint(base, current, chunk_); });
      if (!checks_.Check(delta.ok(), "probe: BuildDeltaCheckpoint failed")) {
        return;
      }
      checks_.Check(Traced(spans_, "CpuCheckpointStore::WriteDelta", "storage",
                           [&] { return probe_store.WriteDelta(std::move(delta).value()); })
                        .ok(),
                    "probe: WriteDelta failed");
      base = std::move(current);
    }
  }

  // Crc32 and SerializeCheckpoint throughput over one shard-sized capture.
  void ProbeThroughput() {
    const Checkpoint capture = trainer_.MakeCheckpoint(0);
    const double payload_mb = static_cast<double>(capture.payload.size_bytes()) / 1e6;
    const auto rate = [&](const char* name, const char* layer, const std::function<void()>& fn) {
      int calls = 0;
      const Clock::time_point start = Clock::now();
      while (calls < kMinProbes || SecondsSince(start) < kProbeSeconds) {
        Traced(spans_, name, layer, fn);
        ++calls;
      }
      return payload_mb * calls / SecondsSince(start);
    };
    uint32_t sink = 0;
    crc32_mb_s_ = rate("Crc32", "common", [&] {
      sink ^= gemini::Crc32(capture.payload.data(), capture.payload.size_bytes());
    });
    serialize_mb_s_ = rate("SerializeCheckpoint", "storage", [&] {
      sink ^= static_cast<uint32_t>(gemini::SerializeCheckpoint(capture).size());
    });
    volatile uint32_t keep = sink;  // Keeps the probed calls observable.
    (void)keep;
  }

  const ReplayLoad& load_;
  const GeminiConfig& config_;
  const int n_;
  SpanRecorder& spans_;
  CheckLog& checks_;
  HostPacer& pacer_;
  gemini::MetricsRegistry metrics_;
  Simulator sim_;
  Cluster cluster_;
  gemini::ShardedTrainer trainer_;
  const size_t chunk_;
  std::vector<std::unique_ptr<CpuCheckpointStore>> stores_;
  std::vector<std::optional<Checkpoint>> bases_;
  std::vector<std::optional<Checkpoint>> persistent_bases_;
  std::vector<std::vector<uint8_t>> dirty_;
  int64_t next_recovery_ = 0;
  double crc32_mb_s_ = 0.0;
  double serialize_mb_s_ = 0.0;
};

// The system's trace-record load: one RunTracer span per record the run
// stored, fed through the flight-recorder sink as GeminiSystem wires it.
void ReplayTracer(const ReplayLoad& load, SpanRecorder& spans, HostPacer& pacer) {
  constexpr int64_t kRecordsPerSpan = 4096;
  Simulator sim;
  gemini::MetricsRegistry metrics;
  gemini::RunTracer tracer(sim);
  gemini::FlightRecorder recorder(
      gemini::FlightRecorderConfig{load.config.flight_recorder_capacity});
  tracer.set_metrics(&metrics);
  tracer.set_record_sink(
      [&recorder](const gemini::TraceRecord& record) { recorder.Record(record); });
  for (int64_t done = 0; done < load.tracer_records;) {
    SpanRecorder::Scope scope(spans, "RunTracer records", "obs");
    const int64_t end = std::min(done + kRecordsPerSpan, load.tracer_records);
    for (; done < end; ++done) {
      tracer.Span("iteration", "training", done, done + 1,
                  {gemini::TraceAttr::Int("iteration", done)});
    }
    pacer.Tick();
  }
}

double P50(const SpanRecorder& spans, const std::string& name, double scale) {
  std::vector<double> ms = SpanDurationsMs(spans.spans(), kReplayRun, name);
  if (ms.empty()) {
    ms = SpanDurationsMs(spans.spans(), kProbeRun, name);
  }
  return Median(ms) * scale;
}

double Count(const RunResult& run, const std::string& name) {
  const auto it = run.counts.find(name);
  return it != run.counts.end() ? it->second : 0.0;
}

}  // namespace

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "sim.self_s",
      "sim.events",
      "sim.host_ns_per_event",
      "kvstore.self_s",
      "kvstore.proposals",
      "kvstore.proposals_per_keepalive",
      "kvstore.commit_index",
      "kvstore.elections_won",
      "agent.self_s",
      "agent.keepalives",
      "agent.root_scans",
      "agent.publish_retries",
      "training.self_s",
      "training.step_ms.p50",
      "training.capture_ms.p50",
      "training.rollback_iterations",
      "common.crc32_mb_s",
      "storage.self_s",
      "storage.commit_us.p50",
      "storage.delta_build_ms.p50",
      "storage.delta_commit_us.p50",
      "storage.verified_read_us.p50",
      "storage.serialize_mb_s",
      "storage.delta_byte_ratio",
      "storage.compaction_folds",
      "storage.crc_failures",
      "gemini.reprotect_ms",
      "gemini.replicated_bytes",
      "gemini.replicator_retries",
      "gemini.recoveries.local_cpu",
      "gemini.recoveries.remote_cpu",
      "gemini.recoveries.persistent",
      "gemini.unattributed_s",
      "obs.self_s",
      "obs.tracer_records",
      "placement.build_ms",
      "training.profile_ms",
      "schedule.frequency_ms",
      "setup.split_ms",
  };
  return names;
}

SpanRecorder RunTraced(const Workload& workload, MetricSet& metrics, CheckLog& checks,
                       std::ostream& log) {
  SpanRecorder spans;
  // Host-speed kernel samples (see host_speed.h): those taken around and
  // during the system runs restate run_wall_s, those taken around and between
  // the replays' spans restate every replay timing.
  HostSpeed host;
  std::vector<double> system_slowdowns;
  std::vector<double> replay_slowdowns;
  size_t mark = 0;
  const auto begin_phase = [&] {
    mark = host.slowdowns().size();
    for (int i = 0; i < 3; ++i) {
      host.Sample();
    }
  };
  const auto end_phase = [&](std::vector<double>& into) {
    into.insert(into.end(), host.slowdowns().begin() + static_cast<std::ptrdiff_t>(mark),
                host.slowdowns().end());
  };

  // The run whose load the replays reproduce, checked like any other. A
  // second one after the replays must repeat it exactly; run_wall_s is the
  // mean of the two, so host-speed drift during the replays cancels.
  begin_phase();
  RunResult run = RunSystem(workload, /*probe=*/true, checks, &host);
  end_phase(system_slowdowns);
  if (run.system == nullptr || run.report.iterations_completed == 0) {
    return spans;
  }
  {
    const auto reference = ReferenceTrainer(workload.config, run.report.iterations_completed);
    checks.Check(ShardsMatch(*run.system, *reference),
                 "final shards differ from the failure-free reference trainer");
  }
  ReplayLoad load;
  load.config = run.system->config();
  load.placement = run.system->placement();
  load.sim_duration = run.system->sim().now();
  load.steps = static_cast<int64_t>(Count(run, "trainer.steps"));
  load.checkpoint_blocks = static_cast<int64_t>(Count(run, "system.cpu_checkpoint_commits"));
  load.persistent_checkpoints = static_cast<int64_t>(Count(run, "system.persistent_checkpoints"));
  load.tracer_records = static_cast<int64_t>(Count(run, "tracer.records"));
  load.chunk_bytes = run.system->iteration_execution().partition.max_chunk_bytes;
  load.recoveries = run.report.recoveries;
  double run_wall_s = run.run_wall_s;
  run.system.reset();
  log << "system run: " << run_wall_s << " s host, " << load.steps << " steps, "
      << load.recoveries.size() << " recoveries\n";

  begin_phase();
  HostPacer pacer(host);
  // Set-up functions (probe run id: they belong to setup_s, not run_wall_s).
  spans.set_run_id(kProbeRun);
  std::vector<double> placement_ms, profile_ms, frequency_ms, split_ms;
  for (int i = 0; i < kMinProbes; ++i) {
    const SetupSplit split = RunSetupSplit(load.config, &spans);
    placement_ms.push_back(split.placement_ms);
    profile_ms.push_back(split.profile_ms);
    frequency_ms.push_back(split.frequency_ms);
    split_ms.push_back(split.total_ms());
  }

  spans.set_run_id(kReplayRun);
  const ControlPlaneReplay control = ReplayControlPlanes(load, spans, pacer);
  pacer.Tick();
  const double sim_engine_s =
      ReplaySimEngine(control.agents_events, load.config.num_machines, spans);
  pacer.Tick();
  double crc32_mb_s = 0.0;
  double serialize_mb_s = 0.0;
  {
    DataPlaneReplay data(load, spans, checks, pacer);
    data.Run();
    data.ProbeUncalled();
    crc32_mb_s = data.crc32_mb_s();
    serialize_mb_s = data.serialize_mb_s();
  }
  ReplayTracer(load, spans, pacer);
  end_phase(replay_slowdowns);
  {
    begin_phase();
    RunResult again = RunSystem(workload, /*probe=*/true, checks, &host);
    end_phase(system_slowdowns);
    CheckSameOutcome(run, again, "second system run", checks);
    run_wall_s = (run_wall_s + again.run_wall_s) / 2.0;
  }
  const double system_slowdown = Median(system_slowdowns);
  const double replay_slowdown = Median(replay_slowdowns);
  const double run_wall_as_measured_s = run_wall_s;
  run_wall_s /= system_slowdown;
  const double sim_s = sim_engine_s / replay_slowdown;
  const double ns_per_event = control.agents_events > 0
                                  ? sim_s * 1e9 / static_cast<double>(control.agents_events)
                                  : 0.0;

  // Self times. The engine's per-event cost sits inside both control-plane
  // replays; it is charged to sim once, and the agents' share is what their
  // replay costs beyond the KV-alone replay.
  const std::map<std::string, double> self = LayerSelfSeconds(spans.spans(), kReplayRun);
  const auto self_s = [&](const char* layer) {
    const auto it = self.find(layer);
    return it != self.end() ? it->second / replay_slowdown : 0.0;
  };
  const auto p50 = [&](const std::string& name, double scale) {
    return P50(spans, name, scale) / replay_slowdown;
  };
  const double kvstore_s = control.kv_seconds / replay_slowdown -
                           ns_per_event * 1e-9 * static_cast<double>(control.kv_events);
  const double agent_s =
      (control.agents_seconds - control.kv_seconds) / replay_slowdown -
      ns_per_event * 1e-9 * static_cast<double>(control.agents_events - control.kv_events);
  const double layers_s = sim_s + kvstore_s + agent_s + self_s("training") + self_s("storage") +
                          self_s("common") + self_s("gemini") + self_s("obs");

  metrics.Set("run_wall_s", run_wall_s, "s");
  metrics.Set("run_wall_s.as_measured", run_wall_as_measured_s, "s");
  metrics.Set("host.slowdown.system", system_slowdown, "ratio");
  metrics.Set("host.slowdown.replay", replay_slowdown, "ratio");
  metrics.Set("sim.self_s", sim_s, "s");
  metrics.Set("sim.events", static_cast<double>(control.agents_events), "count");
  metrics.Set("sim.host_ns_per_event", ns_per_event, "ns");
  metrics.Set("kvstore.self_s", kvstore_s, "s");
  metrics.Set("kvstore.proposals", Count(run, "kv.proposals"), "count");
  metrics.Set("kvstore.proposals_per_keepalive",
              Count(run, "kv.proposals") / std::max(1.0, Count(run, "agent.keepalives")), "ratio");
  metrics.Set("kvstore.commit_index", Count(run, "kv.commit_index"), "count");
  metrics.Set("kvstore.elections_won", Count(run, "kv.elections_won"), "count");
  metrics.Set("agent.self_s", agent_s, "s");
  metrics.Set("agent.keepalives", Count(run, "agent.keepalives"), "count");
  metrics.Set("agent.root_scans", Count(run, "agent.root_scans"), "count");
  metrics.Set("agent.publish_retries", Count(run, "agent.publish_retries"), "count");
  metrics.Set("training.self_s", self_s("training"), "s");
  metrics.Set("training.step_ms.p50", p50("ShardedTrainer::Step", 1.0), "ms");
  metrics.Set("training.capture_ms.p50", p50("ShardedTrainer::MakeCheckpoint", 1.0), "ms");
  metrics.Set("training.rollback_iterations", Count(run, "trainer.rollback_iterations"), "count");
  metrics.Set("common.self_s", self_s("common"), "s");
  metrics.Set("common.crc32_mb_s", crc32_mb_s * replay_slowdown, "MB/s");
  metrics.Set("storage.self_s", self_s("storage"), "s");
  metrics.Set("storage.commit_us.p50", p50("CpuCheckpointStore::WriteComplete", 1e3), "us");
  metrics.Set("storage.delta_build_ms.p50", p50("BuildDeltaCheckpoint", 1.0), "ms");
  metrics.Set("storage.delta_commit_us.p50", p50("CpuCheckpointStore::WriteDelta", 1e3), "us");
  metrics.Set("storage.verified_read_us.p50", p50("LatestVerified", 1e3), "us");
  metrics.Set("storage.serialize_mb_s", serialize_mb_s * replay_slowdown, "MB/s");
  metrics.Set("storage.delta_byte_ratio", Count(run, "delta.byte_ratio"), "ratio");
  metrics.Set("storage.compaction_folds", Count(run, "compaction.folds"), "count");
  metrics.Set("storage.crc_failures", Count(run, "cpu_store.crc_failures"), "count");
  metrics.Set("gemini.self_s", self_s("gemini"), "s");
  metrics.Set("gemini.reprotect_ms", p50("ReprotectReplicas", 1.0), "ms");
  metrics.Set("gemini.replicated_bytes", Count(run, "replicator.bytes_replicated"), "bytes");
  metrics.Set("gemini.replicator_retries", Count(run, "replicator.retries"), "count");
  metrics.Set("gemini.recoveries.local_cpu", Count(run, "system.recoveries.local_cpu"), "count");
  metrics.Set("gemini.recoveries.remote_cpu", Count(run, "system.recoveries.remote_cpu"), "count");
  metrics.Set("gemini.recoveries.persistent", Count(run, "system.recoveries.persistent"), "count");
  metrics.Set("gemini.unattributed_s", run_wall_s - layers_s, "s");
  metrics.Set("obs.self_s", self_s("obs"), "s");
  metrics.Set("obs.tracer_records", Count(run, "tracer.records"), "count");
  metrics.Set("placement.build_ms", Median(placement_ms) / replay_slowdown, "ms");
  metrics.Set("training.profile_ms", Median(profile_ms) / replay_slowdown, "ms");
  metrics.Set("schedule.frequency_ms", Median(frequency_ms) / replay_slowdown, "ms");
  metrics.Set("setup.split_ms", Median(split_ms) / replay_slowdown, "ms");

  // Attribution shares of run_wall_s.
  const auto share = [&](std::initializer_list<double> parts) {
    double sum = 0.0;
    for (const double part : parts) {
      sum += part;
    }
    return run_wall_s > 0.0 ? 100.0 * sum / run_wall_s : 0.0;
  };
  metrics.Set("share.kvstore+agent+sim_pct", share({kvstore_s, agent_s, sim_s}), "%");
  metrics.Set("share.training+common+storage_pct",
              share({self_s("training"), self_s("common"), self_s("storage")}), "%");
  metrics.Set("share.kvstore+agent_pct", share({kvstore_s, agent_s}), "%");
  return spans;
}

}  // namespace perfbench
