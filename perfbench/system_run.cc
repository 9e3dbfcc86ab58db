#include "perfbench/system_run.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "src/baselines/system_model.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"

namespace perfbench {

using gemini::FailureType;
using gemini::GeminiSystem;
using gemini::TimeNs;
using Clock = std::chrono::steady_clock;

bool CheckLog::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
  return ok;
}

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// A no-op event every `period` of simulated time that reads the iteration
// counter: whenever it advanced, the host time since the previous advance is
// split evenly over the iterations completed in between. At most every
// kHostSampleSeconds it also samples the host-speed kernel, whose time is
// left out of the samples. It changes no system state, so the run's simulated
// behaviour is identical with or without it.
class HostProbe {
 public:
  static constexpr double kHostSampleSeconds = 0.25;

  HostProbe(GeminiSystem& system, TimeNs period, TimeNs until, HostSpeed* host,
            std::vector<double>& samples)
      : system_(system), period_(period), until_(until), host_(host), samples_(samples) {}

  void Start() {
    last_iteration_ = system_.current_iteration();
    last_host_ = Clock::now();
    last_host_sample_ = last_host_;
    Schedule();
  }

 private:
  void Schedule() {
    if (system_.sim().now() + period_ <= until_) {
      system_.sim().ScheduleAfter(period_, [this] { Tick(); });
    }
  }

  void Tick() {
    const int64_t iteration = system_.current_iteration();
    Clock::time_point now = Clock::now();
    if (iteration > last_iteration_) {
      const double ms =
          (std::chrono::duration<double, std::milli>(now - last_host_).count() - kernel_ms_) /
          static_cast<double>(iteration - last_iteration_);
      for (int64_t i = last_iteration_; i < iteration; ++i) {
        samples_.push_back(ms);
      }
      last_iteration_ = iteration;
      last_host_ = now;
      kernel_ms_ = 0.0;
    }
    if (host_ != nullptr &&
        std::chrono::duration<double>(now - last_host_sample_).count() >= kHostSampleSeconds) {
      const double before = host_->kernel_seconds();
      host_->Sample();
      kernel_ms_ += (host_->kernel_seconds() - before) * 1e3;
      last_host_sample_ = Clock::now();
    }
    Schedule();
  }

  GeminiSystem& system_;
  TimeNs period_;
  TimeNs until_;
  HostSpeed* host_;
  std::vector<double>& samples_;
  int64_t last_iteration_ = 0;
  Clock::time_point last_host_;
  Clock::time_point last_host_sample_;
  double kernel_ms_ = 0.0;  // Kernel time inside the current sample.
};

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double value : values) {
    sum += value;
  }
  return sum / static_cast<double>(values.size());
}

double Seconds(TimeNs t) { return static_cast<double>(t) / 1e9; }

// Pairs every injected failure with the recovery that handled it, checks
// that one resumed training, and fills the modeled metrics.
void RecordModeled(RunResult& result, CheckLog& checks) {
  GeminiSystem& system = *result.system;
  const gemini::TrainingReport& report = result.report;
  std::vector<double> detection;
  for (const InjectedFailure& failure : result.injected) {
    const gemini::RecoveryRecord* match = nullptr;
    for (const gemini::RecoveryRecord& record : report.recoveries) {
      const bool covers = std::find(record.failed_ranks.begin(), record.failed_ranks.end(),
                                    failure.rank) != record.failed_ranks.end();
      if (covers && record.training_resumed_at >= failure.at &&
          (match == nullptr || record.training_resumed_at < match->training_resumed_at)) {
        match = &record;
      }
    }
    if (!checks.Check(match != nullptr && match->training_resumed_at >= match->failure_detected_at,
                      "failure on rank " + std::to_string(failure.rank) + " at " +
                          gemini::FormatDuration(failure.at) +
                          " has no recovery record that resumed training")) {
      continue;
    }
    // A failure absorbed into a case already in flight has no detection of
    // its own.
    if (match->failure_detected_at >= failure.at) {
      detection.push_back(Seconds(match->failure_detected_at - failure.at));
    }
  }
  std::vector<double> downtime;
  std::vector<double> wasted;
  for (const gemini::RecoveryRecord& record : report.recoveries) {
    downtime.push_back(Seconds(record.downtime));
    wasted.push_back(Seconds(record.wasted_time));
  }
  const gemini::SystemSnapshot snapshot = system.Snapshot();
  auto& modeled = result.modeled;
  modeled["effective_training_ratio"] = report.effective_training_ratio();
  modeled["iteration_overhead_pct"] = snapshot.checkpoint_overhead_fraction * 100.0;
  modeled["detection_s.mean"] = Mean(detection);
  modeled["downtime_s.mean"] = Mean(downtime);
  modeled["wasted_s.mean"] = Mean(wasted);
  modeled["degraded_s"] = system.degraded_seconds();
  modeled["sim_s"] = Seconds(report.wall_time);
  modeled["iterations"] = static_cast<double>(report.iterations_completed);
  modeled["recoveries"] = static_cast<double>(report.recoveries.size());
  // Figure 15b's analytic model at the failure rate the run measured (the
  // same construction as examples/failure_storm.cpp).
  double analytic = 0.0;
  if (!report.recoveries.empty() && report.wall_time > 0) {
    const gemini::GeminiConfig& config = system.config();
    gemini::CheckpointWorkload model_workload;
    model_workload.iteration_time = report.iteration_time;
    model_workload.checkpoint_bytes_per_machine =
        config.model.CheckpointBytesPerMachine(config.num_machines);
    model_workload.num_machines = config.num_machines;
    const double failures_per_day = static_cast<double>(report.recoveries.size()) /
                                    (Seconds(report.wall_time) / (24.0 * 3600.0));
    analytic = gemini::BuildGemini(model_workload, 0, 0, /*standby=*/true)
                   .EffectiveTrainingRatio(failures_per_day);
  }
  modeled["baselines.analytic_etr"] = analytic;
}

void RecordCounts(RunResult& result) {
  GeminiSystem& system = *result.system;
  const gemini::MetricsRegistry& metrics = system.metrics();
  auto& counts = result.counts;
  for (const char* name :
       {"kv.proposals", "kv.elections_won", "agent.keepalives", "agent.root_scans",
        "agent.publish_retries", "trainer.steps", "trainer.rollback_iterations",
        "trainer.restores", "cpu_store.commits", "cpu_store.delta_commits",
        "cpu_store.crc_failures", "compaction.folds", "replicator.bytes_replicated",
        "replicator.retries", "replicator.reprotected_replicas", "system.reprotections",
        "system.recoveries.local_cpu", "system.recoveries.remote_cpu",
        "system.recoveries.persistent", "system.persistent_checkpoints",
        "system.cpu_checkpoint_commits", "persistent.saves", "persistent.delta_saves",
        "persistent.retrievals"}) {
    counts[name] = static_cast<double>(metrics.counter_value(name));
  }
  uint64_t commit_index = 0;
  for (int i = 0; i < system.kvstore().num_nodes(); ++i) {
    commit_index = std::max(commit_index, system.kvstore().node(i).commit_index());
  }
  counts["kv.commit_index"] = static_cast<double>(commit_index);
  counts["tracer.records"] = static_cast<double>(system.tracer().records().size());
  counts["delta.byte_ratio"] = system.incremental_delta_fraction();
}

}  // namespace

RunResult RunSystem(const Workload& workload, bool probe, CheckLog& checks, HostSpeed* host) {
  RunResult result;
  const Clock::time_point setup_start = Clock::now();
  gemini::StatusOr<std::unique_ptr<GeminiSystem>> created = GeminiSystem::Create(workload.config);
  result.setup_s = SecondsSince(setup_start);
  if (!checks.Check(created.ok(), "Create failed: " + created.status().ToString())) {
    return result;
  }
  result.system = std::move(created).value();
  GeminiSystem& system = *result.system;

  const TimeNs iteration_time = system.Snapshot().iteration_time;
  const int64_t target_iterations = TargetIterations(workload, iteration_time);
  // Generous safety bound: a healthy run needs far less simulated time.
  const TimeNs deadline = 4 * target_iterations * iteration_time +
                          std::max<TimeNs>(workload.horizon, 0) + gemini::Hours(2);

  // Failures are injected by the benchmark itself so it knows each injection
  // time (the injector's observer slot belongs to the system).
  auto victim_rng = std::make_shared<gemini::Rng>(workload.victim_seed);
  for (const PlannedFailure& planned : ResolveFailures(workload, iteration_time)) {
    system.sim().ScheduleAt(planned.at, [&system, &result, planned, victim_rng] {
      int rank = planned.rank;
      if (rank < 0) {
        const std::vector<int> alive = system.cluster().AliveRanks();
        if (alive.empty()) {
          return;
        }
        rank = alive[static_cast<size_t>(
            victim_rng->NextU64Below(static_cast<uint64_t>(alive.size())))];
      }
      result.injected.push_back(InjectedFailure{system.sim().now(), planned.type, rank});
      system.failure_injector().InjectAt(system.sim().now(), planned.type, {rank});
    });
  }

  std::unique_ptr<HostProbe> host_probe;
  if (probe) {
    host_probe = std::make_unique<HostProbe>(system, std::max<TimeNs>(iteration_time / 4, 1),
                                             deadline, host, result.host_ms_per_iter);
    host_probe->Start();
  }
  const double kernel_before = host != nullptr ? host->kernel_seconds() : 0.0;
  const Clock::time_point run_start = Clock::now();
  gemini::StatusOr<gemini::TrainingReport> report =
      system.TrainUntil(target_iterations, deadline);
  result.run_wall_s = SecondsSince(run_start) -
                      (host != nullptr ? host->kernel_seconds() - kernel_before : 0.0);
  if (!checks.Check(report.ok(), "TrainUntil failed: " + report.status().ToString())) {
    return result;
  }
  result.report = *report;
  checks.Check(result.report.iterations_completed == target_iterations,
               "run stopped at iteration " + std::to_string(result.report.iterations_completed) +
                   " of " + std::to_string(target_iterations));
  RecordModeled(result, checks);
  RecordCounts(result);
  for (int rank = 0; rank < system.trainer().num_machines(); ++rank) {
    const std::vector<float>& shard = system.trainer().shard(rank);
    result.shard_crcs.push_back(gemini::Crc32(shard.data(), shard.size() * sizeof(float)));
  }
  return result;
}

void CheckSameOutcome(const RunResult& first, const RunResult& run, const std::string& label,
                      CheckLog& checks) {
  const auto compare = [&](const std::map<std::string, double>& want,
                           const std::map<std::string, double>& got) {
    for (const auto& [name, value] : want) {
      const auto it = got.find(name);
      checks.Check(it != got.end() && it->second == value,
                   label + ": " + name + " differs from the first run of this seed");
    }
  };
  compare(first.modeled, run.modeled);
  compare(first.counts, run.counts);
  checks.Check(run.shard_crcs == first.shard_crcs,
               label + ": final shards differ from the first run of this seed");
}

std::unique_ptr<gemini::ShardedTrainer> ReferenceTrainer(const gemini::GeminiConfig& config,
                                                         int64_t iteration) {
  auto trainer = std::make_unique<gemini::ShardedTrainer>(config.model, config.num_machines,
                                                          config.payload_elements, config.seed);
  if (config.incremental.sparse_update_fraction < 1.0) {
    trainer->SetSparseUpdates(config.incremental.sparse_update_fraction,
                              static_cast<size_t>(config.incremental.chunk_elements));
  }
  while (trainer->iteration() < iteration) {
    trainer->Step();
  }
  return trainer;
}

bool ShardsMatch(GeminiSystem& system, const gemini::ShardedTrainer& reference) {
  if (system.trainer().iteration() != reference.iteration() ||
      system.trainer().num_machines() != reference.num_machines()) {
    return false;
  }
  for (int rank = 0; rank < reference.num_machines(); ++rank) {
    const std::vector<float>& got = system.trainer().shard(rank);
    const std::vector<float>& want = reference.shard(rank);
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

}  // namespace perfbench
