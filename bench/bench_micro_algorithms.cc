// Micro-benchmarks (google-benchmark) of the core algorithms: Algorithm 1
// placement construction, recovery-probability evaluation, Algorithm 2
// partitioning, the timeline generator (which prices its collectives with
// the ring cost model), checkpoint serialization, the event queue (distinct
// timestamps, and the control plane's timer storm), the KV store's liveness
// work per heartbeat (lease expiry check and the root's health scan), the
// whole control plane of agents on the store, the delta write path (building a delta, replaying a redo log), and the trainer
// stepping between captures.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/agent/root_agent.h"
#include "src/agent/worker_agent.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fabric.h"
#include "src/common/rng.h"
#include "src/kvstore/kv_store.h"
#include "src/placement/placement.h"
#include "src/placement/probability.h"
#include "src/schedule/executor.h"
#include "src/schedule/partition.h"
#include "src/sim/simulator.h"
#include "src/sim/timer.h"
#include "src/storage/delta.h"
#include "src/storage/serializer.h"
#include "src/training/model_config.h"
#include "src/training/timeline.h"
#include "src/training/trainer.h"

namespace gemini {
namespace {

void BM_BuildMixedPlacement(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto plan = BuildMixedPlacement(machines, 2);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_BuildMixedPlacement)->Arg(16)->Arg(128)->Arg(1024);

void BM_Corollary1(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Corollary1LowerBound(static_cast<int>(state.range(0)), 2, 3));
  }
}
BENCHMARK(BM_Corollary1)->Arg(16)->Arg(1024);

void BM_ExactRecoveryProbability(benchmark::State& state) {
  const auto plan = BuildMixedPlacement(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactRecoveryProbability(*plan, 3));
  }
}
BENCHMARK(BM_ExactRecoveryProbability)->Arg(16)->Arg(32)->Arg(64);

void BM_MonteCarloRecoveryProbability(benchmark::State& state) {
  const auto plan = BuildMixedPlacement(256, 2);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MonteCarloRecoveryProbability(*plan, 3, 1000, rng));
  }
}
BENCHMARK(BM_MonteCarloRecoveryProbability);

void BM_BuildZero3Timeline(benchmark::State& state) {
  TimelineParams params;
  params.model = Gpt2_100B();
  params.instance = P4d24xlarge();
  params.num_machines = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildZero3Timeline(params));
  }
}
BENCHMARK(BM_BuildZero3Timeline);

void BM_PartitionCheckpoint(benchmark::State& state) {
  TimelineParams timeline_params;
  timeline_params.model = Gpt2_100B();
  timeline_params.instance = P4d24xlarge();
  timeline_params.num_machines = 16;
  const IterationTimeline timeline = BuildZero3Timeline(timeline_params);
  PartitionParams params;
  params.idle_spans = timeline.idle_spans;
  params.checkpoint_bytes = Gpt2_100B().CheckpointBytesPerMachine(16);
  params.num_remote_replicas = 1;
  params.reserved_buffer = MiB(128) * 8;
  params.num_buffers = static_cast<int>(state.range(0));
  params.bandwidth = P4d24xlarge().network_bandwidth;
  params.alpha = Micros(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionCheckpoint(params));
  }
}
BENCHMARK(BM_PartitionCheckpoint)->Arg(1)->Arg(4)->Arg(16);

void BM_ExecuteIteration(benchmark::State& state) {
  ExecutorParams params;
  params.timeline.model = Gpt2_100B();
  params.timeline.instance = P4d24xlarge();
  params.timeline.num_machines = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecuteIterationWithCheckpoint(params));
  }
}
BENCHMARK(BM_ExecuteIteration);

void BM_SerializeCheckpoint(benchmark::State& state) {
  Checkpoint checkpoint;
  checkpoint.owner_rank = 0;
  checkpoint.iteration = 1;
  checkpoint.logical_bytes = GiB(75);
  checkpoint.payload = std::vector<float>(static_cast<size_t>(state.range(0)), 1.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeCheckpoint(checkpoint));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(checkpoint.payload.size() * sizeof(float)));
}
BENCHMARK(BM_SerializeCheckpoint)->Arg(1024)->Arg(262144);

void BM_DeserializeCheckpoint(benchmark::State& state) {
  Checkpoint checkpoint;
  checkpoint.owner_rank = 0;
  checkpoint.iteration = 1;
  checkpoint.logical_bytes = GiB(75);
  checkpoint.payload = std::vector<float>(262144, 1.5f);
  const std::vector<uint8_t> blob = SerializeCheckpoint(checkpoint);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeserializeCheckpoint(blob));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(blob.size()));
}
BENCHMARK(BM_DeserializeCheckpoint);

// The incremental write path's shape: a 64-chunk shard of 1024-float chunks
// in which each iteration rewrites 16 chunks.
constexpr size_t kDeltaChunkElements = 1024;
constexpr size_t kDeltaChunks = 64;
constexpr size_t kDirtyChunksPerLink = 16;

Checkpoint DeltaBenchCheckpoint(int64_t iteration, std::vector<float> values) {
  Checkpoint checkpoint;
  checkpoint.owner_rank = 0;
  checkpoint.iteration = iteration;
  checkpoint.logical_bytes = GiB(1);
  checkpoint.payload = std::move(values);
  checkpoint.StampPayloadCrc();
  return checkpoint;
}

// `base` one iteration on, with kDirtyChunksPerLink random chunks rewritten.
Checkpoint NextDeltaBenchState(const Checkpoint& base, Rng& rng) {
  std::vector<float> values = base.payload.ToVector();
  for (const int chunk : rng.SampleWithoutReplacement(static_cast<int>(kDeltaChunks),
                                                      static_cast<int>(kDirtyChunksPerLink))) {
    for (size_t i = 0; i < kDeltaChunkElements; ++i) {
      values[static_cast<size_t>(chunk) * kDeltaChunkElements + i] += 1.0f;
    }
  }
  return DeltaBenchCheckpoint(base.iteration + 1, std::move(values));
}

// One link's build, with every chunk dirty-hinted: the 48 clean ones are
// deduplicated by content, the 16 changed ones are checksummed and shipped.
void BM_BuildDeltaCheckpoint(benchmark::State& state) {
  Rng rng(11);
  const Checkpoint base =
      DeltaBenchCheckpoint(0, std::vector<float>(kDeltaChunks * kDeltaChunkElements, 0.5f));
  const Checkpoint current = NextDeltaBenchState(base, rng);
  const std::vector<uint8_t> hint(kDeltaChunks, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildDeltaCheckpoint(base, current, kDeltaChunkElements, &hint));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(current.payload.size_bytes()));
}
BENCHMARK(BM_BuildDeltaCheckpoint);

// Replays an 8-link chain, the read path's (and compaction's) fold.
void BM_RedoLogMaterialize(benchmark::State& state) {
  Rng rng(12);
  Checkpoint head =
      DeltaBenchCheckpoint(0, std::vector<float>(kDeltaChunks * kDeltaChunkElements, 0.5f));
  RedoLog log(RedoLogConfig{/*max_chain_length=*/8, /*max_chain_bytes=*/0});
  log.Reset(head);
  for (int link = 0; link < 8; ++link) {
    const Checkpoint next = NextDeltaBenchState(head, rng);
    if (!log.Append(*BuildDeltaCheckpoint(head, next, kDeltaChunkElements)).ok()) {
      state.SkipWithError("chain append failed");
      return;
    }
    head = next;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Materialize());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(head.payload.size_bytes()));
}
BENCHMARK(BM_RedoLogMaterialize);

// The trainer alone: 64 ranks of 65,536 floats (256 KiB), every rank
// captured (and the capture dropped) after every `steps per capture` steps.
// Arguments: percent of chunks a step touches (100 = dense; else 1,024-float
// chunks), steps per capture. `s_per_step` is the host time per step.
void BM_TrainerStepsPerCapture(benchmark::State& state) {
  constexpr int kRanks = 64;
  const int64_t touched_percent = state.range(0);
  const int64_t steps_per_capture = state.range(1);
  ShardedTrainer trainer(Gpt2_10B(), kRanks, 65536, /*seed=*/3);
  if (touched_percent < 100) {
    trainer.SetSparseUpdates(static_cast<double>(touched_percent) / 100.0, 1024);
  }
  for (auto _ : state) {
    for (int64_t step = 0; step < steps_per_capture; ++step) {
      trainer.Step();
    }
    for (int rank = 0; rank < kRanks; ++rank) {
      benchmark::DoNotOptimize(trainer.MakeCheckpoint(rank).payload_crc);
    }
  }
  state.counters["s_per_step"] =
      benchmark::Counter(static_cast<double>(state.iterations() * steps_per_capture),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TrainerStepsPerCapture)
    ->ArgsProduct({{100, 25}, {1, 4, 16}})
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < events; ++i) {
      sim.ScheduleAt(i, [] {});
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * events);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(100000);

// An engine stress shape: N same-period timers that all fire at one instant,
// plus a timer cancelled and re-armed at a random deadline on every period,
// as a Raft follower's election timer is on each heartbeat it receives. Each
// benchmark iteration simulates one period. (Neither shape runs in the
// system's steady state any more: keepalives renew by rule and an idle KV
// store runs no heartbeat rounds; BM_KvControlPlaneAgents measures the
// control plane as it now runs.)
void BM_SimulatorTimerStorm(benchmark::State& state) {
  const int timers = static_cast<int>(state.range(0));
  const TimeNs period = Millis(100);
  Simulator sim;
  int64_t events = 0;
  std::vector<std::unique_ptr<RepeatingTimer>> agents;
  for (int i = 0; i < timers; ++i) {
    agents.push_back(std::make_unique<RepeatingTimer>(sim, period, [&events] { ++events; }));
    agents.back()->Start();
  }
  Rng rng(static_cast<uint64_t>(timers));
  EventId election{};
  std::function<void()> reset_election = [&] {
    ++events;
    sim.Cancel(election);
    election = sim.ScheduleAfter(rng.UniformInt(period / 2, 2 * period),
                                 [&reset_election] { reset_election(); });
  };
  RepeatingTimer heartbeat(sim, period, [&reset_election] { reset_election(); });
  heartbeat.Start();
  sim.RunUntil(10 * period);

  events = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunUntil(sim.now() + period));
  }
  state.counters["events_per_s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorTimerStorm)->Arg(256)->Arg(1024);

// The KV store's liveness work with N machines' health keys, each under its
// own lease: each benchmark iteration runs a 3-node store for one heartbeat
// period, then reads every health key in place, as the root agent's scan
// does. The log is idle and no lease is due within a day, so the store is
// quiet: the period runs no heartbeat round, and what is timed is the scan.
void BM_KvControlPlane(benchmark::State& state) {
  const int keys = static_cast<int>(state.range(0));
  Simulator sim;
  Fabric fabric(sim, 3, FabricConfig{});
  const KvStoreConfig config;
  KvStoreCluster kv(sim, fabric, {0, 1, 2}, [](int) { return true; }, config, /*seed=*/13);
  kv.Start();
  sim.RunUntil(Seconds(2));
  for (int rank = 0; rank < keys; ++rank) {
    kv.LeaseGrant(Hours(24), [&kv, rank](StatusOr<LeaseId> lease) {
      if (lease.ok()) {
        kv.Put(kHealthKeyPrefix + std::to_string(rank), kStatusHealthy, *lease, [](Status) {});
      }
    });
  }
  sim.RunUntil(sim.now() + Seconds(1));
  if (kv.List(kHealthKeyPrefix).size() != static_cast<size_t>(keys)) {
    state.SkipWithError("health keys did not commit");
    return;
  }
  for (auto _ : state) {
    sim.RunUntil(sim.now() + config.heartbeat_interval);
    int healthy = 0;
    kv.VisitPrefix(kHealthKeyPrefix, [&healthy](const std::string&, const KvEntry& entry) {
      healthy += entry.value == kStatusHealthy ? 1 : 0;
    });
    benchmark::DoNotOptimize(healthy);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * keys);
}
BENCHMARK(BM_KvControlPlane)->Arg(256)->Arg(1024);

// The control plane as the system runs it: N WorkerAgents, and the RootAgent
// the first promoted worker starts, on a 3-node store. Each benchmark
// iteration simulates one minute of steady state: health leases renew by
// rule and the idle store runs no heartbeat rounds, so what is left is root
// scans.
// Reports simulated events and host ns per simulated second.
void BM_KvControlPlaneAgents(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  Simulator sim;
  Cluster cluster(sim, machines, P4d24xlarge(), FabricConfig{});
  KvStoreCluster kv(
      sim, cluster.fabric(), {0, 1, 2},
      [&cluster](int rank) { return cluster.machine(rank).alive(); }, KvStoreConfig{},
      /*seed=*/13);
  kv.Start();
  const AgentConfig config;
  std::unique_ptr<RootAgent> root;
  std::vector<std::unique_ptr<WorkerAgent>> workers;
  for (int rank = 0; rank < machines; ++rank) {
    workers.push_back(std::make_unique<WorkerAgent>(sim, cluster, kv, rank, config));
    workers.back()->set_on_promoted_to_root([&, rank] {
      root = std::make_unique<RootAgent>(sim, cluster, kv, rank, config,
                                         [](const FailureReport&) {});
      root->Start();
    });
    workers.back()->Start();
  }
  sim.RunUntil(Minutes(1));
  if (root == nullptr || kv.List(kHealthKeyPrefix).size() != static_cast<size_t>(machines)) {
    state.SkipWithError("control plane did not settle");
    return;
  }
  const TimeNs span = Minutes(1);
  int64_t events = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    events += sim.RunUntil(sim.now() + span);
  }
  const double host_ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start).count();
  const double sim_seconds = ToSeconds(span) * static_cast<double>(state.iterations());
  state.counters["events_per_sim_s"] = static_cast<double>(events) / sim_seconds;
  state.counters["host_ns_per_sim_s"] = host_ns / sim_seconds;
}
BENCHMARK(BM_KvControlPlaneAgents)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace gemini

BENCHMARK_MAIN();
