// The traced run: a system run for the per-layer counts, a replay of each
// layer's load through its public entry points, at the workload's size and
// simulated duration, with every call inside a span, and a second system run
// that must repeat the first.
//
// Replays (run id 1 counts towards the layers' self times):
//   * the simulator alone, firing as many no-op events as the control-plane
//     replay fired (sim);
//   * KvStoreCluster with raw lease clients doing the agents' KV calls
//     (kvstore);
//   * KvStoreCluster plus WorkerAgents and a RootAgent on a bare Cluster; the
//     agents' share is this replay minus the KV-alone replay (agent);
//   * ShardedTrainer::Step / MakeCheckpoint (training), CpuCheckpointStore
//     writes and verified reads, BuildDeltaCheckpoint, SerializeCheckpoint
//     (storage), Crc32 (common), ReprotectReplicas (gemini) and RunTracer
//     records (obs), in the counts the system run made.
// Run id 2 holds the set-up functions (placement, training, schedule), which
// belong to setup_s rather than run_wall_s, and unit-cost probes of entry
// points a workload does not call itself; they give per-call costs and never
// count towards self times.
// Like the end-to-end timings, every timing is restated at nominal host speed
// (see host_speed.h): the system runs by the kernel samples taken around and
// during them, the replays by those taken around and between their spans.
#ifndef PERFBENCH_TRACED_RUN_H_
#define PERFBENCH_TRACED_RUN_H_

#include <ostream>
#include <string>
#include <vector>

#include "perfbench/report.h"
#include "perfbench/span_trace.h"
#include "perfbench/system_run.h"
#include "perfbench/workloads.h"

namespace perfbench {

inline constexpr int kReplayRun = 1;
inline constexpr int kProbeRun = 2;

// The per-layer metrics BENCHMARK.json registers, in its order.
const std::vector<std::string>& PerLayerMetricNames();

// Returns every span the replays recorded.
SpanRecorder RunTraced(const Workload& workload, MetricSet& metrics, CheckLog& checks,
                       std::ostream& log);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_RUN_H_
