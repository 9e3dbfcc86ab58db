// The untraced end-to-end run: repeated Create + TrainUntil of one workload
// for a wall-clock budget, with medians of the harness timings, the modeled
// metrics, and the correctness and determinism checks.
#ifndef PERFBENCH_END_TO_END_H_
#define PERFBENCH_END_TO_END_H_

#include <ostream>

#include "perfbench/report.h"
#include "perfbench/system_run.h"
#include "perfbench/workloads.h"

namespace perfbench {

// Runs the system repeatedly until `seconds` of host time have passed (at
// least twice: run 0 has the host-latency probe off, the others have it on),
// fills `metrics` with every end-to-end metric (harness, modeled, set-up
// split) and records each check in `checks`. `log` receives progress lines.
void RunEndToEnd(const Workload& workload, double seconds, MetricSet& metrics, CheckLog& checks,
                 std::ostream& log);

}  // namespace perfbench

#endif  // PERFBENCH_END_TO_END_H_
