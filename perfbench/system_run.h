// One end-to-end run of a workload: GeminiSystem::Create, the failure
// schedule, an optional host-latency probe, one TrainUntil, and the
// correctness checks on what the run produced.
#ifndef PERFBENCH_SYSTEM_RUN_H_
#define PERFBENCH_SYSTEM_RUN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/host_speed.h"
#include "perfbench/workloads.h"
#include "src/gemini/gemini_system.h"
#include "src/training/trainer.h"

namespace perfbench {

struct InjectedFailure {
  gemini::TimeNs at = 0;
  gemini::FailureType type = gemini::FailureType::kSoftware;
  int rank = -1;
};

// Tallies checks: each Check() is one attempted operation, a false one a
// failed operation (with its message kept for the report).
class CheckLog {
 public:
  bool Check(bool ok, const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct RunResult {
  std::unique_ptr<gemini::GeminiSystem> system;  // Kept alive for inspection.
  double setup_s = 0.0;
  double run_wall_s = 0.0;
  // Host milliseconds per simulated iteration, one sample per completed
  // iteration the probe observed (empty when the probe was off).
  std::vector<double> host_ms_per_iter;
  gemini::TrainingReport report;
  std::vector<InjectedFailure> injected;
  // Modeled metrics and per-layer counts, all of which must repeat exactly
  // for a given seed (the determinism check compares these maps).
  std::map<std::string, double> modeled;
  std::map<std::string, double> counts;
  std::vector<uint32_t> shard_crcs;
};

// Runs `workload` once. Check failures (a failed Create or TrainUntil, an
// undetected or unrecovered failure) are recorded in `checks`. With the
// probe on and `host` non-null, the host-speed kernel is sampled during the
// run and its time is left out of run_wall_s and the per-iteration samples.
RunResult RunSystem(const Workload& workload, bool probe, CheckLog& checks,
                    HostSpeed* host = nullptr);

// Compares the modeled metrics, per-layer counts and final shard CRCs of
// `run` with those of `first`; every difference is a failed check.
void CheckSameOutcome(const RunResult& first, const RunResult& run, const std::string& label,
                      CheckLog& checks);

// The failure-free reference: a trainer with the run's shape and sparse
// setting stepped to `iteration`.
std::unique_ptr<gemini::ShardedTrainer> ReferenceTrainer(const gemini::GeminiConfig& config,
                                                         int64_t iteration);

// Compares the run's final shards with the reference, bit for bit.
bool ShardsMatch(gemini::GeminiSystem& system, const gemini::ShardedTrainer& reference);

// Process peak resident set size in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_RUN_H_
