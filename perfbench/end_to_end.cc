#include "perfbench/end_to_end.h"

#include <chrono>
#include <cstdio>

#include "perfbench/host_speed.h"
#include "perfbench/setup_split.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinRuns = 2;
constexpr int kMaxRuns = 64;
// Create-only repetitions after each system run, so setup_s is a median of
// many set-ups even when a run holds only a few trainings: at least
// kMinExtraSetups, then more until they took kExtraSetupSeconds.
constexpr int kMinExtraSetups = 2;
constexpr int kMaxExtraSetups = 400;
constexpr double kExtraSetupSeconds = 0.3;

const char* const kModeledUnits[][2] = {
    {"effective_training_ratio", "ratio"}, {"iteration_overhead_pct", "%"},
    {"detection_s.mean", "s"},             {"downtime_s.mean", "s"},
    {"wasted_s.mean", "s"},                {"degraded_s", "s"},
    {"baselines.analytic_etr", "ratio"},   {"sim_s", "s"},
    {"iterations", "count"},               {"recoveries", "count"},
};

}  // namespace

void RunEndToEnd(const Workload& workload, double seconds, MetricSet& metrics, CheckLog& checks,
                 std::ostream& log) {
  // Timings as measured; they are restated at nominal host speed at the end
  // (see host_speed.h), with the host-speed kernel sampled before every run,
  // during every probed run and after every batch of extra set-ups.
  std::vector<double> setup_s;
  std::vector<double> split_s;
  std::vector<double> run_wall_s;
  std::vector<double> host_ms;
  HostSpeed host;
  const auto sample_host = [&host] {
    for (int i = 0; i < 3; ++i) {
      host.Sample();
    }
  };
  RunResult first;
  bool have_first = false;
  const Clock::time_point start = Clock::now();
  int runs = 0;
  for (; runs < kMaxRuns; ++runs) {
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (runs >= kMinRuns && elapsed >= seconds) {
      break;
    }
    const bool probe = runs > 0;
    sample_host();
    RunResult run = RunSystem(workload, probe, checks, &host);
    if (run.system == nullptr || run.report.iterations_completed == 0) {
      break;  // The failed check is already recorded.
    }
    char line[200];
    std::snprintf(line, sizeof(line),
                  "run %d (probe %s): setup %.3f s, train %.3f s, %lld iterations, "
                  "%zu recoveries\n",
                  runs, probe ? "on" : "off", run.setup_s, run.run_wall_s,
                  static_cast<long long>(run.report.iterations_completed),
                  run.report.recoveries.size());
    log << line;
    if (!have_first) {
      const auto reference =
          ReferenceTrainer(workload.config, run.report.iterations_completed);
      checks.Check(ShardsMatch(*run.system, *reference),
                   "final shards differ from the failure-free reference trainer");
    } else {
      CheckSameOutcome(first, run, "run " + std::to_string(runs) + " (probe on)", checks);
    }
    setup_s.push_back(run.setup_s);
    run_wall_s.push_back(run.run_wall_s);
    host_ms.insert(host_ms.end(), run.host_ms_per_iter.begin(), run.host_ms_per_iter.end());
    run.system.reset();
    double extra_s = 0.0;
    for (int i = 0; i < kMaxExtraSetups && (i < kMinExtraSetups || extra_s < kExtraSetupSeconds);
         ++i) {
      const Clock::time_point setup_start = Clock::now();
      const bool created = gemini::GeminiSystem::Create(workload.config).ok();
      setup_s.push_back(std::chrono::duration<double>(Clock::now() - setup_start).count());
      extra_s += setup_s.back();
      checks.Check(created, "repeated Create failed");
    }
    sample_host();
    split_s.push_back(RunSetupSplit(workload.config, nullptr).total_ms() / 1e3);
    if (!have_first) {
      first = std::move(run);
      have_first = true;
    }
  }

  const double slowdown = Median(host.slowdowns());
  metrics.Set("setup_s", Median(setup_s) / slowdown, "s");
  metrics.Set("setup.split_s", Median(split_s) / slowdown, "s");
  metrics.Set("run_wall_s", Median(run_wall_s) / slowdown, "s");
  metrics.Set("host_ms_per_iter.p50", Quantile(host_ms, 0.5) / slowdown, "ms");
  metrics.Set("host_ms_per_iter.p90", Quantile(host_ms, 0.9) / slowdown, "ms");
  metrics.Set("host_ms_per_iter.samples", static_cast<double>(host_ms.size()), "count");
  metrics.Set("peak_rss_mb", PeakRssMb(), "MiB");
  metrics.Set("host.slowdown", slowdown, "ratio");
  metrics.Set("host.samples", static_cast<double>(host.slowdowns().size()), "count");
  metrics.Set("setup_s.as_measured", Median(setup_s), "s");
  metrics.Set("run_wall_s.as_measured", Median(run_wall_s), "s");
  metrics.Set("host_ms_per_iter.p50.as_measured", Quantile(host_ms, 0.5), "ms");
  metrics.Set("host_ms_per_iter.p90.as_measured", Quantile(host_ms, 0.9), "ms");
  metrics.Set("runs", static_cast<double>(runs), "count");
  for (const auto& [name, unit] : kModeledUnits) {
    const auto it = first.modeled.find(name);
    metrics.Set(name, it != first.modeled.end() ? it->second : 0.0, unit);
  }
}

}  // namespace perfbench
