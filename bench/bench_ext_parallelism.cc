// Extension (paper Section 9 future work): GEMINI's checkpoint scheduling
// applied to other parallelism strategies and to the Trainium accelerator.
// For each strategy, Algorithm 2 partitions the checkpoint into that
// strategy's own idle-span structure; the claim carried over from the paper
// is that per-iteration checkpointing stays free wherever the network has
// idle capacity — which all three strategies have, for different reasons
// (ZeRO-3: backward compute gaps; data parallel: the silent forward pass;
// pipeline parallel: tiny activation hops and the pipeline bubble).
#include <iostream>

#include "bench/bench_util.h"
#include "src/training/parallelism.h"

using namespace gemini;

int main() {
  bench::BenchReporter reporter(
      "ext_parallelism", "Extension: checkpoint scheduling across parallelism strategies",
      "paper Section 9 (future work): pipeline/data parallelism and Trainium");

  // GPT-2 20B fits a single machine's accelerators, so all three strategies
  // are feasible on the same workload.
  const ModelConfig model = Gpt2_20B();

  TablePrinter table({"Strategy", "Instance", "Iter (s)", "Idle (s)", "Ckpt (s)",
                      "Iter w/ GEMINI (s)", "Overhead", "Fits"});
  bool pass = true;
  for (const auto& [strategy, instance] : std::vector<std::pair<ParallelismStrategy,
                                                                InstanceSpec>>{
           {ParallelismStrategy::kZero3, P4d24xlarge()},
           {ParallelismStrategy::kDataParallel, P4d24xlarge()},
           {ParallelismStrategy::kPipelineParallel, P4d24xlarge()},
           {ParallelismStrategy::kZero3, Trn1_32xlarge()},
       }) {
    TimelineParams timeline = bench::P4dTimeline(model);
    timeline.instance = instance;
    ExecutorParams params = bench::GeminiExecutor(timeline);
    params.strategy = strategy;
    const ExecutionResult result = ExecuteIterationWithCheckpoint(params);
    if (!result.status.ok()) {
      std::cerr << ParallelismStrategyName(strategy) << ": " << result.status << "\n";
      return 1;
    }
    const std::string key = std::string(ParallelismStrategyName(strategy)) + "." +
                            bench::BenchReporter::MetricKey(instance.name);
    const TimeNs idle = BuildTimelineFor(strategy, timeline).TotalIdle();
    bench::ReportExecution(reporter, key, result);
    reporter.Metric(key + ".idle_ns", idle);
    table.AddRow({std::string(ParallelismStrategyName(strategy)), instance.name,
                  TablePrinter::Fmt(ToSeconds(result.baseline_iteration_time)),
                  TablePrinter::Fmt(ToSeconds(idle)),
                  TablePrinter::Fmt(ToSeconds(result.partition.planned_transmission_time)),
                  TablePrinter::Fmt(ToSeconds(result.iteration_time)),
                  TablePrinter::Fmt(result.overhead_fraction * 100.0) + " %",
                  result.partition.fits_within_idle_time ? "yes" : "no"});
    pass &= result.overhead_fraction < 0.01 && result.partition.fits_within_idle_time;
  }
  reporter.Table(table);

  std::cout << "\nTrainium caveat: trn1.32xlarge has a 1:1 CPU:accelerator memory ratio\n"
               "(512 GB each), so hosting 2x double-buffered replicas bounds the\n"
               "checkpointable model at ~21 GB/machine vs ~288 GB on p4d.24xlarge.\n";

  reporter.ShapeCheck(pass,
                      "Algorithm 2 schedules the checkpoint into each strategy's idle\n"
                      "structure with zero iteration-time overhead, supporting the paper's\n"
                      "claim that the design generalizes beyond ZeRO-3.");
  return reporter.Finish();
}
