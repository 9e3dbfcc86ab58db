#include "perfbench/setup_split.h"

#include <chrono>
#include <optional>

#include "src/common/rng.h"
#include "src/placement/placement.h"
#include "src/schedule/executor.h"
#include "src/training/profiler.h"
#include "src/training/timeline.h"

namespace perfbench {

namespace {

// Times `fn`, inside a span of `layer` when `spans` is non-null.
template <typename Fn>
double TimedMs(SpanRecorder* spans, const char* name, const char* layer, Fn&& fn) {
  std::optional<SpanRecorder::Scope> scope;
  if (spans != nullptr) {
    scope.emplace(*spans, name, layer);
  }
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

SetupSplit RunSetupSplit(const gemini::GeminiConfig& config, SpanRecorder* spans) {
  // Mirrors GeminiSystem::Initialize: same parameters, same seeds.
  gemini::InstanceSpec instance = config.instance;
  if (instance.name.empty()) {
    instance = gemini::P4d24xlarge();
  }
  SetupSplit split;
  split.placement_ms = TimedMs(spans, "BuildMixedPlacement", "placement", [&] {
    (void)gemini::BuildMixedPlacement(config.num_machines, config.num_replicas);
  });
  gemini::TimelineParams timeline_params;
  timeline_params.model = config.model;
  timeline_params.instance = instance;
  timeline_params.num_machines = config.num_machines;
  gemini::IterationTimeline timeline;
  split.timeline_ms = TimedMs(spans, "BuildZero3Timeline", "training",
                              [&] { timeline = gemini::BuildZero3Timeline(timeline_params); });
  gemini::ProfilerConfig profiler_config;
  profiler_config.iterations = config.profile_iterations;
  gemini::Rng profile_rng(config.seed ^ 0x70726fULL);
  gemini::ProfileResult profile;
  split.profile_ms = TimedMs(spans, "ProfileIdleSpans", "training", [&] {
    profile = gemini::ProfileIdleSpans(timeline, profiler_config, profile_rng);
  });
  gemini::ExecutorParams params;
  params.timeline = timeline_params;
  params.scheme = gemini::InterleaveScheme::kPipelined;
  params.num_replicas = config.num_replicas;
  params.reserved_buffer_per_gpu = config.reserved_buffer_per_gpu;
  params.num_buffers = config.num_buffers;
  params.gamma = config.gamma;
  params.profiled_spans = profile.spans;
  split.frequency_ms = TimedMs(spans, "ChooseCheckpointFrequency", "schedule",
                               [&] { (void)gemini::ChooseCheckpointFrequency(params); });
  return split;
}

}  // namespace perfbench
