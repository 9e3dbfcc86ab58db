// The set-up path GeminiSystem::Initialize runs before training, replayed
// call by call at a workload's size so its cost splits across modules.
#ifndef PERFBENCH_SETUP_SPLIT_H_
#define PERFBENCH_SETUP_SPLIT_H_

#include "perfbench/span_trace.h"
#include "src/gemini/gemini_system.h"

namespace perfbench {

struct SetupSplit {
  double placement_ms = 0.0;  // BuildMixedPlacement
  double timeline_ms = 0.0;   // BuildZero3Timeline
  double profile_ms = 0.0;    // ProfileIdleSpans
  double frequency_ms = 0.0;  // ChooseCheckpointFrequency
  double total_ms() const { return placement_ms + timeline_ms + profile_ms + frequency_ms; }
};

// Calls the four set-up functions with the parameters Initialize derives from
// `config`, each inside a span of its module when `spans` is non-null.
SetupSplit RunSetupSplit(const gemini::GeminiConfig& config, SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_SPLIT_H_
