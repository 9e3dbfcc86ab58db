// Iteration execution with interleaved checkpoint traffic.
//
// Runs the iteration walk of the configured parallelism strategy
// (parallelism.h; ZeRO-3 by default) on a representative machine while
// checkpoint chunks contend for the same NIC (FIFO, like the Fabric model)
// and for GPU->CPU copy sub-buffers. Before each training collective queues,
// the chunks whose request time has come take the NIC first; a delayed
// collective delays the walk's computation downstream of it. This is where
// the paper's Figure 5/16 phenomena come from:
//   * Blocking: the whole checkpoint transmits at iteration start and delays
//     every training collective behind it;
//   * Naive interleave: one huge chunk per idle span needs a GPU staging
//     buffer larger than free GPU memory -> OOM;
//   * Interleave w/o pipeline: a received chunk's GPU->CPU copy must finish
//     before the next chunk can be received (single buffer), creating
//     communication bubbles that overflow the idle spans;
//   * Pipelined (GEMINI): p sub-buffers let copies overlap the next receive,
//     so the planned chunks fit and training is undisturbed.
//
// Symmetry: every machine sends m-1 replicas and receives m-1 replicas, so
// one machine's walk describes the cluster. The local GPU->CPU copy of the
// machine's own checkpoint runs on its own PCIe links (8 GPUs' worth) and is
// tracked separately.
#ifndef SRC_SCHEDULE_EXECUTOR_H_
#define SRC_SCHEDULE_EXECUTOR_H_

#include <vector>

#include "src/common/status.h"
#include "src/schedule/partition.h"
#include "src/training/parallelism.h"

namespace gemini {

enum class InterleaveScheme {
  kNone,                  // Baseline: no checkpointing.
  kBlocking,              // Figure 5b / 16 "Blocking".
  kNaiveInterleave,       // Figure 16 "Naive interleave" (OOM).
  kInterleaveNoPipeline,  // Figure 5c / 16 "Interleave w/o pipeline".
  kPipelined,             // Figure 5d: GEMINI.
};

std::string_view InterleaveSchemeName(InterleaveScheme scheme);

struct ExecutorParams {
  TimelineParams timeline;
  // Whose iteration walk the checkpoint traffic interleaves with.
  ParallelismStrategy strategy = ParallelismStrategy::kZero3;
  InterleaveScheme scheme = InterleaveScheme::kPipelined;
  // Total replica count m (m-1 remote copies are transmitted).
  int num_replicas = 2;
  // Reserved checkpoint communication buffer per GPU (paper: 128 MiB) and
  // sub-buffer count p (paper: 4 x 32 MiB; kInterleaveNoPipeline forces 1).
  Bytes reserved_buffer_per_gpu = MiB(128);
  int num_buffers = 4;
  double gamma = 0.7;
  // Free GPU memory available for staging beyond the reserved buffer. The
  // paper observes only "a few hundred MB" free per GPU during large-model
  // training; the naive scheme OOMs when its per-GPU chunk share exceeds
  // this.
  Bytes gpu_free_memory_per_gpu = MiB(384);
  // Profiled idle spans; when empty, the nominal timeline's spans are used.
  std::vector<IdleSpan> profiled_spans;
  // When positive, overrides the per-iteration checkpoint traffic size
  // (used by frequency adaptation to spread one checkpoint across several
  // iterations: each iteration carries C/k bytes per replica).
  Bytes checkpoint_bytes_override = 0;
};

struct ExecutionResult {
  Status status;  // kResourceExhausted for the naive scheme's OOM.
  TimeNs baseline_iteration_time = 0;
  TimeNs iteration_time = 0;
  // Completion of the last chunk's network receive / of everything
  // (including GPU->CPU copies and the local replica copy).
  TimeNs checkpoint_network_done = 0;
  TimeNs checkpoint_done = 0;
  bool checkpoint_within_iteration = false;
  double overhead_fraction = 0.0;  // iteration_time / baseline - 1.
  Bytes required_buffer_per_gpu = 0;
  PartitionResult partition;
};

// Runs the walk. Always fills baseline_iteration_time; on OOM, `status` is
// non-OK and the interleaved quantities are unset.
ExecutionResult ExecuteIterationWithCheckpoint(const ExecutorParams& params);

// Checkpoint-frequency adaptation (paper Section 5.3, "Finish checkpointing
// within an iteration"): when the full checkpoint traffic does not fit one
// iteration's idle spans without delaying training, GEMINI lowers the
// frequency — each iteration carries 1/k of the traffic and a checkpoint
// completes every k iterations. Returns the smallest k (up to max_interval)
// whose per-iteration execution stays under `max_overhead` and fits; if even
// max_interval overflows, returns it with the best-effort execution.
struct FrequencyDecision {
  int interval_iterations = 1;
  ExecutionResult execution;  // Per-iteration execution at that frequency.
};
FrequencyDecision ChooseCheckpointFrequency(const ExecutorParams& params,
                                            double max_overhead = 0.005,
                                            int max_interval = 64);

}  // namespace gemini

#endif  // SRC_SCHEDULE_EXECUTOR_H_
