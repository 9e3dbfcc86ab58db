#include "src/schedule/executor.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace gemini {

std::string_view InterleaveSchemeName(InterleaveScheme scheme) {
  switch (scheme) {
    case InterleaveScheme::kNone:
      return "baseline";
    case InterleaveScheme::kBlocking:
      return "blocking";
    case InterleaveScheme::kNaiveInterleave:
      return "naive_interleave";
    case InterleaveScheme::kInterleaveNoPipeline:
      return "interleave_no_pipeline";
    case InterleaveScheme::kPipelined:
      return "gemini_pipelined";
  }
  return "unknown";
}

namespace {

// The machine NIC shared by the strategy's training collectives and the
// checkpoint chunks, plus the chunks' GPU->CPU copy sub-buffers.
class IterationWalk final : public IterationNic {
 public:
  IterationWalk(const InstanceSpec& instance, TimeNs alpha,
                const std::vector<ChunkAssignment>& chunks,
                std::vector<TimeNs> chunk_request_times, int pipeline_depth)
      : chunks_(chunks),
        chunk_request_(std::move(chunk_request_times)),
        pipeline_depth_(pipeline_depth),
        copy_bandwidth_(instance.gpu_cpu_copy_bandwidth),
        ckpt_bandwidth_(instance.network_bandwidth),
        alpha_(alpha),
        copy_done_(chunks.size(), 0) {}

  // Runs the strategy's iteration; remaining chunks drain during/after the
  // optimizer update. Returns the update's end.
  TimeNs Run(const ExecutorParams& params, bool blocking_prologue) {
    if (blocking_prologue) {
      // Figure 4b: the whole checkpoint transmits before training begins.
      DrainChunks(std::numeric_limits<TimeNs>::max());
    }
    const TimeNs update_start = WalkIteration(params.strategy, params.timeline, *this);
    DrainChunks(std::numeric_limits<TimeNs>::max());
    return update_start + ComputeUpdateDuration(params.timeline);
  }

  TimeNs Push(TimeNs issue, TimeNs duration, CommKind /*kind*/, int /*group*/) override {
    DrainChunks(issue);
    const TimeNs start = std::max(net_free_, issue);
    net_free_ = start + duration;
    return net_free_;
  }

  TimeNs last_recv_end() const { return last_recv_end_; }
  TimeNs last_copy_end() const { return last_copy_end_; }

 private:
  // Chunk k may start receiving once (a) its scheduled request time arrived
  // and (b) its sub-buffer slot was drained by the copy of chunk k - p.
  TimeNs ChunkReady(size_t k) const {
    TimeNs ready = chunk_request_[k];
    if (pipeline_depth_ > 0 && k >= static_cast<size_t>(pipeline_depth_)) {
      ready = std::max(ready, copy_done_[k - static_cast<size_t>(pipeline_depth_)]);
    }
    return ready;
  }

  void ReceiveChunk(size_t k) {
    const Bytes bytes = chunks_[k].bytes;
    const TimeNs start = std::max(net_free_, ChunkReady(k));
    const TimeNs recv_end = start + alpha_ + TransferTime(bytes, ckpt_bandwidth_);
    net_free_ = recv_end;
    last_recv_end_ = recv_end;
    const TimeNs copy_start = std::max(pcie_free_, recv_end);
    const TimeNs copy_end = copy_start + TransferTime(bytes, copy_bandwidth_);
    pcie_free_ = copy_end;
    copy_done_[k] = copy_end;
    last_copy_end_ = std::max(last_copy_end_, copy_end);
  }

  // Processes queued chunks whose request precedes a training op issued at
  // `training_issue` (NIC FIFO by request arrival).
  void DrainChunks(TimeNs training_issue) {
    while (next_chunk_ < chunks_.size() && ChunkReady(next_chunk_) < training_issue) {
      ReceiveChunk(next_chunk_);
      ++next_chunk_;
    }
  }

  const std::vector<ChunkAssignment>& chunks_;
  std::vector<TimeNs> chunk_request_;
  int pipeline_depth_;
  BytesPerSecond copy_bandwidth_;
  BytesPerSecond ckpt_bandwidth_;
  TimeNs alpha_;

  TimeNs net_free_ = 0;
  TimeNs pcie_free_ = 0;
  std::vector<TimeNs> copy_done_;
  size_t next_chunk_ = 0;
  TimeNs last_recv_end_ = 0;
  TimeNs last_copy_end_ = 0;
};

// What an execution needs that does not depend on the checkpoint traffic
// size: the strategy's nominal timeline and the partitioner's inputs.
// ChooseCheckpointFrequency builds it once and varies only the bytes.
struct ExecutionSetup {
  IterationTimeline nominal;
  PartitionParams partition;
  int pipeline_depth = 1;
};

ExecutionSetup PrepareExecution(const ExecutorParams& params) {
  ExecutionSetup setup;
  setup.nominal = BuildTimelineFor(params.strategy, params.timeline);
  PartitionParams& partition = setup.partition;
  partition.idle_spans =
      params.profiled_spans.empty() ? setup.nominal.idle_spans : params.profiled_spans;
  partition.num_remote_replicas = params.num_replicas - 1;
  partition.reserved_buffer = params.reserved_buffer_per_gpu * params.timeline.instance.num_gpus;
  partition.bandwidth = params.timeline.instance.network_bandwidth;
  partition.alpha = params.timeline.comm_alpha;
  partition.gamma = params.gamma;
  // Pipelined: p sub-buffers; every other scheme stages through one.
  setup.pipeline_depth = params.scheme == InterleaveScheme::kPipelined ? params.num_buffers : 1;
  partition.num_buffers = setup.pipeline_depth;
  return setup;
}

Bytes FullCheckpointBytes(const ExecutorParams& params) {
  return params.checkpoint_bytes_override > 0
             ? params.checkpoint_bytes_override
             : params.timeline.model.CheckpointBytesPerMachine(params.timeline.num_machines);
}

// One iteration carrying `checkpoint_bytes` per replica.
ExecutionResult Execute(const ExecutorParams& params, ExecutionSetup& setup,
                        Bytes checkpoint_bytes) {
  ExecutionResult result;
  result.status = Status::Ok();

  const InstanceSpec& instance = params.timeline.instance;
  result.baseline_iteration_time = setup.nominal.iteration_time;

  if (params.scheme == InterleaveScheme::kNone) {
    result.iteration_time = setup.nominal.iteration_time;
    result.overhead_fraction = 0.0;
    return result;
  }

  const std::vector<IdleSpan>& spans = setup.partition.idle_spans;
  setup.partition.checkpoint_bytes = checkpoint_bytes;
  // Blocking streams the whole checkpoint up front through a single staging
  // buffer; the naive scheme sends one chunk per span.
  StatusOr<PartitionResult> partition = params.scheme == InterleaveScheme::kNaiveInterleave
                                            ? PartitionOneChunkPerSpan(setup.partition)
                                            : PartitionCheckpoint(setup.partition);
  if (!partition.ok()) {
    result.status = partition.status();
    return result;
  }
  result.partition = std::move(partition).value();

  // Staging memory demand per GPU (checkpoints are sharded over all GPUs).
  result.required_buffer_per_gpu =
      (result.partition.max_chunk_bytes + instance.num_gpus - 1) / instance.num_gpus;
  if (params.scheme == InterleaveScheme::kNaiveInterleave) {
    if (result.required_buffer_per_gpu > params.gpu_free_memory_per_gpu) {
      result.status = ResourceExhaustedError(
          "GPU OOM: naive interleave needs " + FormatBytes(result.required_buffer_per_gpu) +
          " per GPU, free " + FormatBytes(params.gpu_free_memory_per_gpu));
      return result;
    }
  }

  // Request time per chunk: its span's profiled start (Blocking: everything
  // at iteration start).
  std::vector<TimeNs> requests;
  requests.reserve(result.partition.chunks.size());
  for (const ChunkAssignment& chunk : result.partition.chunks) {
    if (params.scheme == InterleaveScheme::kBlocking) {
      requests.push_back(0);
    } else {
      requests.push_back(spans.at(static_cast<size_t>(chunk.span_index)).start);
    }
  }

  IterationWalk walk(instance, params.timeline.comm_alpha, result.partition.chunks,
                     std::move(requests), setup.pipeline_depth);
  const TimeNs update_end = walk.Run(params, params.scheme == InterleaveScheme::kBlocking);

  result.checkpoint_network_done = walk.last_recv_end();
  // The machine's own local replica copies GPU->CPU on its own PCIe links,
  // overlapped with training; it finishes no earlier than its copy time.
  const TimeNs local_copy_time = TransferTime(checkpoint_bytes, instance.gpu_cpu_copy_bandwidth);
  result.checkpoint_done = std::max({walk.last_copy_end(), local_copy_time});
  // Spilled checkpoint traffic prolongs the iteration (Section 5.3).
  result.iteration_time = std::max(update_end, result.checkpoint_network_done);
  result.checkpoint_within_iteration = result.checkpoint_done <= result.iteration_time;
  result.overhead_fraction =
      static_cast<double>(result.iteration_time) /
          static_cast<double>(result.baseline_iteration_time) -
      1.0;
  return result;
}

}  // namespace

ExecutionResult ExecuteIterationWithCheckpoint(const ExecutorParams& params) {
  ExecutionSetup setup = PrepareExecution(params);
  return Execute(params, setup, FullCheckpointBytes(params));
}

FrequencyDecision ChooseCheckpointFrequency(const ExecutorParams& params, double max_overhead,
                                            int max_interval) {
  const Bytes full = FullCheckpointBytes(params);
  ExecutionSetup setup = PrepareExecution(params);
  FrequencyDecision decision;
  for (int interval = 1; interval <= max_interval; ++interval) {
    decision.interval_iterations = interval;
    decision.execution = Execute(params, setup, (full + interval - 1) / interval);
    if (!decision.execution.status.ok()) {
      return decision;  // OOM etc.: surfacing beats looping.
    }
    if (decision.execution.overhead_fraction <= max_overhead &&
        decision.execution.partition.fits_within_idle_time) {
      return decision;
    }
  }
  return decision;
}

}  // namespace gemini
