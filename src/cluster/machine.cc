#include "src/cluster/machine.h"

#include <algorithm>
#include <cassert>

#include "src/cluster/fabric.h"
#include "src/common/logging.h"

namespace gemini {

std::string_view MachineHealthName(MachineHealth health) {
  switch (health) {
    case MachineHealth::kHealthy:
      return "healthy";
    case MachineHealth::kProcessDown:
      return "process_down";
    case MachineHealth::kDead:
      return "dead";
  }
  return "unknown";
}

Status Gpu::Allocate(Bytes bytes) {
  assert(bytes >= 0);
  if (used_ + bytes > capacity_) {
    return ResourceExhaustedError("GPU out of memory: requested " + FormatBytes(bytes) +
                                  ", free " + FormatBytes(free()));
  }
  used_ += bytes;
  return Status::Ok();
}

void Gpu::Free(Bytes bytes) {
  assert(bytes >= 0);
  assert(bytes <= used_);
  used_ -= bytes;
}

Machine::Machine(int rank, int incarnation, const InstanceSpec& spec, Fabric* fabric)
    : rank_(rank), incarnation_(incarnation), spec_(&spec), fabric_(fabric) {
  gpus_.reserve(static_cast<size_t>(spec.num_gpus));
  for (int i = 0; i < spec.num_gpus; ++i) {
    gpus_.emplace_back(spec.gpu_memory_per_gpu);
  }
}

void Machine::set_health(MachineHealth health) {
  const bool was_alive = alive();
  health_ = health;
  if (fabric_ != nullptr && alive() != was_alive) {
    fabric_->NotifyLivenessChanged(rank_, alive());
  }
}

Bytes Machine::min_free_gpu_memory() const {
  Bytes min_free = gpus_.empty() ? 0 : gpus_.front().free();
  for (const auto& gpu : gpus_) {
    min_free = std::min(min_free, gpu.free());
  }
  return min_free;
}

Status Machine::AllocateOnAllGpus(Bytes bytes) {
  for (size_t i = 0; i < gpus_.size(); ++i) {
    const Status status = gpus_[i].Allocate(bytes);
    if (!status.ok()) {
      for (size_t j = 0; j < i; ++j) {
        gpus_[j].Free(bytes);
      }
      return status;
    }
  }
  return Status::Ok();
}

void Machine::FreeOnAllGpus(Bytes bytes) {
  for (auto& gpu : gpus_) {
    gpu.Free(bytes);
  }
}

Status Machine::AllocateCpuMemory(Bytes bytes) {
  assert(bytes >= 0);
  if (cpu_used_ + bytes > spec_->cpu_memory) {
    return ResourceExhaustedError("CPU memory exhausted on " + DebugName() + ": requested " +
                                  FormatBytes(bytes) + ", free " + FormatBytes(cpu_memory_free()));
  }
  cpu_used_ += bytes;
  return Status::Ok();
}

void Machine::FreeCpuMemory(Bytes bytes) {
  assert(bytes >= 0);
  assert(bytes <= cpu_used_);
  cpu_used_ -= bytes;
}

std::string Machine::DebugName() const {
  std::string name = "rank" + std::to_string(rank_);
  name.append(static_cast<size_t>(incarnation_), '\'');
  return name;
}

}  // namespace gemini
