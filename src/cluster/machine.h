// Machines and GPUs.
//
// A Machine models one GPU instance: a rank in the training job, an array of
// GPUs with memory accounting (used to detect the OOM failure mode of naive
// checkpoint interleaving, Figure 5b/16), CPU memory accounting for the
// checkpoint store, and a health state driven by the failure injector.
//
// Rank vs machine identity: the training job addresses positions by `rank`
// (0..N-1). A hardware replacement installs a fresh machine (new incarnation
// number) at the same rank, mirroring how Machine 2' replaces Machine 2 in
// the paper's Figure 6c.
#ifndef SRC_CLUSTER_MACHINE_H_
#define SRC_CLUSTER_MACHINE_H_

#include <string>
#include <vector>

#include "src/cluster/instance_spec.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace gemini {

enum class MachineHealth {
  kHealthy,
  // Training process crashed but hardware is fine (software failure).
  kProcessDown,
  // Hardware failure: machine is unreachable and its memory contents lost.
  kDead,
};

std::string_view MachineHealthName(MachineHealth health);

// One GPU: tracks memory so naive schemes that stage an entire checkpoint in
// GPU memory visibly OOM.
class Gpu {
 public:
  explicit Gpu(Bytes memory) : capacity_(memory) {}

  Bytes capacity() const { return capacity_; }
  Bytes used() const { return used_; }
  Bytes free() const { return capacity_ - used_; }

  // Reserves `bytes`; fails with kResourceExhausted on OOM.
  Status Allocate(Bytes bytes);
  void Free(Bytes bytes);

 private:
  Bytes capacity_;
  Bytes used_ = 0;
};

class Fabric;

class Machine {
 public:
  // A machine on `fabric` (may be null) announces its deaths and revivals
  // through the fabric's liveness listeners.
  Machine(int rank, int incarnation, const InstanceSpec& spec, Fabric* fabric = nullptr);

  int rank() const { return rank_; }
  // Distinguishes successive machines occupying the same rank.
  int incarnation() const { return incarnation_; }
  const InstanceSpec& spec() const { return *spec_; }

  MachineHealth health() const { return health_; }
  bool alive() const { return health_ != MachineHealth::kDead; }
  bool process_running() const { return health_ == MachineHealth::kHealthy; }
  void set_health(MachineHealth health);

  int num_gpus() const { return static_cast<int>(gpus_.size()); }
  Gpu& gpu(int index) { return gpus_.at(static_cast<size_t>(index)); }
  const Gpu& gpu(int index) const { return gpus_.at(static_cast<size_t>(index)); }

  // Smallest free GPU memory across the machine's GPUs: a buffer reservation
  // must fit on every GPU since checkpoints are sharded across all of them.
  Bytes min_free_gpu_memory() const;

  // Reserves `bytes` on every GPU (e.g. the checkpoint communication buffer).
  // On failure nothing is left allocated.
  Status AllocateOnAllGpus(Bytes bytes);
  void FreeOnAllGpus(Bytes bytes);

  // CPU (host) memory accounting for checkpoint storage.
  Bytes cpu_memory_used() const { return cpu_used_; }
  Bytes cpu_memory_free() const { return spec_->cpu_memory - cpu_used_; }
  Status AllocateCpuMemory(Bytes bytes);
  void FreeCpuMemory(Bytes bytes);

  // "rank3" or "rank3'" (primes mark replacement incarnations, as in Fig 6c).
  std::string DebugName() const;

 private:
  int rank_;
  int incarnation_;
  const InstanceSpec* spec_;
  Fabric* fabric_;
  MachineHealth health_ = MachineHealth::kHealthy;
  std::vector<Gpu> gpus_;
  Bytes cpu_used_ = 0;
};

}  // namespace gemini

#endif  // SRC_CLUSTER_MACHINE_H_
