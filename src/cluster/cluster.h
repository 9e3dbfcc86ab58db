// Cluster: the set of machines participating in training plus their shared
// fabric and per-machine GPU<->CPU copy engines.
#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/cluster/fabric.h"
#include "src/cluster/instance_spec.h"
#include "src/cluster/machine.h"
#include "src/sim/simulator.h"

namespace gemini {

// GPU->CPU (and CPU->GPU) copy engine, one per machine. Same busy-until FIFO
// discipline as a NIC side: at most one staged copy at a time, which is why
// an un-pipelined receiver stalls the sender (Figure 5c).
class PcieEngine {
 public:
  PcieEngine(Simulator& sim, int num_ranks, std::vector<BytesPerSecond> bandwidth_per_rank);

  using DoneCallback = std::function<void(Status)>;

  // Queues a copy on `rank`; returns scheduled completion time.
  TimeNs Copy(int rank, Bytes bytes, DoneCallback done);

  TimeNs EarliestStart(int rank) const;
  TimeNs BusyTotal(int rank) const;
  BytesPerSecond bandwidth(int rank) const;

 private:
  struct Engine {
    BytesPerSecond bandwidth = 0;
    TimeNs free_at = 0;
    TimeNs busy_total = 0;
  };

  Simulator& sim_;
  std::vector<Engine> engines_;
};

class Cluster {
 public:
  // Builds `num_machines` machines of the given instance type sharing one
  // fabric. The fabric's liveness check is wired to machine health, and every
  // machine announces its deaths and revivals to the fabric's listeners.
  Cluster(Simulator& sim, int num_machines, const InstanceSpec& spec, FabricConfig fabric_config);

  int size() const { return static_cast<int>(machines_.size()); }
  const InstanceSpec& spec() const { return *spec_; }
  Simulator& sim() { return sim_; }

  Machine& machine(int rank) { return *machines_.at(static_cast<size_t>(rank)); }
  const Machine& machine(int rank) const { return *machines_.at(static_cast<size_t>(rank)); }

  Fabric& fabric() { return fabric_; }
  PcieEngine& pcie() { return pcie_; }

  // Installs a fresh machine (next incarnation) at `rank`, as the cloud
  // operator does when replacing failed hardware. The swap itself notifies
  // no listener: whoever replaces a machine restarts what ran on it.
  Machine& ReplaceMachine(int rank);

  // Ranks currently in each health state.
  std::vector<int> AliveRanks() const;
  std::vector<int> DeadRanks() const;
  int num_alive() const;

 private:
  Simulator& sim_;
  const InstanceSpec* spec_;
  std::vector<std::unique_ptr<Machine>> machines_;
  Fabric fabric_;
  PcieEngine pcie_;
};

}  // namespace gemini

#endif  // SRC_CLUSTER_CLUSTER_H_
