#include "src/cluster/cluster.h"

#include <algorithm>
#include <cassert>

namespace gemini {

PcieEngine::PcieEngine(Simulator& sim, int num_ranks,
                       std::vector<BytesPerSecond> bandwidth_per_rank)
    : sim_(sim), engines_(static_cast<size_t>(num_ranks)) {
  assert(static_cast<int>(bandwidth_per_rank.size()) == num_ranks);
  for (int i = 0; i < num_ranks; ++i) {
    engines_[static_cast<size_t>(i)].bandwidth = bandwidth_per_rank[static_cast<size_t>(i)];
    assert(engines_[static_cast<size_t>(i)].bandwidth > 0);
  }
}

TimeNs PcieEngine::Copy(int rank, Bytes bytes, DoneCallback done) {
  Engine& engine = engines_.at(static_cast<size_t>(rank));
  const TimeNs start = std::max(sim_.now(), engine.free_at);
  const TimeNs duration = TransferTime(bytes, engine.bandwidth);
  const TimeNs end = start + duration;
  engine.free_at = end;
  engine.busy_total += duration;
  sim_.ScheduleAt(end, [done = std::move(done)] { done(Status::Ok()); });
  return end;
}

TimeNs PcieEngine::EarliestStart(int rank) const {
  return std::max(sim_.now(), engines_.at(static_cast<size_t>(rank)).free_at);
}

TimeNs PcieEngine::BusyTotal(int rank) const {
  return engines_.at(static_cast<size_t>(rank)).busy_total;
}

BytesPerSecond PcieEngine::bandwidth(int rank) const {
  return engines_.at(static_cast<size_t>(rank)).bandwidth;
}

namespace {

std::vector<BytesPerSecond> UniformCopyBandwidth(int num_machines, const InstanceSpec& spec) {
  return std::vector<BytesPerSecond>(static_cast<size_t>(num_machines),
                                     spec.gpu_cpu_copy_bandwidth);
}

}  // namespace

Cluster::Cluster(Simulator& sim, int num_machines, const InstanceSpec& spec,
                 FabricConfig fabric_config)
    : sim_(sim),
      spec_(&spec),
      fabric_(sim, num_machines, fabric_config),
      pcie_(sim, num_machines, UniformCopyBandwidth(num_machines, spec)) {
  assert(num_machines > 0);
  machines_.reserve(static_cast<size_t>(num_machines));
  for (int rank = 0; rank < num_machines; ++rank) {
    machines_.push_back(std::make_unique<Machine>(rank, /*incarnation=*/0, spec, &fabric_));
  }
  fabric_.set_liveness_check([this](int rank) { return machine(rank).alive(); });
}

Machine& Cluster::ReplaceMachine(int rank) {
  auto& slot = machines_.at(static_cast<size_t>(rank));
  const int incarnation = slot->incarnation() + 1;
  slot = std::make_unique<Machine>(rank, incarnation, *spec_, &fabric_);
  return *slot;
}

std::vector<int> Cluster::AliveRanks() const {
  std::vector<int> ranks;
  for (int i = 0; i < size(); ++i) {
    if (machine(i).alive()) {
      ranks.push_back(i);
    }
  }
  return ranks;
}

std::vector<int> Cluster::DeadRanks() const {
  std::vector<int> ranks;
  for (int i = 0; i < size(); ++i) {
    if (!machine(i).alive()) {
      ranks.push_back(i);
    }
  }
  return ranks;
}

int Cluster::num_alive() const { return static_cast<int>(AliveRanks().size()); }

}  // namespace gemini
