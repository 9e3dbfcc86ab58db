// Cloud operator: machine replacement (the EC2 Auto Scaling Group stand-in).
//
// When the root agent reports a hardware failure, the operator provisions a
// healthy machine for the failed rank. Provisioning from the cloud pool
// takes a non-deterministic 4-7 minutes (the paper's measured ASG latency,
// kProvisionDelay{Min,Max}); a pre-allocated standby machine activates in
// seconds instead (kStandbyActivationDelay), and the operator replenishes the
// standby pool in the background (Section 6.2 "Standby machines").
#ifndef SRC_AGENT_CLOUD_OPERATOR_H_
#define SRC_AGENT_CLOUD_OPERATOR_H_

#include <functional>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace gemini {

struct CloudOperatorConfig {
  int num_standby = 0;
};

class CloudOperator {
 public:
  CloudOperator(Simulator& sim, Cluster& cluster, CloudOperatorConfig config, uint64_t seed);

  // Installs a fresh machine at `rank` (next incarnation) and invokes `done`
  // once it is ready. Uses a standby machine when available.
  void ReplaceMachine(int rank, std::function<void(Machine&)> done);

  int standby_available() const { return standby_available_; }
  int total_replacements() const { return total_replacements_; }

  // Optional sink for "cloud.*" counters; may stay null. Counter handles are
  // resolved here, once, per the hot-path metric convention
  // (src/obs/metrics.h).
  void set_metrics(MetricsRegistry* metrics);

 private:
  Simulator& sim_;
  Cluster& cluster_;
  Rng rng_;
  int standby_available_;
  int total_replacements_ = 0;
  // Metric handles (resolved once in set_metrics).
  Counter* replacements_counter_ = DiscardCounter();
  Counter* standby_activations_counter_ = DiscardCounter();
};

}  // namespace gemini

#endif  // SRC_AGENT_CLOUD_OPERATOR_H_
