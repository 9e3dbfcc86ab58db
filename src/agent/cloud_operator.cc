#include "src/agent/cloud_operator.h"

#include "src/common/calibration.h"
#include "src/common/logging.h"

namespace gemini {

CloudOperator::CloudOperator(Simulator& sim, Cluster& cluster, CloudOperatorConfig config,
                             uint64_t seed)
    : sim_(sim),
      cluster_(cluster),
      rng_(seed),
      standby_available_(config.num_standby) {}

void CloudOperator::set_metrics(MetricsRegistry* metrics) {
  replacements_counter_ = CounterHandle(metrics, "cloud.replacements");
  standby_activations_counter_ = CounterHandle(metrics, "cloud.standby_activations");
}

void CloudOperator::ReplaceMachine(int rank, std::function<void(Machine&)> done) {
  ++total_replacements_;
  replacements_counter_->Increment();
  TimeNs delay;
  if (standby_available_ > 0) {
    --standby_available_;
    standby_activations_counter_->Increment();
    delay = kStandbyActivationDelay;
    // The failed machine is returned and another standby is requested; it
    // arrives after a full provisioning delay.
    const TimeNs replenish =
        static_cast<TimeNs>(rng_.UniformInt(kProvisionDelayMin, kProvisionDelayMax));
    sim_.ScheduleAfter(replenish, [this] { ++standby_available_; });
    GEMINI_LOG(kInfo) << "cloud operator: activating standby for rank " << rank;
  } else {
    delay = static_cast<TimeNs>(rng_.UniformInt(kProvisionDelayMin, kProvisionDelayMax));
    GEMINI_LOG(kInfo) << "cloud operator: provisioning replacement for rank " << rank << " ("
                      << FormatDuration(delay) << ")";
  }
  sim_.ScheduleAfter(delay, [this, rank, done = std::move(done)] {
    Machine& machine = cluster_.ReplaceMachine(rank);
    GEMINI_LOG(kInfo) << "cloud operator: " << machine.DebugName() << " is ready";
    done(machine);
  });
}

}  // namespace gemini
