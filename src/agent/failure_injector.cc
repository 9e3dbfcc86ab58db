#include "src/agent/failure_injector.h"

#include "src/common/logging.h"

namespace gemini {

std::string_view FailureTypeName(FailureType type) {
  switch (type) {
    case FailureType::kSoftware:
      return "software";
    case FailureType::kHardware:
      return "hardware";
  }
  return "unknown";
}

FailureInjector::FailureInjector(Simulator& sim, Cluster& cluster, uint64_t seed)
    : sim_(sim), cluster_(cluster), rng_(seed) {}

void FailureInjector::set_metrics(MetricsRegistry* metrics) {
  trigger_fires_counter_ = CounterHandle(metrics, "injector.trigger_fires");
  corruptions_counter_ = CounterHandle(metrics, "injector.corruptions_injected");
  failures_counter_ = CounterHandle(metrics, "injector.failures_injected");
}

void FailureInjector::InjectAt(TimeNs when, FailureType type, std::vector<int> ranks) {
  FailureEvent event;
  event.time = when;
  event.type = type;
  event.ranks = std::move(ranks);
  sim_.ScheduleAt(when, [this, event = std::move(event)] { Apply(event); });
}

void FailureInjector::InjectBurstAt(TimeNs when, FailureType type, std::vector<int> ranks,
                                    TimeNs spacing) {
  if (spacing <= 0) {
    InjectAt(when, type, std::move(ranks));
    return;
  }
  TimeNs at = when;
  for (const int rank : ranks) {
    InjectAt(at, type, {rank});
    at += spacing;
  }
}

void FailureInjector::ArmOnTrigger(std::string trigger, FailureType type, std::vector<int> ranks,
                                   TimeNs delay) {
  ArmedEvent armed;
  armed.type = type;
  armed.ranks = std::move(ranks);
  armed.delay = delay;
  armed_[std::move(trigger)].push_back(std::move(armed));
}

void FailureInjector::ArmCorruptionOnTrigger(std::string trigger, CorruptionTarget target,
                                             TimeNs delay) {
  ArmedEvent armed;
  armed.corruption = target;
  armed.delay = delay;
  armed_[std::move(trigger)].push_back(std::move(armed));
}

void FailureInjector::Fire(std::string_view trigger) {
  auto it = armed_.find(std::string(trigger));
  if (it == armed_.end() || it->second.empty()) {
    return;
  }
  std::vector<ArmedEvent> events = std::move(it->second);
  armed_.erase(it);
  trigger_fires_counter_->Increment();
  for (ArmedEvent& armed : events) {
    if (armed.corruption.has_value()) {
      sim_.ScheduleAfter(armed.delay,
                         [this, target = *armed.corruption] { ApplyCorruption(target); });
      continue;
    }
    FailureEvent event;
    event.type = armed.type;
    event.ranks = std::move(armed.ranks);
    sim_.ScheduleAfter(armed.delay, [this, event = std::move(event)]() mutable {
      event.time = sim_.now();
      Apply(event);
    });
  }
}

void FailureInjector::ApplyCorruption(const CorruptionTarget& target) {
  if (!corruption_hook_) {
    GEMINI_LOG(kWarning) << "failure injector: corruption requested but no hook installed";
    return;
  }
  std::string replica = "owner " + std::to_string(target.owner) + "'s replica";
  if (target.chain_index.has_value()) {
    replica += " chain link " + std::to_string(*target.chain_index);
  }
  const Status status = corruption_hook_(target);
  if (!status.ok()) {
    GEMINI_LOG(kWarning) << "failure injector: corruption of " << replica << " on rank "
                         << target.holder << " failed: " << status;
    return;
  }
  GEMINI_LOG(kInfo) << "failure injector: flipped bit " << target.bit << " of " << replica
                    << " on rank " << target.holder << " at " << FormatDuration(sim_.now());
  corruptions_counter_->Increment();
}

void FailureInjector::Apply(const FailureEvent& event) {
  for (const int rank : event.ranks) {
    Machine& machine = cluster_.machine(rank);
    if (!machine.alive()) {
      continue;  // Already dead; nothing more to break.
    }
    machine.set_health(event.type == FailureType::kSoftware ? MachineHealth::kProcessDown
                                                            : MachineHealth::kDead);
    GEMINI_LOG(kInfo) << "failure injector: " << FailureTypeName(event.type) << " failure on "
                      << machine.DebugName() << " at " << FormatDuration(sim_.now());
  }
  ++injected_;
  failures_counter_->Increment();
  if (observer_) {
    observer_(event);
  }
}

void FailureInjector::StartRandomArrivals(double rate_per_machine_day, double software_fraction,
                                          TimeNs until) {
  ScheduleNextRandom(rate_per_machine_day, software_fraction, until);
}

void FailureInjector::StartRandomArrivalsAt(TimeNs start, double rate_per_machine_day,
                                            double software_fraction, TimeNs until) {
  if (start <= sim_.now()) {
    ScheduleNextRandom(rate_per_machine_day, software_fraction, until);
    return;
  }
  sim_.ScheduleAt(start, [this, rate_per_machine_day, software_fraction, until] {
    ScheduleNextRandom(rate_per_machine_day, software_fraction, until);
  });
}

void FailureInjector::ScheduleNextRandom(double rate_per_machine_day, double software_fraction,
                                         TimeNs until) {
  const double cluster_rate_per_day = rate_per_machine_day * cluster_.size();
  if (cluster_rate_per_day <= 0) {
    return;
  }
  const double days_to_next = rng_.Exponential(cluster_rate_per_day);
  const TimeNs delay = static_cast<TimeNs>(days_to_next * 24.0 * static_cast<double>(kHour));
  const TimeNs when = sim_.now() + delay;
  if (when > until) {
    return;
  }
  sim_.ScheduleAt(when, [this, rate_per_machine_day, software_fraction, until] {
    const std::vector<int> alive = cluster_.AliveRanks();
    if (!alive.empty()) {
      const int victim =
          alive[static_cast<size_t>(rng_.NextU64Below(static_cast<uint64_t>(alive.size())))];
      FailureEvent event;
      event.time = sim_.now();
      event.type = rng_.Bernoulli(software_fraction) ? FailureType::kSoftware
                                                     : FailureType::kHardware;
      event.ranks = {victim};
      Apply(event);
    }
    ScheduleNextRandom(rate_per_machine_day, software_fraction, until);
  });
}

}  // namespace gemini
