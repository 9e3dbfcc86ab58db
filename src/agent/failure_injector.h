// Failure injection.
//
// Reproduces the failure processes the paper's evaluation is driven by:
// scripted failures (inject type X at time T on ranks R) for the recovery
// experiments, and Poisson arrivals for the scalability study (OPT-175B
// observed ~1.5% of instances failing per day; the majority are software
// failures or single-machine hardware failures).
//
// For the recovery-hardening experiments three further shapes are supported:
//  * trigger-armed events — "when the system reaches <trigger point>, wait
//    `delay`, then fail ranks R". GeminiSystem fires the trigger points
//    (kTriggerRecoveryStart, kTriggerRetrievalStart, kTriggerReprotectionStart)
//    as it crosses them, which makes failure-during-recovery cascades exactly
//    reproducible;
//  * correlated bursts — several machines failing a fixed spacing apart
//    (rack/switch-level incidents from the production traces);
//  * checkpoint bit-flip corruption — flips one payload bit of a completed
//    replica, or of one link of its delta chain, through a hook the system
//    installs, driving the CRC-verified retrieval paths.
#ifndef SRC_AGENT_FAILURE_INJECTOR_H_
#define SRC_AGENT_FAILURE_INJECTOR_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace gemini {

enum class FailureType {
  // Training process crash; hardware (and CPU memory contents) survive.
  kSoftware,
  // Machine loss: unreachable, DRAM contents gone, must be replaced.
  kHardware,
};

std::string_view FailureTypeName(FailureType type);

// Trigger points fired by GeminiSystem as recovery progresses.
inline constexpr char kTriggerRecoveryStart[] = "recovery_start";
inline constexpr char kTriggerRetrievalStart[] = "retrieval_start";
inline constexpr char kTriggerReprotectionStart[] = "reprotection_start";

struct FailureEvent {
  TimeNs time = 0;
  FailureType type = FailureType::kSoftware;
  std::vector<int> ranks;
};

// One replica bit to flip: bit `bit` of `holder`'s copy of `owner`'s
// checkpoint — the completed replica, or, with `chain_index` set, link
// `chain_index` of the holder's redo-log delta chain (incremental mode).
struct CorruptionTarget {
  int holder = -1;
  int owner = -1;
  size_t bit = 0;
  std::optional<size_t> chain_index;
};

class FailureInjector {
 public:
  // `on_injected` (optional) observes each injected event, after machine
  // health has been flipped — detection still goes through the agents.
  FailureInjector(Simulator& sim, Cluster& cluster, uint64_t seed);

  void set_observer(std::function<void(const FailureEvent&)> observer) {
    observer_ = std::move(observer);
  }

  // Schedules one failure at an absolute time.
  void InjectAt(TimeNs when, FailureType type, std::vector<int> ranks);

  // Correlated burst: ranks[i] fails at `when + i * spacing` (spacing 0
  // collapses to one multi-rank event at `when`).
  void InjectBurstAt(TimeNs when, FailureType type, std::vector<int> ranks, TimeNs spacing);

  // Arms a failure that fires `delay` after the named trigger point is next
  // crossed. Each armed event fires exactly once.
  void ArmOnTrigger(std::string trigger, FailureType type, std::vector<int> ranks,
                    TimeNs delay = 0);

  // Arms a checkpoint bit flip (needs the corruption hook installed).
  void ArmCorruptionOnTrigger(std::string trigger, CorruptionTarget target, TimeNs delay = 0);

  // Crossed trigger points call this (GeminiSystem does); all events armed on
  // `trigger` are released.
  void Fire(std::string_view trigger);

  // Installed by the system: performs the actual bit flip on the holder's
  // store. Kept as a hook so the injector does not depend on storage.
  void set_corruption_hook(std::function<Status(const CorruptionTarget&)> hook) {
    corruption_hook_ = std::move(hook);
  }

  // Starts Poisson failure arrival: `rate_per_machine_day` failures per
  // machine per day, each software with probability `software_fraction`,
  // each hitting one uniformly random alive machine. Runs until `until`.
  void StartRandomArrivals(double rate_per_machine_day, double software_fraction, TimeNs until);

  // Deferred variant: the Poisson process switches on at `start` (an injected
  // failure-rate shift — e.g. a quiet cluster turning into a failure storm
  // mid-run, the scenario the Chameleon selector reacts to).
  void StartRandomArrivalsAt(TimeNs start, double rate_per_machine_day,
                             double software_fraction, TimeNs until);

  int64_t injected_count() const { return injected_; }

  // Optional sink for "injector.*" counters; may stay null. Counter handles
  // are resolved here, once, per the hot-path metric convention
  // (src/obs/metrics.h).
  void set_metrics(MetricsRegistry* metrics);

 private:
  struct ArmedEvent {
    FailureType type = FailureType::kSoftware;
    std::vector<int> ranks;
    TimeNs delay = 0;
    // Corruption events flip a replica bit instead of failing `ranks`.
    std::optional<CorruptionTarget> corruption;
  };

  void Apply(const FailureEvent& event);
  void ApplyCorruption(const CorruptionTarget& target);
  void ScheduleNextRandom(double rate_per_machine_day, double software_fraction, TimeNs until);

  Simulator& sim_;
  Cluster& cluster_;
  Rng rng_;
  std::function<void(const FailureEvent&)> observer_;
  std::function<Status(const CorruptionTarget&)> corruption_hook_;
  std::map<std::string, std::vector<ArmedEvent>> armed_;
  int64_t injected_ = 0;
  // Metric handles (resolved once in set_metrics).
  Counter* trigger_fires_counter_ = DiscardCounter();
  Counter* corruptions_counter_ = DiscardCounter();
  Counter* failures_counter_ = DiscardCounter();
};

}  // namespace gemini

#endif  // SRC_AGENT_FAILURE_INJECTOR_H_
