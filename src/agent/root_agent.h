// GEMINI root agent (paper Section 3.2 and 6).
//
// Runs on one training machine (the root machine) alongside its worker
// agent. Every scan period it classifies failures from the health keys in the
// distributed KV store (missing key after its lease expired => hardware;
// value "process_down" => software) and reports them, in ascending rank
// order, to the recovery coordinator (the GeminiSystem), which interacts with
// the cloud operator and directs checkpoint retrieval. A scan walks the keys
// in place only when the KV leader's applied index differs from the one its
// last walk read; equal indices mean equal applied state, so otherwise it
// reuses that walk's short list of missing and down ranks. Between failures a
// scan therefore costs one index read. The root holds the root-leadership key
// under its own lease, so workers watching that key detect root death and
// promote one of themselves.
#ifndef SRC_AGENT_ROOT_AGENT_H_
#define SRC_AGENT_ROOT_AGENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/agent/failure_injector.h"
#include "src/agent/worker_agent.h"
#include "src/cluster/cluster.h"
#include "src/kvstore/kv_store.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/sim/timer.h"

namespace gemini {

struct FailureReport {
  FailureType type = FailureType::kSoftware;
  std::vector<int> ranks;
  TimeNs detected_at = 0;
};

class RootAgent {
 public:
  // `on_failure` receives each detected failure exactly once per affected
  // rank set; re-detection of already-reported ranks is suppressed until
  // ClearHandled() re-arms them (after recovery completes).
  RootAgent(Simulator& sim, Cluster& cluster, KvStoreCluster& kv, int rank, AgentConfig config,
            std::function<void(const FailureReport&)> on_failure);
  ~RootAgent();

  void Start();
  void Stop();

  int rank() const { return rank_; }
  bool running() const { return scan_timer_ != nullptr && scan_timer_->running(); }

  // Re-arms detection for `ranks` after their recovery completed.
  void ClearHandled(const std::vector<int>& ranks);

  // Pauses failure classification (used during recovery so half-restored
  // state is not re-reported). Unpausing starts a one-scan-period grace
  // window so freshly-published healthy statuses have time to commit.
  void SetPaused(bool paused);

  // Optional sink for "agent.*" counters; may stay null. Counter handles are
  // resolved here, once, per the hot-path metric convention
  // (src/obs/metrics.h) — the scan counter fires every scan period.
  void set_metrics(MetricsRegistry* metrics);

  // Walks of the health keys so far (tests): at most one per applied index.
  int64_t health_walks() const { return health_walks_; }

 private:
  // What a walk read from a rank's health key.
  enum class Health : uint8_t { kMissing, kHealthy, kProcessDown };

  void OnScanTick();
  // Reads every health key into `unhealthy_`.
  void WalkHealthKeys();
  // Marks `ranks` handled and reports them as one failure of `type`.
  void Report(FailureType type, std::vector<int> ranks);

  Simulator& sim_;
  Cluster& cluster_;
  KvStoreCluster& kv_;
  int rank_;
  AgentConfig config_;
  std::function<void(const FailureReport&)> on_failure_;
  std::unique_ptr<RepeatingTimer> scan_timer_;
  // Hot-path metric handles (resolved once in set_metrics).
  Counter* root_scans_counter_ = DiscardCounter();
  Counter* heartbeat_misses_counter_ = DiscardCounter();
  Counter* failures_reported_counter_ = DiscardCounter();
  std::set<int> handled_;
  bool paused_ = false;
  TimeNs grace_until_ = 0;
  // Ranks are only reported missing after the store had a chance to expire
  // their lease (avoids false positives at startup).
  TimeNs started_at_ = 0;
  // The applied index the last walk read, and the ranks it found missing or
  // down, ascending.
  std::optional<uint64_t> walked_index_;
  std::vector<std::pair<int, Health>> unhealthy_;
  int64_t health_walks_ = 0;
};

}  // namespace gemini

#endif  // SRC_AGENT_ROOT_AGENT_H_
