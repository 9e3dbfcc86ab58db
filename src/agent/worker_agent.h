// GEMINI worker agent (paper Section 3.2).
//
// One per training machine. Publishes the machine's health status to the
// distributed key-value store under a heartbeat lease: a hardware failure
// silences the keepalive, the lease expires, and the key disappears — which
// is exactly how the root agent detects dead machines. Software failures
// (training process crash, agent alive) are reported explicitly in the key's
// value. Worker agents also track the root agent's leadership key, and when it
// disappears they campaign to promote one of themselves to root. A worker
// polls the key only while it knows of no live root: from start-up, and after
// the key's deletion until a campaign wins. On first seeing a live root it
// stops polling and watches the key; the watch's delete or expiry event
// restarts the poll at once, which campaigns.
#ifndef SRC_AGENT_WORKER_AGENT_H_
#define SRC_AGENT_WORKER_AGENT_H_

#include <functional>
#include <memory>
#include <string>

#include "src/cluster/cluster.h"
#include "src/kvstore/kv_store.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/sim/timer.h"

namespace gemini {

class RunTracer;

inline constexpr char kHealthKeyPrefix[] = "/gemini/health/";
inline constexpr char kRootKey[] = "/gemini/root";

inline constexpr char kStatusHealthy[] = "healthy";
inline constexpr char kStatusProcessDown[] = "process_down";

struct AgentConfig {
  // Health-key lease TTL and keepalive cadence. With the root scan period,
  // these give the ~15 s failure-detection latency of paper Figure 14.
  TimeNs health_lease_ttl = Seconds(10);
  TimeNs keepalive_interval = Seconds(3);
  TimeNs root_scan_interval = Seconds(5);
};

class WorkerAgent {
 public:
  WorkerAgent(Simulator& sim, Cluster& cluster, KvStoreCluster& kv, int rank, AgentConfig config);
  ~WorkerAgent();

  void Start();
  void Stop();

  int rank() const { return rank_; }
  bool started() const { return started_; }
  // True while the agent polls the root key: it knows of no live root.
  bool polling_root() const { return root_poll_timer_->running(); }

  // Called when the local training process crashes (software failure): the
  // agent survives and flips the published status.
  void ReportProcessDown();
  // Called when the training process restarts after recovery.
  void ReportHealthy();

  // Invoked when this agent wins the root election (set by the system).
  void set_on_promoted_to_root(std::function<void()> callback) {
    on_promoted_ = std::move(callback);
  }

  // Optional sink for "agent.*" counters; may stay null. Counter handles are
  // resolved here, once, per the hot-path metric convention
  // (src/obs/metrics.h) — the keepalive counter fires every few simulated
  // seconds for the whole run.
  void set_metrics(MetricsRegistry* metrics);
  // Optional trace sink: publish failures/retries become "agent" track
  // instants (the flight recorder's pre-failure context); may stay null.
  void set_tracer(RunTracer* tracer) { tracer_ = tracer; }

 private:
  std::string health_key() const { return kHealthKeyPrefix + std::to_string(rank_); }
  bool machine_ok() const { return cluster_.machine(rank_).alive(); }

  void AcquireLeaseAndPublish();
  void PublishStatus(const std::string& status);
  void OnKeepAliveTick();
  void OnRootPollTick();
  void OnRootKeyEvent(const WatchEvent& event);

  Simulator& sim_;
  Cluster& cluster_;
  KvStoreCluster& kv_;
  int rank_;
  AgentConfig config_;
  bool started_ = false;
  LeaseId lease_ = kNoLease;
  std::string last_status_ = kStatusHealthy;
  // Set when a health publish fails (KV leader change, quorum blip); the next
  // keepalive tick republishes so the root never acts on a stale status.
  bool publish_retry_pending_ = false;
  std::unique_ptr<RepeatingTimer> keepalive_timer_;
  // Runs only while no live root is known.
  std::unique_ptr<RepeatingTimer> root_poll_timer_;
  // The watch on kRootKey, registered when a live root is first seen (not in
  // Start(): registering one per machine at set-up is measurable); 0 = none.
  uint64_t root_watch_ = 0;
  std::function<void()> on_promoted_;
  RunTracer* tracer_ = nullptr;
  // Hot-path metric handles (resolved once in set_metrics).
  Counter* lease_acquired_counter_ = DiscardCounter();
  Counter* publish_failures_counter_ = DiscardCounter();
  Counter* publish_retries_counter_ = DiscardCounter();
  Counter* process_down_counter_ = DiscardCounter();
  Counter* keepalives_counter_ = DiscardCounter();
  Counter* root_campaigns_counter_ = DiscardCounter();
};

}  // namespace gemini

#endif  // SRC_AGENT_WORKER_AGENT_H_
