#include "src/agent/worker_agent.h"

#include "src/common/logging.h"
#include "src/obs/run_tracer.h"

namespace gemini {

WorkerAgent::WorkerAgent(Simulator& sim, Cluster& cluster, KvStoreCluster& kv, int rank,
                         AgentConfig config)
    : sim_(sim), cluster_(cluster), kv_(kv), rank_(rank), config_(config) {
  keepalive_timer_ = std::make_unique<RepeatingTimer>(sim_, config_.keepalive_interval,
                                                      [this] { OnKeepAliveTick(); });
  root_poll_timer_ = std::make_unique<RepeatingTimer>(sim_, config_.root_scan_interval,
                                                      [this] { OnRootPollTick(); });
}

WorkerAgent::~WorkerAgent() { Stop(); }

void WorkerAgent::set_metrics(MetricsRegistry* metrics) {
  lease_acquired_counter_ = CounterHandle(metrics, "agent.lease_acquired");
  publish_failures_counter_ = CounterHandle(metrics, "agent.publish_failures");
  publish_retries_counter_ = CounterHandle(metrics, "agent.publish_retries");
  process_down_counter_ = CounterHandle(metrics, "agent.process_down_reports");
  keepalives_counter_ = CounterHandle(metrics, "agent.keepalives");
  root_campaigns_counter_ = CounterHandle(metrics, "agent.root_campaigns");
}

void WorkerAgent::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  last_status_ = kStatusHealthy;
  AcquireLeaseAndPublish();
  keepalive_timer_->Start();
  root_poll_timer_->Start();
}

void WorkerAgent::Stop() {
  started_ = false;
  lease_ = kNoLease;
  keepalive_timer_->Stop();
  root_poll_timer_->Stop();
  if (root_watch_ != 0) {
    kv_.CancelWatch(root_watch_);
    root_watch_ = 0;
  }
}

void WorkerAgent::AcquireLeaseAndPublish() {
  if (!machine_ok()) {
    return;
  }
  kv_.LeaseGrant(config_.health_lease_ttl, [this](StatusOr<LeaseId> lease) {
    if (!started_ || !machine_ok()) {
      return;
    }
    if (!lease.ok()) {
      // No KV leader yet (e.g. right after startup); retry on the next tick.
      return;
    }
    lease_ = *lease;
    lease_acquired_counter_->Increment();
    PublishStatus(last_status_);
  });
}

void WorkerAgent::PublishStatus(const std::string& status) {
  // Recorded even without a lease: the next grant publishes it, so a status
  // reported before the first lease (or in a lease gap) is not lost.
  last_status_ = status;
  if (!machine_ok() || lease_ == kNoLease) {
    return;
  }
  kv_.Put(health_key(), status, lease_, [this, status](Status put_status) {
    if (!put_status.ok()) {
      // A dropped publish must not go unnoticed: a process_down status that
      // never lands means the root agent never starts recovery. Count it and
      // retry on the next keepalive tick.
      publish_retry_pending_ = true;
      publish_failures_counter_->Increment();
      if (tracer_ != nullptr) {
        tracer_->Event("agent_publish_failed", "agent",
                       {TraceAttr::Int("rank", rank_), TraceAttr::Text("status", status)});
      }
      GEMINI_LOG(kWarning) << "worker " << rank_ << ": health publish failed (" << put_status
                           << "); will retry on next keepalive";
      return;
    }
    publish_retry_pending_ = false;
  });
}

void WorkerAgent::ReportProcessDown() {
  process_down_counter_->Increment();
  PublishStatus(kStatusProcessDown);
}

void WorkerAgent::ReportHealthy() { PublishStatus(kStatusHealthy); }

void WorkerAgent::OnKeepAliveTick() {
  // A dead machine stops keeping its lease alive; the health key expires and
  // the root agent notices the rank vanished.
  if (!machine_ok()) {
    return;
  }
  if (lease_ == kNoLease) {
    AcquireLeaseAndPublish();
    return;
  }
  keepalives_counter_->Increment();
  kv_.LeaseKeepAlive(lease_, [this](Status status) {
    if (!status.ok() && started_ && machine_ok()) {
      // Lease may have expired during a KV leader change; reacquire.
      lease_ = kNoLease;
      return;
    }
    if (publish_retry_pending_ && started_ && machine_ok()) {
      publish_retries_counter_->Increment();
      if (tracer_ != nullptr) {
        tracer_->Event("agent_publish_retry", "agent", {TraceAttr::Int("rank", rank_)});
      }
      PublishStatus(last_status_);
    }
  });
}

void WorkerAgent::OnRootPollTick() {
  if (!machine_ok() || lease_ == kNoLease) {
    return;
  }
  const StatusOr<KvEntry> root = kv_.Get(kRootKey);
  if (root.ok()) {
    // Root alive: stop polling and wait for the key's deletion instead.
    root_poll_timer_->Stop();
    if (root_watch_ == 0) {
      root_watch_ =
          kv_.Watch(kRootKey, [this](const WatchEvent& event) { OnRootKeyEvent(event); });
    }
    return;
  }
  if (root.status().code() != StatusCode::kNotFound) {
    return;  // KV unavailable; try next tick.
  }
  // Root key expired: campaign. The key is attached to our health lease so a
  // root that later dies is detected the same way.
  root_campaigns_counter_->Increment();
  kv_.PutIfAbsent(kRootKey, std::to_string(rank_), lease_, [this](Status status) {
    if (!status.ok()) {
      return;
    }
    const StatusOr<KvEntry> winner = kv_.Get(kRootKey);
    if (winner.ok() && winner->value == std::to_string(rank_)) {
      GEMINI_LOG(kInfo) << "worker " << rank_ << " promoted to root agent";
      if (on_promoted_) {
        on_promoted_();
      }
    }
  });
}

void WorkerAgent::OnRootKeyEvent(const WatchEvent& event) {
  if (event.type == WatchEventType::kPut || event.key != kRootKey) {
    return;
  }
  // The root key was deleted or its lease expired: poll now, which
  // campaigns, and keep polling until some campaign wins.
  root_poll_timer_->Start(/*fire_now=*/true);
}

}  // namespace gemini
