#include "src/agent/root_agent.h"

#include <charconv>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/logging.h"

namespace gemini {

RootAgent::RootAgent(Simulator& sim, Cluster& cluster, KvStoreCluster& kv, int rank,
                     AgentConfig config, std::function<void(const FailureReport&)> on_failure)
    : sim_(sim),
      cluster_(cluster),
      kv_(kv),
      rank_(rank),
      config_(config),
      on_failure_(std::move(on_failure)) {
  scan_timer_ =
      std::make_unique<RepeatingTimer>(sim_, config_.root_scan_interval, [this] { OnScanTick(); });
}

RootAgent::~RootAgent() = default;

void RootAgent::set_metrics(MetricsRegistry* metrics) {
  root_scans_counter_ = CounterHandle(metrics, "agent.root_scans");
  heartbeat_misses_counter_ = CounterHandle(metrics, "agent.heartbeat_misses");
  failures_reported_counter_ = CounterHandle(metrics, "agent.failures_reported");
}

void RootAgent::Start() {
  started_at_ = sim_.now();
  scan_timer_->Start();
}

void RootAgent::Stop() { scan_timer_->Stop(); }

void RootAgent::SetPaused(bool paused) {
  paused_ = paused;
  if (!paused) {
    grace_until_ = sim_.now() + config_.root_scan_interval;
  }
}

void RootAgent::ClearHandled(const std::vector<int>& ranks) {
  for (const int rank : ranks) {
    handled_.erase(rank);
  }
}

void RootAgent::OnScanTick() {
  // A dead root machine stops scanning; workers will notice the root key
  // expire and promote a replacement.
  if (!cluster_.machine(rank_).alive() || paused_ || sim_.now() < grace_until_) {
    return;
  }
  // Health keys only become authoritative once the initial publish plus one
  // full lease period has passed.
  if (sim_.now() < started_at_ + config_.health_lease_ttl + config_.root_scan_interval) {
    return;
  }
  // While the KV store has no leader (e.g. its leader's machine just died)
  // nothing can be read, and an empty scan would make every rank look
  // failed. Scan again on the next tick.
  const std::optional<uint64_t> applied = kv_.AppliedIndex();
  if (!applied.has_value()) {
    return;
  }
  if (applied != walked_index_) {
    WalkHealthKeys();
    walked_index_ = applied;
  }
  root_scans_counter_->Increment();
  std::vector<int> hardware_failed;
  std::vector<int> software_failed;
  for (const auto& [rank, status] : unhealthy_) {
    if (handled_.contains(rank)) {
      continue;
    }
    if (status == Health::kMissing) {
      // Lease expired: the machine stopped heartbeating => hardware failure.
      heartbeat_misses_counter_->Increment();
      hardware_failed.push_back(rank);
    } else {
      software_failed.push_back(rank);
    }
  }

  // Hardware failures subsume concurrent software failures: replacement and
  // group-based retrieval handle both (Section 6.2 case analysis).
  if (!hardware_failed.empty()) {
    Report(FailureType::kHardware, std::move(hardware_failed));
  } else if (!software_failed.empty()) {
    Report(FailureType::kSoftware, std::move(software_failed));
  }
}

void RootAgent::WalkHealthKeys() {
  ++health_walks_;
  std::vector<Health> health(static_cast<size_t>(cluster_.size()), Health::kMissing);
  kv_.VisitPrefix(kHealthKeyPrefix, [&health](const std::string& key, const KvEntry& entry) {
    constexpr size_t kPrefixLength = sizeof(kHealthKeyPrefix) - 1;
    const char* last = key.data() + key.size();
    int rank = -1;
    const auto [end, error] = std::from_chars(key.data() + kPrefixLength, last, rank);
    if (error != std::errc{} || end != last || rank < 0 ||
        static_cast<size_t>(rank) >= health.size()) {
      return;  // Not a health key of this cluster.
    }
    health[static_cast<size_t>(rank)] =
        entry.value == kStatusProcessDown ? Health::kProcessDown : Health::kHealthy;
  });
  unhealthy_.clear();
  for (int rank = 0; rank < cluster_.size(); ++rank) {
    if (health[static_cast<size_t>(rank)] != Health::kHealthy) {
      unhealthy_.emplace_back(rank, health[static_cast<size_t>(rank)]);
    }
  }
}

void RootAgent::Report(FailureType type, std::vector<int> ranks) {
  handled_.insert(ranks.begin(), ranks.end());
  GEMINI_LOG(kInfo) << "root agent: detected " << FailureTypeName(type) << " failure on "
                    << ranks.size() << " machine(s) at " << FormatDuration(sim_.now());
  failures_reported_counter_->Increment();
  on_failure_(FailureReport{.type = type, .ranks = std::move(ranks), .detected_at = sim_.now()});
}

}  // namespace gemini
