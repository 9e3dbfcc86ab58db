// Tests for the failure-recovery control plane: worker agents (heartbeat
// leases), the root agent (failure classification), the cloud operator, and
// the failure injector.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/agent/cloud_operator.h"
#include "src/agent/failure_injector.h"
#include "src/agent/root_agent.h"
#include "src/agent/worker_agent.h"
#include "src/cluster/cluster.h"
#include "src/kvstore/kv_store.h"
#include "src/obs/metrics.h"

namespace gemini {
namespace {

class AgentTest : public ::testing::Test {
 protected:
  AgentTest() {
    cluster_ = std::make_unique<Cluster>(sim_, 4, P4d24xlarge(), FabricConfig{});
    kv_ = std::make_unique<KvStoreCluster>(
        sim_, cluster_->fabric(), std::vector<int>{0, 1, 2},
        [this](int rank) { return cluster_->machine(rank).alive(); }, KvStoreConfig{},
        /*seed=*/77);
    kv_->Start();
    for (int rank = 0; rank < 4; ++rank) {
      workers_.push_back(
          std::make_unique<WorkerAgent>(sim_, *cluster_, *kv_, rank, AgentConfig{}));
    }
  }

  void StartWorkers() {
    for (auto& worker : workers_) {
      worker->Start();
    }
  }

  void Settle(TimeNs duration) { sim_.RunUntil(sim_.now() + duration); }

  Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<KvStoreCluster> kv_;
  std::vector<std::unique_ptr<WorkerAgent>> workers_;
};

TEST_F(AgentTest, WorkersPublishHealthKeys) {
  StartWorkers();
  Settle(Seconds(10));
  const auto health = kv_->List(kHealthKeyPrefix);
  EXPECT_EQ(health.size(), 4u);
  for (const auto& [key, entry] : health) {
    EXPECT_EQ(entry.value, kStatusHealthy);
    EXPECT_NE(entry.lease, kNoLease);
  }
}

TEST_F(AgentTest, HealthKeySurvivesWithKeepAlive) {
  StartWorkers();
  Settle(Minutes(1));  // Many lease TTLs.
  EXPECT_EQ(kv_->List(kHealthKeyPrefix).size(), 4u);
}

TEST_F(AgentTest, DeadMachineKeyExpires) {
  StartWorkers();
  Settle(Seconds(10));
  cluster_->machine(3).set_health(MachineHealth::kDead);
  // Lease TTL is 10 s; give it time to lapse.
  Settle(Seconds(25));
  const auto health = kv_->List(kHealthKeyPrefix);
  EXPECT_EQ(health.size(), 3u);
  EXPECT_FALSE(health.contains(std::string(kHealthKeyPrefix) + "3"));
}

TEST_F(AgentTest, ProcessDownIsPublishedNotExpired) {
  StartWorkers();
  Settle(Seconds(10));
  workers_[2]->ReportProcessDown();
  Settle(Seconds(15));
  const auto entry = kv_->Get(std::string(kHealthKeyPrefix) + "2");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->value, kStatusProcessDown);
  workers_[2]->ReportHealthy();
  Settle(Seconds(5));
  EXPECT_EQ(kv_->Get(std::string(kHealthKeyPrefix) + "2")->value, kStatusHealthy);
}

TEST_F(AgentTest, ProcessDownReportedBeforeFirstLeaseIsPublished) {
  StartWorkers();
  // No KV leader yet, so the worker's first lease grant has not landed.
  ASSERT_FALSE(kv_->LeaderRank().has_value());
  workers_[2]->ReportProcessDown();
  Settle(Seconds(15));
  const auto entry = kv_->Get(std::string(kHealthKeyPrefix) + "2");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->value, kStatusProcessDown);
}

TEST_F(AgentTest, ExactlyOneWorkerWinsRootElection) {
  std::vector<int> promoted;
  for (int rank = 0; rank < 4; ++rank) {
    workers_[static_cast<size_t>(rank)]->set_on_promoted_to_root(
        [&promoted, rank] { promoted.push_back(rank); });
  }
  StartWorkers();
  Settle(Seconds(30));
  ASSERT_EQ(promoted.size(), 1u);
  const auto root = kv_->Get(kRootKey);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->value, std::to_string(promoted[0]));
}

TEST_F(AgentTest, RootFailoverPromotesAnotherWorker) {
  std::vector<int> promoted;
  for (int rank = 0; rank < 4; ++rank) {
    workers_[static_cast<size_t>(rank)]->set_on_promoted_to_root(
        [&promoted, rank] { promoted.push_back(rank); });
  }
  StartWorkers();
  Settle(Seconds(30));
  ASSERT_EQ(promoted.size(), 1u);
  const int first_root = promoted[0];
  // Killing one machine leaves the 3-node KV quorum intact even when the
  // root happens to sit on a KV server.
  cluster_->machine(first_root).set_health(MachineHealth::kDead);
  Settle(Minutes(1));
  ASSERT_EQ(promoted.size(), 2u) << "no replacement root was promoted";
  EXPECT_NE(promoted[1], first_root);
  EXPECT_EQ(kv_->Get(kRootKey)->value, std::to_string(promoted[1]));
}

TEST_F(AgentTest, WorkersStopPollingOnceTheyKnowALiveRoot) {
  StartWorkers();
  Settle(Seconds(30));
  ASSERT_TRUE(kv_->Get(kRootKey).ok());
  for (const auto& worker : workers_) {
    EXPECT_FALSE(worker->polling_root()) << "worker " << worker->rank();
  }
}

TEST_F(AgentTest, RootFailoverPromotesWithinAHeartbeatOfTheRootKeysRevoke) {
  std::vector<std::pair<int, TimeNs>> promoted;
  for (int rank = 0; rank < 4; ++rank) {
    workers_[static_cast<size_t>(rank)]->set_on_promoted_to_root(
        [this, &promoted, rank] { promoted.emplace_back(rank, sim_.now()); });
  }
  StartWorkers();
  Settle(Seconds(30));
  ASSERT_EQ(promoted.size(), 1u);
  const int first_root = promoted[0].first;
  // Delivered at the same instant as the workers' own watch events.
  TimeNs revoked_at = -1;
  kv_->Watch(kRootKey, [&](const WatchEvent& event) {
    if (event.type == WatchEventType::kExpired && revoked_at < 0) {
      revoked_at = sim_.now();
    }
  });
  cluster_->machine(first_root).set_health(MachineHealth::kDead);
  Settle(Minutes(1));
  ASSERT_EQ(promoted.size(), 2u) << "no replacement root was promoted";
  ASSERT_GE(revoked_at, 0);
  EXPECT_NE(promoted[1].first, first_root);
  EXPECT_GE(promoted[1].second, revoked_at);
  EXPECT_LE(promoted[1].second - revoked_at,
            KvStoreConfig{}.heartbeat_interval + FabricConfig{}.control_delay)
      << "promotion waited for a poll instead of the watch";
  for (const auto& worker : workers_) {
    if (worker->rank() != first_root) {
      EXPECT_FALSE(worker->polling_root()) << "worker " << worker->rank();
    }
  }
}

TEST_F(AgentTest, CampaignWithoutKvLeaderIsRetried) {
  std::vector<int> promoted;
  for (int rank = 0; rank < 4; ++rank) {
    workers_[static_cast<size_t>(rank)]->set_on_promoted_to_root(
        [&promoted, rank] { promoted.push_back(rank); });
  }
  StartWorkers();
  Settle(Seconds(30));
  ASSERT_EQ(promoted.size(), 1u);
  const int kv_leader = *kv_->LeaderRank();
  ASSERT_NE(kv_leader, promoted[0]);
  // The KV leader's machine dies as the root key's deletion commits, so the
  // watch events arrive while the KV has no leader: the campaign they start
  // cannot reach the store and must be retried once a new leader exists.
  kv_->Delete(kRootKey, [&](Status status) {
    ASSERT_TRUE(status.ok());
    cluster_->machine(kv_leader).set_health(MachineHealth::kDead);
  });
  Settle(2 * FabricConfig{}.control_delay);
  ASSERT_EQ(kv_->Get(kRootKey).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(promoted.size(), 1u);
  Settle(Seconds(30));
  ASSERT_EQ(promoted.size(), 2u) << "the failed campaign was never retried";
  const StatusOr<KvEntry> root = kv_->Get(kRootKey);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->value, std::to_string(promoted[1]));
  EXPECT_NE(promoted[1], kv_leader);
}

TEST_F(AgentTest, WorkerDestroyedWhileItsWatchEventIsInFlightIsNeverCalled) {
  std::vector<int> promoted;
  for (int rank = 0; rank < 4; ++rank) {
    workers_[static_cast<size_t>(rank)]->set_on_promoted_to_root(
        [&promoted, rank] { promoted.push_back(rank); });
  }
  StartWorkers();
  Settle(Seconds(30));
  ASSERT_EQ(promoted.size(), 1u);
  bool committed = false;
  kv_->Delete(kRootKey, [&](Status status) { committed = status.ok(); });
  while (!committed) {
    Settle(Micros(1));
  }
  // The deletion's watch events are scheduled; destroy one watcher, as
  // GeminiSystem::RestartAgentsForRank does, before they arrive.
  const size_t destroyed = promoted[0] == 3 ? 2 : 3;
  workers_[destroyed].reset();
  Settle(Seconds(30));
  ASSERT_EQ(promoted.size(), 2u);
  EXPECT_NE(promoted[1], static_cast<int>(destroyed));
}

TEST_F(AgentTest, RootAgentDetectsHardwareFailure) {
  StartWorkers();
  std::vector<FailureReport> reports;
  RootAgent root(sim_, *cluster_, *kv_, 0, AgentConfig{},
                 [&](const FailureReport& report) { reports.push_back(report); });
  root.Start();
  Settle(Seconds(20));
  EXPECT_TRUE(reports.empty());

  cluster_->machine(3).set_health(MachineHealth::kDead);
  Settle(Seconds(30));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].type, FailureType::kHardware);
  EXPECT_EQ(reports[0].ranks, (std::vector<int>{3}));
  // Suppressed until cleared, then detectable again.
  Settle(Seconds(30));
  EXPECT_EQ(reports.size(), 1u);
}

TEST_F(AgentTest, RootAgentDetectsSoftwareFailure) {
  StartWorkers();
  std::vector<FailureReport> reports;
  RootAgent root(sim_, *cluster_, *kv_, 0, AgentConfig{},
                 [&](const FailureReport& report) { reports.push_back(report); });
  root.Start();
  Settle(Seconds(20));
  workers_[1]->ReportProcessDown();
  Settle(Seconds(20));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].type, FailureType::kSoftware);
  EXPECT_EQ(reports[0].ranks, (std::vector<int>{1}));
}

TEST_F(AgentTest, DetectionLatencyMatchesFigure14Scale) {
  // The paper measures ~15 s to detect a failure; with a 10 s lease TTL and
  // 5 s scans, detection should land within roughly 10-30 s.
  StartWorkers();
  std::vector<FailureReport> reports;
  RootAgent root(sim_, *cluster_, *kv_, 0, AgentConfig{},
                 [&](const FailureReport& report) { reports.push_back(report); });
  root.Start();
  Settle(Seconds(30));
  const TimeNs failed_at = sim_.now();
  cluster_->machine(3).set_health(MachineHealth::kDead);
  Settle(Minutes(2));
  ASSERT_EQ(reports.size(), 1u);
  const TimeNs latency = reports[0].detected_at - failed_at;
  EXPECT_GE(latency, Seconds(5));
  EXPECT_LE(latency, Seconds(30));
}

TEST_F(AgentTest, PausedRootAgentReportsNothing) {
  StartWorkers();
  std::vector<FailureReport> reports;
  RootAgent root(sim_, *cluster_, *kv_, 0, AgentConfig{},
                 [&](const FailureReport& report) { reports.push_back(report); });
  root.Start();
  root.SetPaused(true);
  Settle(Seconds(20));
  cluster_->machine(3).set_health(MachineHealth::kDead);
  Settle(Minutes(1));
  EXPECT_TRUE(reports.empty());
  root.SetPaused(false);
  Settle(Seconds(30));
  EXPECT_EQ(reports.size(), 1u);
}

TEST_F(AgentTest, HealthKeysSurviveKvLeaderFailover) {
  StartWorkers();
  Settle(Seconds(15));
  ASSERT_EQ(kv_->List(kHealthKeyPrefix).size(), 4u);
  // Kill the KV leader's machine; leases and keys are replicated state, and
  // worker keepalives retry through the new leader.
  const auto leader = kv_->LeaderRank();
  ASSERT_TRUE(leader.has_value());
  cluster_->machine(*leader).set_health(MachineHealth::kDead);
  Settle(Minutes(1));
  const auto health = kv_->List(kHealthKeyPrefix);
  // The dead machine's own key expired; the three survivors' keys live on.
  EXPECT_EQ(health.size(), 3u);
  for (int rank = 0; rank < 4; ++rank) {
    if (rank != *leader) {
      EXPECT_TRUE(health.contains(std::string(kHealthKeyPrefix) + std::to_string(rank)))
          << "rank " << rank << " lost its health key across the KV failover";
    }
  }
}

TEST_F(AgentTest, LiveAgentRegrantsRevokedLease) {
  MetricsRegistry metrics;
  workers_[2]->set_metrics(&metrics);
  StartWorkers();
  Settle(Seconds(10));
  const std::string key = std::string(kHealthKeyPrefix) + "2";
  const StatusOr<KvEntry> before = kv_->Get(key);
  ASSERT_TRUE(before.ok());
  const int64_t acquired = metrics.counter_value("agent.lease_acquired");
  kv_->LeaseRevoke(before->lease, [](Status) {});
  Settle(Millis(10));
  ASSERT_EQ(kv_->Get(key).status().code(), StatusCode::kNotFound);
  // The next keepalive is refused with kNotFound, which drops the lease; the
  // one after grants a new lease and republishes the key.
  Settle(2 * AgentConfig{}.keepalive_interval);
  EXPECT_EQ(metrics.counter_value("agent.lease_acquired"), acquired + 1);
  const StatusOr<KvEntry> after = kv_->Get(key);
  ASSERT_TRUE(after.ok()) << "live agent never recovered its health key";
  EXPECT_EQ(after->value, kStatusHealthy);
  EXPECT_NE(after->lease, before->lease);
}

// A root agent on 12 machines: health keys with one- and two-digit ranks
// ("/10" sorts before "/2").
class RootAgentScanTest : public ::testing::Test {
 protected:
  static constexpr int kMachines = 12;
  static constexpr int kRootRank = 5;

  RootAgentScanTest() {
    cluster_ = std::make_unique<Cluster>(sim_, kMachines, P4d24xlarge(), FabricConfig{});
    kv_ = std::make_unique<KvStoreCluster>(
        sim_, cluster_->fabric(), std::vector<int>{0, 1, 2},
        [this](int rank) { return cluster_->machine(rank).alive(); }, KvStoreConfig{},
        /*seed=*/78);
    kv_->Start();
    for (int rank = 0; rank < kMachines; ++rank) {
      workers_.push_back(
          std::make_unique<WorkerAgent>(sim_, *cluster_, *kv_, rank, AgentConfig{}));
      workers_.back()->Start();
    }
    root_ = std::make_unique<RootAgent>(
        sim_, *cluster_, *kv_, kRootRank, AgentConfig{},
        [this](const FailureReport& report) { reports_.push_back(report); });
    root_->set_metrics(&metrics_);
    root_->Start();
  }

  void Settle(TimeNs duration) { sim_.RunUntil(sim_.now() + duration); }

  Simulator sim_;
  MetricsRegistry metrics_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<KvStoreCluster> kv_;
  std::vector<std::unique_ptr<WorkerAgent>> workers_;
  std::unique_ptr<RootAgent> root_;
  std::vector<FailureReport> reports_;
};

TEST_F(RootAgentScanTest, ClassifiesMultiDigitRanksInAscendingOrder) {
  Settle(Seconds(30));
  ASSERT_TRUE(reports_.empty());
  // Report nothing while the failures land, then scan once they all have.
  root_->SetPaused(true);
  workers_[11]->ReportProcessDown();
  workers_[3]->ReportProcessDown();
  cluster_->machine(10).set_health(MachineHealth::kDead);
  cluster_->machine(7).set_health(MachineHealth::kDead);
  Settle(Seconds(30));
  root_->SetPaused(false);
  Settle(Seconds(20));
  // Hardware failures subsume the software ones in the same scan; the next
  // scan reports those.
  ASSERT_EQ(reports_.size(), 2u);
  EXPECT_EQ(reports_[0].type, FailureType::kHardware);
  EXPECT_EQ(reports_[0].ranks, (std::vector<int>{7, 10}));
  EXPECT_EQ(reports_[1].type, FailureType::kSoftware);
  EXPECT_EQ(reports_[1].ranks, (std::vector<int>{3, 11}));
}

TEST_F(RootAgentScanTest, SendsNothingWhileKvHasNoLeader) {
  Settle(Seconds(30));
  const int64_t scans = metrics_.counter_value("agent.root_scans");
  ASSERT_GT(scans, 0);
  // Kill the KV leader and one more KV server: the last one cannot win an
  // election, and nothing is readable.
  const int kv_leader = *kv_->LeaderRank();
  ASSERT_NE(kv_leader, kRootRank);
  cluster_->machine(kv_leader).set_health(MachineHealth::kDead);
  cluster_->machine(kv_leader == 0 ? 1 : 0).set_health(MachineHealth::kDead);
  Settle(Minutes(1));
  EXPECT_FALSE(kv_->LeaderRank().has_value());
  EXPECT_TRUE(reports_.empty());
  EXPECT_EQ(metrics_.counter_value("agent.root_scans"), scans);
}

// ---------------------------------------------------------------------------
// CloudOperator
// ---------------------------------------------------------------------------

TEST(CloudOperatorTest, ProvisioningTakesMinutes) {
  Simulator sim;
  Cluster cluster(sim, 4, P4d24xlarge(), FabricConfig{});
  CloudOperator operator_(sim, cluster, CloudOperatorConfig{}, /*seed=*/5);
  cluster.machine(2).set_health(MachineHealth::kDead);
  TimeNs ready_at = -1;
  operator_.ReplaceMachine(2, [&](Machine& machine) {
    EXPECT_EQ(machine.incarnation(), 1);
    ready_at = sim.now();
  });
  sim.Run();
  EXPECT_GE(ready_at, Minutes(4));
  EXPECT_LE(ready_at, Minutes(7));
  EXPECT_EQ(operator_.total_replacements(), 1);
}

TEST(CloudOperatorTest, StandbyActivatesInSeconds) {
  Simulator sim;
  Cluster cluster(sim, 4, P4d24xlarge(), FabricConfig{});
  CloudOperatorConfig config;
  config.num_standby = 1;
  CloudOperator operator_(sim, cluster, config, /*seed=*/5);
  TimeNs ready_at = -1;
  operator_.ReplaceMachine(1, [&](Machine&) { ready_at = sim.now(); });
  EXPECT_EQ(operator_.standby_available(), 0);
  sim.Run();
  EXPECT_EQ(ready_at, Seconds(10));
  // The pool replenishes in the background.
  EXPECT_EQ(operator_.standby_available(), 1);
}

TEST(CloudOperatorTest, SecondFailureWithoutStandbyPaysFullDelay) {
  Simulator sim;
  Cluster cluster(sim, 4, P4d24xlarge(), FabricConfig{});
  CloudOperatorConfig config;
  config.num_standby = 1;
  CloudOperator operator_(sim, cluster, config, /*seed=*/5);
  std::vector<TimeNs> ready;
  operator_.ReplaceMachine(1, [&](Machine&) { ready.push_back(sim.now()); });
  operator_.ReplaceMachine(2, [&](Machine&) { ready.push_back(sim.now()); });
  sim.Run();
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_LE(ready[0], Seconds(10));
  EXPECT_GE(ready[1], Minutes(4));
}

// ---------------------------------------------------------------------------
// FailureInjector
// ---------------------------------------------------------------------------

TEST(FailureInjectorTest, ScriptedInjectionFlipsHealth) {
  Simulator sim;
  Cluster cluster(sim, 4, P4d24xlarge(), FabricConfig{});
  FailureInjector injector(sim, cluster, /*seed=*/3);
  std::vector<FailureEvent> observed;
  injector.set_observer([&](const FailureEvent& event) { observed.push_back(event); });
  injector.InjectAt(Seconds(5), FailureType::kSoftware, {1});
  injector.InjectAt(Seconds(9), FailureType::kHardware, {2, 3});
  sim.Run();
  EXPECT_EQ(cluster.machine(1).health(), MachineHealth::kProcessDown);
  EXPECT_EQ(cluster.machine(2).health(), MachineHealth::kDead);
  EXPECT_EQ(cluster.machine(3).health(), MachineHealth::kDead);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0].time, Seconds(5));
  EXPECT_EQ(injector.injected_count(), 2);
}

TEST(FailureInjectorTest, HardwareDoesNotResurrectDeadMachines) {
  Simulator sim;
  Cluster cluster(sim, 2, P4d24xlarge(), FabricConfig{});
  FailureInjector injector(sim, cluster, 3);
  injector.InjectAt(Seconds(1), FailureType::kHardware, {0});
  injector.InjectAt(Seconds(2), FailureType::kSoftware, {0});  // Already dead.
  sim.Run();
  EXPECT_EQ(cluster.machine(0).health(), MachineHealth::kDead);
}

TEST(FailureInjectorTest, PoissonArrivalsMatchExpectedRate) {
  Simulator sim;
  Cluster cluster(sim, 16, P4d24xlarge(), FabricConfig{});
  FailureInjector injector(sim, cluster, /*seed=*/101);
  int software = 0;
  int hardware = 0;
  injector.set_observer([&](const FailureEvent& event) {
    // Keep machines alive so the process continues at a constant rate.
    for (const int rank : event.ranks) {
      cluster.machine(rank).set_health(MachineHealth::kHealthy);
    }
    (event.type == FailureType::kSoftware ? software : hardware) += 1;
  });
  // 1.5% per machine per day over 16 machines for 200 days: expect ~48.
  injector.StartRandomArrivals(0.015, /*software_fraction=*/0.75, Hours(24 * 200));
  sim.Run();
  const int total = software + hardware;
  EXPECT_NEAR(total, 48, 20);
  EXPECT_GT(software, hardware);  // Most failures are software failures.
}

}  // namespace
}  // namespace gemini
