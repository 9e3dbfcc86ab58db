// Tests for the replicated key-value store: Raft-style election and
// replication, leases/TTL, watches, failover, and catch-up after reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/agent/failure_injector.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fabric.h"
#include "src/kvstore/kv_store.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/sim/timer.h"

namespace gemini {
namespace {

class KvStoreTest : public ::testing::Test {
 protected:
  explicit KvStoreTest(int nodes = 3) : alive_(16, true) {
    FabricConfig config;
    fabric_ = std::make_unique<Fabric>(sim_, 16, config);
    fabric_->set_liveness_check(
        [this](int rank) { return alive_[static_cast<size_t>(rank)]; });
    std::vector<int> ranks;
    for (int i = 0; i < nodes; ++i) {
      ranks.push_back(i);
    }
    kv_ = std::make_unique<KvStoreCluster>(
        sim_, *fabric_, ranks, [this](int rank) { return alive_[static_cast<size_t>(rank)]; },
        KvStoreConfig{}, /*seed=*/1234);
    kv_->Start();
  }

  // Runs until a leader exists (or fails the test).
  void AwaitLeader() {
    for (int i = 0; i < 100 && !kv_->LeaderRank().has_value(); ++i) {
      sim_.RunUntil(sim_.now() + Millis(100));
    }
    ASSERT_TRUE(kv_->LeaderRank().has_value()) << "no leader elected";
  }

  void Settle(TimeNs duration = Seconds(1)) { sim_.RunUntil(sim_.now() + duration); }

  Simulator sim_;
  std::vector<bool> alive_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<KvStoreCluster> kv_;
};

TEST_F(KvStoreTest, ElectsExactlyOneLeader) {
  AwaitLeader();
  int leaders = 0;
  for (int i = 0; i < kv_->num_nodes(); ++i) {
    if (kv_->node(i).role() == KvNode::Role::kLeader) {
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1);
}

TEST_F(KvStoreTest, PutThenGet) {
  AwaitLeader();
  Status put_result = InternalError("pending");
  kv_->Put("/k", "v", kNoLease, [&](Status status) { put_result = status; });
  Settle();
  EXPECT_TRUE(put_result.ok()) << put_result;
  const StatusOr<KvEntry> entry = kv_->Get("/k");
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_EQ(entry->value, "v");
  EXPECT_EQ(entry->lease, kNoLease);
}

TEST_F(KvStoreTest, GetMissingKeyIsNotFound) {
  AwaitLeader();
  EXPECT_EQ(kv_->Get("/nope").status().code(), StatusCode::kNotFound);
}

TEST_F(KvStoreTest, PutBeforeLeaderElectedFailsUnavailable) {
  // No settling: immediately propose.
  Status result = Status::Ok();
  kv_->Put("/k", "v", kNoLease, [&](Status status) { result = status; });
  EXPECT_EQ(result.code(), StatusCode::kUnavailable);
}

TEST_F(KvStoreTest, OverwriteUpdatesValueAndModIndex) {
  AwaitLeader();
  kv_->Put("/k", "v1", kNoLease, [](Status) {});
  Settle();
  const uint64_t first_index = kv_->Get("/k")->mod_index;
  kv_->Put("/k", "v2", kNoLease, [](Status) {});
  Settle();
  const StatusOr<KvEntry> entry = kv_->Get("/k");
  EXPECT_EQ(entry->value, "v2");
  EXPECT_GT(entry->mod_index, first_index);
}

TEST_F(KvStoreTest, DeleteRemovesKey) {
  AwaitLeader();
  kv_->Put("/k", "v", kNoLease, [](Status) {});
  Settle();
  kv_->Delete("/k", [](Status) {});
  Settle();
  EXPECT_EQ(kv_->Get("/k").status().code(), StatusCode::kNotFound);
}

TEST_F(KvStoreTest, ListReturnsPrefixMatchesOnly) {
  AwaitLeader();
  kv_->Put("/health/0", "ok", kNoLease, [](Status) {});
  kv_->Put("/health/1", "ok", kNoLease, [](Status) {});
  kv_->Put("/other", "x", kNoLease, [](Status) {});
  Settle();
  const auto entries = kv_->List("/health/");
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries.contains("/health/0"));
  EXPECT_TRUE(entries.contains("/health/1"));
}

TEST_F(KvStoreTest, CommittedStateReplicatesToFollowers) {
  AwaitLeader();
  kv_->Put("/k", "v", kNoLease, [](Status) {});
  Settle(Seconds(2));
  for (int i = 0; i < kv_->num_nodes(); ++i) {
    const auto entry = kv_->node(i).GetApplied("/k");
    ASSERT_TRUE(entry.has_value()) << "node " << i << " missing the committed key";
    EXPECT_EQ(entry->value, "v");
  }
}

TEST_F(KvStoreTest, PutIfAbsentFirstWriterWins) {
  AwaitLeader();
  kv_->PutIfAbsent("/root", "worker-3", kNoLease, [](Status) {});
  kv_->PutIfAbsent("/root", "worker-7", kNoLease, [](Status) {});
  Settle();
  EXPECT_EQ(kv_->Get("/root")->value, "worker-3");
}

TEST_F(KvStoreTest, PutIfAbsentAfterDeleteSucceeds) {
  AwaitLeader();
  kv_->PutIfAbsent("/root", "a", kNoLease, [](Status) {});
  Settle();
  kv_->Delete("/root", [](Status) {});
  Settle();
  kv_->PutIfAbsent("/root", "b", kNoLease, [](Status) {});
  Settle();
  EXPECT_EQ(kv_->Get("/root")->value, "b");
}

TEST_F(KvStoreTest, LeaseGrantReturnsId) {
  AwaitLeader();
  StatusOr<LeaseId> granted = InternalError("pending");
  kv_->LeaseGrant(Seconds(5), [&](StatusOr<LeaseId> lease) { granted = std::move(lease); });
  Settle();
  ASSERT_TRUE(granted.ok()) << granted.status();
  EXPECT_GT(*granted, 0u);
}

TEST_F(KvStoreTest, LeaseExpiryDeletesAttachedKeys) {
  AwaitLeader();
  StatusOr<LeaseId> granted = InternalError("pending");
  kv_->LeaseGrant(Seconds(2), [&](StatusOr<LeaseId> lease) { granted = std::move(lease); });
  Settle();
  ASSERT_TRUE(granted.ok());
  kv_->Put("/health/9", "ok", *granted, [](Status) {});
  Settle();
  EXPECT_TRUE(kv_->Get("/health/9").ok());
  // Let the lease expire (no keepalive).
  Settle(Seconds(4));
  EXPECT_EQ(kv_->Get("/health/9").status().code(), StatusCode::kNotFound);
}

TEST_F(KvStoreTest, KeepAliveExtendsLease) {
  AwaitLeader();
  StatusOr<LeaseId> granted = InternalError("pending");
  kv_->LeaseGrant(Seconds(2), [&](StatusOr<LeaseId> lease) { granted = std::move(lease); });
  Settle();
  kv_->Put("/health/9", "ok", *granted, [](Status) {});
  Settle();
  // Keep alive every second for 6 seconds; key must survive.
  for (int i = 0; i < 6; ++i) {
    kv_->LeaseKeepAlive(*granted, [](Status) {});
    Settle(Seconds(1));
  }
  EXPECT_TRUE(kv_->Get("/health/9").ok());
}

TEST_F(KvStoreTest, KeepAliveDoesNotPropose) {
  MetricsRegistry metrics;
  kv_->set_observability(&metrics, nullptr);
  AwaitLeader();
  StatusOr<LeaseId> granted = InternalError("pending");
  kv_->LeaseGrant(Seconds(2), [&](StatusOr<LeaseId> lease) { granted = std::move(lease); });
  Settle();
  ASSERT_TRUE(granted.ok()) << granted.status();
  const KvNode& leader = kv_->node(*kv_->LeaderRank());
  const uint64_t committed_before = leader.commit_index();
  const int64_t proposals_before = metrics.counter_value("kv.proposals");
  int renewed = 0;
  for (int i = 0; i < 1000; ++i) {
    // Answered before LeaseKeepAlive returns: no consensus round to wait for.
    kv_->LeaseKeepAlive(*granted, [&](Status status) { renewed += status.ok() ? 1 : 0; });
  }
  EXPECT_EQ(renewed, 1000);
  Settle();
  EXPECT_EQ(leader.commit_index(), committed_before);
  EXPECT_EQ(metrics.counter_value("kv.proposals"), proposals_before);
}

TEST_F(KvStoreTest, KeepAliveOnUnknownOrRevokedLeaseIsNotFound) {
  AwaitLeader();
  Status unknown = Status::Ok();
  kv_->LeaseKeepAlive(/*lease=*/42, [&](Status status) { unknown = status; });
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);

  StatusOr<LeaseId> granted = InternalError("pending");
  kv_->LeaseGrant(Hours(1), [&](StatusOr<LeaseId> lease) { granted = std::move(lease); });
  Settle();
  ASSERT_TRUE(granted.ok());
  kv_->LeaseRevoke(*granted, [](Status) {});
  Settle();
  Status revoked = Status::Ok();
  kv_->LeaseKeepAlive(*granted, [&](Status status) { revoked = status; });
  EXPECT_EQ(revoked.code(), StatusCode::kNotFound);
}

TEST_F(KvStoreTest, KeepAliveWithoutLeaderIsUnavailable) {
  Status result = Status::Ok();
  kv_->LeaseKeepAlive(/*lease=*/1, [&](Status status) { result = status; });
  EXPECT_EQ(result.code(), StatusCode::kUnavailable);
}

TEST_F(KvStoreTest, LeaderFailoverReextendsLeases) {
  AwaitLeader();
  const TimeNs ttl = Seconds(2);
  StatusOr<LeaseId> granted = InternalError("pending");
  kv_->LeaseGrant(ttl, [&](StatusOr<LeaseId> lease) { granted = std::move(lease); });
  Settle(Millis(10));
  ASSERT_TRUE(granted.ok());
  const TimeNs granted_at = sim_.now();
  kv_->Put("/health/9", "ok", *granted, [](Status) {});
  // Renew through the current leader only, well past the grant's TTL: the
  // followers still hold the grant-time deadline.
  while (sim_.now() < granted_at + 2 * ttl) {
    kv_->LeaseKeepAlive(*granted, [](Status) {});
    Settle(Millis(500));
  }
  const int old_leader = *kv_->LeaderRank();
  alive_[static_cast<size_t>(old_leader)] = false;
  // The holder keeps renewing (failing while no leader exists).
  const TimeNs failed_at = sim_.now();
  while (sim_.now() < failed_at + 3 * ttl) {
    kv_->LeaseKeepAlive(*granted, [](Status) {});
    Settle(Millis(500));
  }
  ASSERT_TRUE(kv_->LeaderRank().has_value());
  EXPECT_NE(*kv_->LeaderRank(), old_leader);
  EXPECT_TRUE(kv_->Get("/health/9").ok()) << "new leader expired a lease it never saw renewed";
}

TEST_F(KvStoreTest, ExpiryStillFiresAfterFailover) {
  AwaitLeader();
  const TimeNs ttl = Seconds(2);
  StatusOr<LeaseId> granted = InternalError("pending");
  kv_->LeaseGrant(ttl, [&](StatusOr<LeaseId> lease) { granted = std::move(lease); });
  Settle(Millis(10));
  ASSERT_TRUE(granted.ok());
  kv_->Put("/health/9", "ok", *granted, [](Status) {});
  for (int i = 0; i < 8; ++i) {
    kv_->LeaseKeepAlive(*granted, [](Status) {});
    Settle(Millis(500));
  }
  // The leader dies and the holder stops renewing at the same moment.
  const int old_leader = *kv_->LeaderRank();
  alive_[static_cast<size_t>(old_leader)] = false;
  const KvStoreConfig config;
  Settle(ttl + config.election_timeout_max + config.heartbeat_interval);
  ASSERT_TRUE(kv_->LeaderRank().has_value());
  EXPECT_NE(*kv_->LeaderRank(), old_leader);
  EXPECT_EQ(kv_->Get("/health/9").status().code(), StatusCode::kNotFound);
}

TEST_F(KvStoreTest, BurstOfProposalsInOneInstantCommitsEverywhere) {
  AwaitLeader();
  // Pipelined replication: each proposal's AppendEntries carries only the
  // entries not yet sent, yet every follower still ends with the whole log.
  int committed = 0;
  for (int i = 0; i < 200; ++i) {
    kv_->Put("/burst/" + std::to_string(i), std::to_string(i), kNoLease,
             [&](Status status) { committed += status.ok() ? 1 : 0; });
  }
  Settle();
  EXPECT_EQ(committed, 200);
  for (int node = 0; node < kv_->num_nodes(); ++node) {
    int applied = 0;
    kv_->node(node).VisitApplied("/burst/",
                                 [&applied](const std::string&, const KvEntry&) { ++applied; });
    EXPECT_EQ(applied, 200) << "node " << node;
  }
}

TEST_F(KvStoreTest, LeaseRevokeDeletesKeysImmediately) {
  AwaitLeader();
  StatusOr<LeaseId> granted = InternalError("pending");
  kv_->LeaseGrant(Hours(1), [&](StatusOr<LeaseId> lease) { granted = std::move(lease); });
  Settle();
  kv_->Put("/a", "1", *granted, [](Status) {});
  kv_->Put("/b", "2", *granted, [](Status) {});
  Settle();
  kv_->LeaseRevoke(*granted, [](Status) {});
  Settle();
  EXPECT_EQ(kv_->Get("/a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(kv_->Get("/b").status().code(), StatusCode::kNotFound);
}

TEST_F(KvStoreTest, WatchSeesPutAndDelete) {
  AwaitLeader();
  std::vector<WatchEvent> events;
  kv_->Watch("/health/", [&](const WatchEvent& event) { events.push_back(event); });
  kv_->Put("/health/3", "ok", kNoLease, [](Status) {});
  kv_->Put("/unrelated", "x", kNoLease, [](Status) {});
  Settle();
  kv_->Delete("/health/3", [](Status) {});
  Settle();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, WatchEventType::kPut);
  EXPECT_EQ(events[0].key, "/health/3");
  EXPECT_EQ(events[0].value, "ok");
  EXPECT_EQ(events[1].type, WatchEventType::kDelete);
}

TEST_F(KvStoreTest, WatchSeesLeaseExpiry) {
  AwaitLeader();
  std::vector<WatchEvent> events;
  kv_->Watch("/health/", [&](const WatchEvent& event) { events.push_back(event); });
  StatusOr<LeaseId> granted = InternalError("pending");
  kv_->LeaseGrant(Seconds(1), [&](StatusOr<LeaseId> lease) { granted = std::move(lease); });
  Settle();
  kv_->Put("/health/5", "ok", *granted, [](Status) {});
  Settle(Seconds(3));
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events.back().type, WatchEventType::kExpired);
  EXPECT_EQ(events.back().key, "/health/5");
}

TEST_F(KvStoreTest, CancelledWatchStopsDelivering) {
  AwaitLeader();
  int count = 0;
  const uint64_t id = kv_->Watch("/k", [&](const WatchEvent&) { ++count; });
  kv_->Put("/k", "1", kNoLease, [](Status) {});
  Settle();
  kv_->CancelWatch(id);
  kv_->Put("/k", "2", kNoLease, [](Status) {});
  Settle();
  EXPECT_EQ(count, 1);
}

TEST_F(KvStoreTest, WatchCancelledBeforeDeliveryNeverFires) {
  AwaitLeader();
  int count = 0;
  const uint64_t id = kv_->Watch("/k", [&](const WatchEvent&) { ++count; });
  bool committed = false;
  kv_->Put("/k", "1", kNoLease, [&](Status status) { committed = status.ok(); });
  // Stop at the commit: the event is scheduled, its delivery control_delay
  // away.
  const TimeNs step = Micros(1);
  while (!committed) {
    sim_.RunUntil(sim_.now() + step);
  }
  kv_->CancelWatch(id);
  Settle();
  EXPECT_EQ(count, 0);
}

// Grants `ttl` leases one after another and returns their ids.
std::vector<LeaseId> GrantLeases(KvStoreCluster& kv, Simulator& sim, TimeNs ttl, int count) {
  std::vector<LeaseId> ids;
  for (int i = 0; i < count; ++i) {
    kv.LeaseGrant(ttl, [&ids](StatusOr<LeaseId> lease) {
      if (lease.ok()) {
        ids.push_back(*lease);
      }
    });
  }
  sim.RunUntil(sim.now() + Millis(10));
  return ids;
}

TEST_F(KvStoreTest, ShortLeaseGrantedAfterLongOnesExpiresOnItsOwnTick) {
  AwaitLeader();
  ASSERT_EQ(GrantLeases(*kv_, sim_, Hours(1), 8).size(), 8u);
  Settle();
  const KvNode& leader = kv_->node(*kv_->LeaderRank());
  ASSERT_GT(leader.lease_deadline_bound(), sim_.now() + Minutes(59));

  // The short grant lowers the bound to its own deadline.
  const TimeNs ttl = Seconds(1);
  const TimeNs granted_at = sim_.now();
  const std::vector<LeaseId> short_lease = GrantLeases(*kv_, sim_, ttl, 1);
  ASSERT_EQ(short_lease.size(), 1u);
  const TimeNs deadline = leader.LeaseDeadline(short_lease[0]);
  EXPECT_EQ(deadline, granted_at + ttl);
  EXPECT_EQ(leader.lease_deadline_bound(), deadline);
  kv_->Put("/short", "v", short_lease[0], [](Status) {});
  TimeNs expired_at = -1;
  kv_->Watch("/short", [&](const WatchEvent& event) {
    if (event.type == WatchEventType::kExpired) {
      expired_at = sim_.now();
    }
  });

  // Up to the deadline no heartbeat walks the lease table.
  Settle(Millis(10));
  const int64_t walks = leader.lease_table_walks();
  sim_.RunUntil(deadline);
  EXPECT_EQ(leader.lease_table_walks(), walks);
  EXPECT_TRUE(kv_->Get("/short").ok());

  // The first tick past the deadline revokes it: one round trip to commit,
  // one control delay to deliver.
  const KvStoreConfig config;
  const TimeNs control_delay = FabricConfig{}.control_delay;
  Settle(config.heartbeat_interval + 3 * control_delay);
  EXPECT_GT(expired_at, deadline);
  EXPECT_LE(expired_at, deadline + config.heartbeat_interval + 3 * control_delay);
  EXPECT_EQ(leader.leases().size(), 8u);
  // With the short lease gone the bound is back at the long leases' deadline.
  Settle(config.heartbeat_interval);
  EXPECT_GT(leader.lease_deadline_bound(), sim_.now() + Minutes(58));
}

TEST_F(KvStoreTest, LeasesExpiringInOneTickAreRevokedOnConsecutiveTicksLowestIdFirst) {
  AwaitLeader();
  const std::vector<LeaseId> ids = GrantLeases(*kv_, sim_, Seconds(1), 2);
  ASSERT_EQ(ids.size(), 2u);
  ASSERT_LT(ids[0], ids[1]);
  const KvNode& leader = kv_->node(*kv_->LeaderRank());
  ASSERT_EQ(leader.LeaseDeadline(ids[0]), leader.LeaseDeadline(ids[1]));
  // Keys in the opposite order to lease ids: revocation follows the ids.
  kv_->Put("/z", "v", ids[0], [](Status) {});
  kv_->Put("/a", "v", ids[1], [](Status) {});
  std::vector<std::pair<TimeNs, std::string>> expired;
  kv_->Watch("/", [&](const WatchEvent& event) {
    if (event.type == WatchEventType::kExpired) {
      expired.emplace_back(sim_.now(), event.key);
    }
  });
  Settle(Seconds(3));
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].second, "/z");
  EXPECT_EQ(expired[1].second, "/a");
  EXPECT_EQ(expired[1].first - expired[0].first, KvStoreConfig{}.heartbeat_interval);
  EXPECT_TRUE(leader.leases().empty());
  EXPECT_EQ(leader.lease_deadline_bound(), kNoLeaseDeadline);
}

TEST_F(KvStoreTest, ExpiryAfterFailoverWaitsForPromotionReextension) {
  AwaitLeader();
  const TimeNs ttl = Seconds(2);
  const std::vector<LeaseId> ids = GrantLeases(*kv_, sim_, ttl, 1);
  ASSERT_EQ(ids.size(), 1u);
  kv_->Put("/health/9", "ok", ids[0], [](Status) {});
  // Renewed on the leader alone, well past the TTL: the followers' bound is
  // still the grant's deadline, long passed.
  for (int i = 0; i < 8; ++i) {
    kv_->LeaseKeepAlive(ids[0], [](Status) {});
    Settle(Millis(500));
  }
  const int old_leader = *kv_->LeaderRank();
  for (int i = 0; i < kv_->num_nodes(); ++i) {
    if (i != old_leader) {
      EXPECT_LT(kv_->node(i).lease_deadline_bound(), sim_.now());
    }
  }
  // The leader dies and the holder stops renewing at the same moment.
  alive_[static_cast<size_t>(old_leader)] = false;
  while (!kv_->LeaderRank().has_value()) {
    Settle(Millis(1));
  }
  const KvNode& leader = kv_->node(*kv_->LeaderRank());
  const TimeNs deadline = leader.lease_deadline_bound();
  EXPECT_EQ(deadline, leader.LeaseDeadline(ids[0]));
  EXPECT_GT(deadline, sim_.now() + ttl - Millis(1));
  sim_.RunUntil(deadline);
  EXPECT_TRUE(kv_->Get("/health/9").ok()) << "expired before the promotion's full TTL";
  const TimeNs control_delay = FabricConfig{}.control_delay;
  Settle(KvStoreConfig{}.heartbeat_interval + 2 * control_delay);
  EXPECT_EQ(kv_->Get("/health/9").status().code(), StatusCode::kNotFound);
}

TEST_F(KvStoreTest, ResetAndRestartClearsLeaseDeadlineBound) {
  AwaitLeader();
  const std::vector<LeaseId> ids = GrantLeases(*kv_, sim_, Hours(1), 1);
  ASSERT_EQ(ids.size(), 1u);
  Settle();
  int follower = -1;
  for (int i = 0; i < kv_->num_nodes(); ++i) {
    if (kv_->node(i).role() != KvNode::Role::kLeader) {
      follower = i;
      break;
    }
  }
  ASSERT_GE(follower, 0);
  KvNode& node = kv_->node(follower);
  const TimeNs deadline = node.LeaseDeadline(ids[0]);
  EXPECT_EQ(node.lease_deadline_bound(), deadline);
  node.ResetAndRestart();
  EXPECT_EQ(node.lease_deadline_bound(), kNoLeaseDeadline);
  // Catching up re-applies the grant, which lowers the bound again.
  Settle(Seconds(3));
  EXPECT_EQ(node.lease_deadline_bound(), deadline);
}

TEST_F(KvStoreTest, LeaderFailoverElectsNewLeaderAndKeepsData) {
  AwaitLeader();
  kv_->Put("/k", "v", kNoLease, [](Status) {});
  Settle();
  const int old_leader = *kv_->LeaderRank();
  alive_[static_cast<size_t>(old_leader)] = false;
  // A new leader emerges among the survivors.
  for (int i = 0; i < 100; ++i) {
    Settle(Millis(200));
    const auto leader = kv_->LeaderRank();
    if (leader.has_value() && *leader != old_leader) {
      break;
    }
  }
  const auto leader = kv_->LeaderRank();
  ASSERT_TRUE(leader.has_value());
  EXPECT_NE(*leader, old_leader);
  // Committed data survived the failover.
  EXPECT_EQ(kv_->Get("/k")->value, "v");
  // And the store still accepts writes.
  Status result = InternalError("pending");
  kv_->Put("/k2", "v2", kNoLease, [&](Status status) { result = status; });
  Settle();
  EXPECT_TRUE(result.ok());
}

TEST_F(KvStoreTest, NoQuorumMeansNoLeader) {
  AwaitLeader();
  alive_[0] = false;
  alive_[1] = false;
  Settle(Seconds(5));
  EXPECT_FALSE(kv_->LeaderRank().has_value());
}

TEST_F(KvStoreTest, ResetNodeCatchesUpFromLeader) {
  AwaitLeader();
  for (int i = 0; i < 5; ++i) {
    kv_->Put("/key/" + std::to_string(i), "v", kNoLease, [](Status) {});
  }
  Settle(Seconds(2));
  // Find a follower, wipe it (machine replacement), let it catch up.
  int follower = -1;
  for (int i = 0; i < kv_->num_nodes(); ++i) {
    if (kv_->node(i).role() != KvNode::Role::kLeader) {
      follower = i;
      break;
    }
  }
  ASSERT_GE(follower, 0);
  kv_->node(follower).ResetAndRestart();
  EXPECT_TRUE(kv_->node(follower).applied_state().empty());
  Settle(Seconds(3));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(kv_->node(follower).GetApplied("/key/" + std::to_string(i)).has_value())
        << "follower missed /key/" << i << " after catch-up";
  }
}

TEST_F(KvStoreTest, LeaseGrantsLeaveNoBookkeepingKeys) {
  AwaitLeader();
  std::vector<LeaseId> ids;
  for (int i = 0; i < 3; ++i) {
    kv_->LeaseGrant(Hours(1), [&](StatusOr<LeaseId> lease) {
      ASSERT_TRUE(lease.ok()) << lease.status();
      ids.push_back(*lease);
    });
    Settle();
  }
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()) &&
              std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "lease ids must increase in grant order";
  for (size_t i = 0; i < ids.size(); ++i) {
    kv_->Put("/health/" + std::to_string(i), "ok", ids[i], [](Status) {});
  }
  Settle();
  int follower = -1;
  for (int i = 0; i < kv_->num_nodes(); ++i) {
    if (kv_->node(i).role() != KvNode::Role::kLeader) {
      follower = i;
      break;
    }
  }
  ASSERT_GE(follower, 0);
  kv_->node(follower).ResetAndRestart();
  Settle(Seconds(3));

  // Every replica, the caught-up one included, holds exactly the client keys
  // and the same leases, each with its own key attached.
  for (int node = 0; node < kv_->num_nodes(); ++node) {
    std::vector<std::string> keys;
    for (const auto& [key, entry] : kv_->node(node).applied_state()) {
      keys.push_back(key);
    }
    EXPECT_EQ(keys, (std::vector<std::string>{"/health/0", "/health/1", "/health/2"}))
        << "node " << node;
    const auto& leases = kv_->node(node).leases();
    ASSERT_EQ(leases.size(), ids.size()) << "node " << node;
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(leases.contains(ids[i])) << "node " << node << " lease " << ids[i];
      EXPECT_EQ(leases.at(ids[i]).keys, std::vector<std::string>{"/health/" + std::to_string(i)})
          << "node " << node;
    }
  }
}

TEST_F(KvStoreTest, ManyWritesAllCommitInOrder) {
  AwaitLeader();
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    kv_->Put("/seq", std::to_string(i), kNoLease, [&](Status status) {
      if (status.ok()) {
        ++completed;
      }
    });
    Settle(Millis(300));
  }
  EXPECT_EQ(completed, 50);
  EXPECT_EQ(kv_->Get("/seq")->value, "49");
}

TEST_F(KvStoreTest, PartitionedLeaderStepsAside) {
  AwaitLeader();
  kv_->Put("/k", "v", kNoLease, [](Status) {});
  Settle();
  const int old_leader = *kv_->LeaderRank();
  // Cut the leader off from both followers (it stays alive).
  fabric_->set_partition_check([old_leader](int src, int dst) {
    return src != old_leader && dst != old_leader;
  });
  // The majority side elects a new leader.
  int new_leader = -1;
  for (int i = 0; i < 200; ++i) {
    Settle(Millis(200));
    const auto leader = kv_->LeaderRank();
    if (leader.has_value() && *leader != old_leader) {
      new_leader = *leader;
      break;
    }
  }
  ASSERT_GE(new_leader, 0) << "majority side failed to elect";
  // Writes commit on the majority side while the partition persists.
  Status write = InternalError("pending");
  kv_->Put("/k2", "v2", kNoLease, [&](Status status) { write = status; });
  Settle(Seconds(2));
  EXPECT_TRUE(write.ok()) << write;
  // Heal the partition: the old leader rejoins as follower and converges.
  fabric_->set_partition_check(nullptr);
  Settle(Seconds(5));
  int leaders = 0;
  for (int i = 0; i < kv_->num_nodes(); ++i) {
    if (kv_->node(i).role() == KvNode::Role::kLeader) {
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1) << "healed cluster must converge to one leader";
  EXPECT_EQ(kv_->Get("/k")->value, "v");
  for (int i = 0; i < kv_->num_nodes(); ++i) {
    EXPECT_TRUE(kv_->node(i).GetApplied("/k").has_value())
        << "node " << i << " diverged after heal";
  }
}

TEST_F(KvStoreTest, MinoritySideCannotCommit) {
  AwaitLeader();
  const int leader = *kv_->LeaderRank();
  // Isolate the leader alone; immediately propose through it.
  fabric_->set_partition_check([leader](int src, int dst) {
    return src != leader && dst != leader;
  });
  Status result = Status::Ok();
  bool called = false;
  KvOp op;
  op.type = KvOpType::kPut;
  op.key = "/stranded";
  op.value = "x";
  kv_->node(leader).Propose(std::move(op), [&](Status status) {
    called = true;
    result = status;
  });
  // The majority side elects a new leader and commits an entry at a higher
  // term — Raft's condition for the stranded entry to be overwritten rather
  // than (legally) committed later.
  for (int i = 0; i < 200; ++i) {
    Settle(Millis(200));
    const auto current = kv_->LeaderRank();
    if (current.has_value() && *current != leader) {
      break;
    }
  }
  ASSERT_TRUE(kv_->LeaderRank().has_value());
  kv_->Put("/majority", "y", kNoLease, [](Status) {});
  Settle(Seconds(2));
  // Heal: the deposed leader learns of the higher term; its log suffix is
  // truncated and its pending proposal answered pessimistically.
  fabric_->set_partition_check(nullptr);
  Settle(Seconds(5));
  EXPECT_TRUE(called);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(kv_->Get("/stranded").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(kv_->Get("/majority")->value, "y");
}

TEST_F(KvStoreTest, DeposedLeaderWithLongStrandedSuffixConverges) {
  AwaitLeader();
  kv_->Put("/base", "0", kNoLease, [](Status) {});
  Settle();
  const int old_leader = *kv_->LeaderRank();
  fabric_->set_partition_check([old_leader](int src, int dst) {
    return src != old_leader && dst != old_leader;
  });
  // The isolated leader appends entries no follower will ever see.
  for (int i = 0; i < 3; ++i) {
    KvOp op;
    op.type = KvOpType::kPut;
    op.key = "/stranded/" + std::to_string(i);
    op.value = "x";
    kv_->node(old_leader).Propose(std::move(op), [](Status) {});
  }
  for (int i = 0; i < 200; ++i) {
    Settle(Millis(200));
    const auto current = kv_->LeaderRank();
    if (current.has_value() && *current != old_leader) {
      break;
    }
  }
  const auto new_leader = kv_->LeaderRank();
  ASSERT_TRUE(new_leader.has_value() && *new_leader != old_leader)
      << "majority side failed to elect";
  // The majority commits as many entries at a higher term over the same
  // indices, plus one more, so the stranded suffix conflicts entry by entry.
  int committed = 0;
  for (int i = 0; i < 4; ++i) {
    kv_->Put("/majority/" + std::to_string(i), "y", kNoLease,
             [&](Status status) { committed += status.ok() ? 1 : 0; });
  }
  Settle(Seconds(2));
  ASSERT_EQ(committed, 4);
  // Heal: the walk-back must cross every conflicting entry, even though the
  // leader's next_index has already moved past them.
  fabric_->set_partition_check(nullptr);
  // Heartbeats alone cost a few hundred events in 5 s; a walk-back stuck on
  // one index would ping-pong every control delay.
  const int64_t events = sim_.RunUntil(sim_.now() + Seconds(5));
  EXPECT_LT(events, 2000) << "replication did not go quiet";
  const KvNode& leader = kv_->node(*kv_->LeaderRank());
  for (int i = 0; i < kv_->num_nodes(); ++i) {
    const KvNode& node = kv_->node(i);
    EXPECT_EQ(node.last_applied(), leader.last_applied()) << "node " << i;
    ASSERT_EQ(node.applied_state().size(), leader.applied_state().size()) << "node " << i;
    for (const auto& [key, entry] : leader.applied_state()) {
      const auto mine = node.GetApplied(key);
      ASSERT_TRUE(mine.has_value()) << "node " << i << " lacks " << key;
      EXPECT_EQ(mine->value, entry.value) << "node " << i << " " << key;
      EXPECT_EQ(mine->mod_index, entry.mod_index) << "node " << i << " " << key;
    }
    EXPECT_FALSE(node.GetApplied("/stranded/0").has_value()) << "node " << i;
  }
}

class SingleNodeKvTest : public KvStoreTest {
 protected:
  SingleNodeKvTest() : KvStoreTest(1) {}
};

TEST_F(SingleNodeKvTest, SingleNodeClusterCommitsAlone) {
  AwaitLeader();
  Status result = InternalError("pending");
  kv_->Put("/k", "v", kNoLease, [&](Status status) { result = status; });
  Settle();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(kv_->Get("/k")->value, "v");
}

class FiveNodeKvTest : public KvStoreTest {
 protected:
  FiveNodeKvTest() : KvStoreTest(5) {}
};

TEST_F(FiveNodeKvTest, SurvivesTwoNodeFailures) {
  AwaitLeader();
  kv_->Put("/k", "v", kNoLease, [](Status) {});
  Settle();
  alive_[static_cast<size_t>(*kv_->LeaderRank())] = false;
  Settle(Seconds(3));
  ASSERT_TRUE(kv_->LeaderRank().has_value());
  alive_[static_cast<size_t>(*kv_->LeaderRank())] = false;
  Settle(Seconds(3));
  ASSERT_TRUE(kv_->LeaderRank().has_value());
  EXPECT_EQ(kv_->Get("/k")->value, "v");
}

// ---------------------------------------------------------------------------
// Renewal rules against the keepalive ticks they stand for.
// ---------------------------------------------------------------------------

// A 3-node store on a 5-machine cluster. Machine 3 holds one lease with a key
// on it, renewed at kFirstTick and every kPeriod after: by rule, or by a
// test-side timer calling LeaseKeepAlive while the machine is alive.
class RuledLeaseWorld {
 public:
  static constexpr TimeNs kTtl = Seconds(10);
  static constexpr TimeNs kPeriod = Seconds(3);
  static constexpr TimeNs kFirstTick = Seconds(3);
  static constexpr int kHolder = 3;

  explicit RuledLeaseWorld(bool ruled)
      : cluster_(sim_, 5, P4d24xlarge(), FabricConfig{}),
        kv_(sim_, cluster_.fabric(), {0, 1, 2},
            [this](int rank) { return cluster_.machine(rank).alive(); }, KvStoreConfig{},
            /*seed=*/1234),
        injector_(sim_, cluster_, /*seed=*/5),
        ticks_(sim_, kPeriod, [this] {
          if (cluster_.machine(kHolder).alive()) {
            kv_.LeaseKeepAlive(lease_, [](Status) {});
          }
        }) {
    kv_.Start();
    sim_.RunUntil(Seconds(2));
    kv_.LeaseGrant(kTtl, [this](StatusOr<LeaseId> lease) {
      lease_ = *lease;
      kv_.Put("/health/3", "ok", lease_, [](Status) {});
    });
    kv_.Watch("/health/3", [this](const WatchEvent& event) {
      if (event.type == WatchEventType::kExpired) {
        expired_at_ = sim_.now();
      }
    });
    sim_.RunUntil(Seconds(2) + Millis(10));
    if (!ruled) {
      ticks_.StartAt(kFirstTick);
      return;
    }
    sim_.ScheduleAt(kFirstTick, [this] {
      EXPECT_TRUE(kv_.LeaseRenewByRule(lease_, kHolder, kPeriod,
                                       [this](TimeNs last_tick) { rule_last_tick_ = last_tick; })
                      .ok());
    });
  }

  Simulator& sim() { return sim_; }
  Cluster& cluster() { return cluster_; }
  KvStoreCluster& kv() { return kv_; }
  FailureInjector& injector() { return injector_; }
  LeaseId lease() const { return lease_; }
  const KvNode& leader() { return kv_.node(*kv_.LeaderRank()); }
  TimeNs expired_at() const { return expired_at_; }
  TimeNs rule_last_tick() const { return rule_last_tick_; }

 private:
  Simulator sim_;
  Cluster cluster_;
  KvStoreCluster kv_;
  FailureInjector injector_;
  RepeatingTimer ticks_;
  LeaseId lease_ = kNoLease;
  TimeNs expired_at_ = -1;
  TimeNs rule_last_tick_ = -1;
};

struct HolderDeath {
  TimeNs deadline = 0;  // The leader's view right after the death.
  TimeNs expired_at = -1;
  TimeNs rule_last_tick = -1;
};

// Kills the holder at `at` (between RunUntil calls with set_health, or by an
// injection scheduled at the start) and runs until its key has expired.
HolderDeath KillHolder(bool ruled, bool inject, TimeNs at) {
  RuledLeaseWorld world(ruled);
  if (inject) {
    world.injector().InjectAt(at, FailureType::kHardware, {RuledLeaseWorld::kHolder});
  }
  world.sim().RunUntil(at);
  if (!inject) {
    world.cluster().machine(RuledLeaseWorld::kHolder).set_health(MachineHealth::kDead);
  }
  HolderDeath death;
  death.deadline = world.leader().LeaseDeadline(world.lease());
  world.sim().RunUntil(at + Seconds(20));
  death.expired_at = world.expired_at();
  death.rule_last_tick = world.rule_last_tick();
  return death;
}

TEST(RenewalRuleTest, HolderDeathRevokesARuledLeaseWhenTicksWouldHave) {
  // On a tick, between ticks, and one TTL after a tick (27 s + 10 s).
  for (const TimeNs at : {Seconds(30), Seconds(31) + Millis(500), Seconds(37)}) {
    for (const bool inject : {false, true}) {
      const HolderDeath ticked = KillHolder(/*ruled=*/false, inject, at);
      const HolderDeath ruled = KillHolder(/*ruled=*/true, inject, at);
      const std::string where =
          "death at " + std::to_string(ToSeconds(at)) + (inject ? " s injected" : " s set");
      ASSERT_GT(ticked.expired_at, at) << where;
      EXPECT_EQ(ruled.expired_at, ticked.expired_at) << where;
      EXPECT_EQ(ruled.deadline, ticked.deadline) << where;
      EXPECT_EQ(ruled.rule_last_tick + RuledLeaseWorld::kTtl, ruled.deadline) << where;
    }
  }
  // The tie at a tick instant follows event order: an injection scheduled
  // ahead of time beats the tick, a death set after RunUntil does not.
  EXPECT_EQ(KillHolder(true, /*inject=*/true, Seconds(30)).rule_last_tick, Seconds(27));
  EXPECT_EQ(KillHolder(true, /*inject=*/false, Seconds(30)).rule_last_tick, Seconds(30));
}

TEST(RenewalRuleTest, SteadyRuleWalksNoLeaseTableAndNeverLapses) {
  RuledLeaseWorld world(/*ruled=*/true);
  // The grant's deadline passes once, and that walk finds nothing to bound.
  world.sim().RunUntil(Seconds(20));
  const KvNode& leader = world.leader();
  EXPECT_EQ(leader.lease_deadline_bound(), kNoLeaseDeadline);
  const int64_t walks = leader.lease_table_walks();
  world.sim().RunUntil(Minutes(10) + Seconds(1));
  EXPECT_EQ(leader.lease_table_walks(), walks);
  EXPECT_EQ(leader.LeaseDeadline(world.lease()), Minutes(10) + RuledLeaseWorld::kTtl);
  EXPECT_EQ(world.expired_at(), -1);
  EXPECT_EQ(world.rule_last_tick(), -1) << "nothing ended the rule";
}

TEST(RenewalRuleTest, LeaderChangeAndRevokeEndTheRule) {
  RuledLeaseWorld world(/*ruled=*/true);
  world.sim().RunUntil(Seconds(31));
  const int old_leader = *world.kv().LeaderRank();
  world.cluster().machine(old_leader).set_health(MachineHealth::kDead);
  EXPECT_EQ(world.rule_last_tick(), Seconds(30));
  EXPECT_EQ(world.kv().node(old_leader).LeaseDeadline(world.lease()), Seconds(40));

  // A revoke's commit ends a rule on the new leader.
  world.sim().RunUntil(Seconds(33));
  ASSERT_TRUE(world.kv().LeaderRank().has_value());
  TimeNs ended_at = -1;
  ASSERT_TRUE(world.kv()
                  .LeaseRenewByRule(world.lease(), RuledLeaseWorld::kHolder,
                                    RuledLeaseWorld::kPeriod,
                                    [&](TimeNs) { ended_at = world.sim().now(); })
                  .ok());
  world.kv().LeaseRevoke(world.lease(), [](Status) {});
  world.sim().RunUntil(Seconds(34));
  EXPECT_GT(ended_at, Seconds(33));
  EXPECT_LT(ended_at, Seconds(34));
}

TEST(RenewalRuleTest, RuleNeedsAPeriodBelowTheTtl) {
  RuledLeaseWorld world(/*ruled=*/false);
  EXPECT_EQ(world.kv()
                .LeaseRenewByRule(world.lease(), RuledLeaseWorld::kHolder, RuledLeaseWorld::kTtl,
                                  [](TimeNs) {})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(world.kv()
                .LeaseRenewByRule(world.lease() + 100, RuledLeaseWorld::kHolder,
                                  RuledLeaseWorld::kPeriod, [](TimeNs) {})
                .code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace gemini
