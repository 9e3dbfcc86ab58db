// Replicated key-value store with Raft-style leader election and log
// replication, plus etcd-style leases and watches.
//
// This is the substrate standing in for etcd (Section 3.2 of the paper): the
// GEMINI worker agents publish heartbeat-leased health keys here, the root
// agent scans them, and root-machine failover uses the store's election
// primitive.
//
// Consensus scope: full Raft leader election (terms, randomized timeouts,
// vote safety via last-log checks) and log replication with commit on
// majority. Replication is pipelined: the leader advances a peer's next index
// as soon as it sends. A rejection replies with a hint below the rejected
// entry (the follower's last index, if lower), and the leader retries from
// there. Reads are served by the leader from applied state.
//
// Leases follow etcd v3's lessor. Grant and revoke (explicit or on expiry)
// are log entries; keepalives are not. The leader renews a lease in its own
// lease table and answers at once, so followers' deadlines go stale by
// design, and a newly elected leader gives every lease a full TTL from its
// election before its first expiry scan. The log therefore grows only with
// grants, revokes, puts and deletes, never with renewals. It is not compacted:
// a multi-hour run keeps every one of those entries.
//
// Renewal rules. A holder whose keepalives would only move a deadline hands
// the leader a rule instead of ticking (LeaseRenewByRule): "renewed now and
// every `period` after". The leader's lease table keeps the period, and the
// lease's deadline is the last such tick at or before now, plus the TTL.
// Nothing evaluates it per tick: ExpireLeases skips a ruled lease (with
// period < TTL it cannot lapse), BecomeLeader ends every rule before it
// re-extends deadlines, and LeaseDeadline evaluates it for tests. Anything
// that could make one of those ticks fail ends the rule: the holder's machine
// dying, the lease's revocation, a change of serving leader (any
// BecomeLeader; the serving leader's BecomeFollower, ResetAndRestart, death
// or revival), or EndLeaseRule from the holder (it stops, or a publish
// failed). Ending fixes the deadline at the last tick the
// rule covered and tells the holder which tick that was, so its real ticks
// resume on the same phase. The store learns of deaths from its fabric's
// liveness listeners (Machine::set_health); a store whose `alive` predicate
// changes without them must not hold ruled leases.
//
// A tick due at the very instant a rule ends counts as covered when, as an
// event, it would have run first. The tick would have been armed one period
// earlier, so it counts when the ending event was scheduled at or after that
// (Simulator::scheduled_at). A death injected ahead of time at a tick instant
// therefore beats that tick; a death set between two RunUntil calls does not.
//
// Expiry costs nothing while no lease can have lapsed. Each node keeps a lower
// bound on its earliest lease deadline. Renewals and promotion only raise
// deadlines, so only a grant or the end of a rule lowers the bound. With a
// period below the TTL a ruled lease cannot lapse, so it stays out of the
// bound while its rule lasts. The leader's heartbeat skips the lease table
// while the bound has not passed. Once it has, one walk revokes the lowest
// expired lease id (one revoke per tick) or, finding none, raises the bound to
// the true earliest deadline.
#ifndef SRC_KVSTORE_KV_STORE_H_
#define SRC_KVSTORE_KV_STORE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/fabric.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/kvstore/kv_types.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace gemini {

class RunTracer;

struct KvStoreConfig {
  TimeNs heartbeat_interval = Millis(100);
  // Election timeouts are drawn uniformly from [min, max] per node.
  TimeNs election_timeout_min = Millis(500);
  TimeNs election_timeout_max = Millis(1000);
};

class KvNode;

// The last tick of a renewal rule (ticks at start + k * period, k >= 0) that
// has run by now in event order; see "Renewal rules" above.
TimeNs LastRuledTick(TimeNs start, TimeNs period, const Simulator& sim);

// The cluster of KV nodes. Owns all nodes, the watch registry, and routing.
class KvStoreCluster {
 public:
  // One node per entry of `server_ranks`, communicating over `fabric`
  // control messages. `alive` gates message processing so that machine
  // failures silently stop a node (matching a crashed etcd member).
  KvStoreCluster(Simulator& sim, Fabric& fabric, std::vector<int> server_ranks,
                 std::function<bool(int rank)> alive, KvStoreConfig config, uint64_t seed);
  ~KvStoreCluster();

  KvStoreCluster(const KvStoreCluster&) = delete;
  KvStoreCluster& operator=(const KvStoreCluster&) = delete;

  // Starts all nodes' timers (election timers armed immediately).
  void Start();

  // Optional observability sinks ("kv.*" metrics; election trace events).
  // Set before Start() so the first election is captured. Counter handles
  // are resolved here, once, per the hot-path metric convention
  // (src/obs/metrics.h) — every committed op passes the proposal counter.
  void set_observability(MetricsRegistry* metrics, RunTracer* tracer);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<int>& server_ranks() const { return server_ranks_; }

  // Rank of the current leader, or nullopt if no node currently leads.
  std::optional<int> LeaderRank() const;

  // ---- Client API -------------------------------------------------------
  // Calls are routed to the current leader; they fail with kUnavailable when
  // no leader exists (callers retry, as etcd clients do). Completion
  // callbacks fire after replication commits the op (majority ack).

  using ProposeCallback = std::function<void(Status)>;
  void Put(const std::string& key, const std::string& value, LeaseId lease,
           ProposeCallback done);
  // Election primitive: the put applies only when the key is absent; callers
  // Get() afterwards to learn the winner.
  void PutIfAbsent(const std::string& key, const std::string& value, LeaseId lease,
                   ProposeCallback done);
  void Delete(const std::string& key, ProposeCallback done);

  using LeaseCallback = std::function<void(StatusOr<LeaseId>)>;
  // The granted id is the grant's Raft log index: identical on every replica,
  // known to the proposing leader before commit, and increasing in apply
  // order.
  void LeaseGrant(TimeNs ttl, LeaseCallback done);
  // Renews `lease` to now + TTL on the leader alone: no log entry, no message.
  // `done` runs before this returns, with kNotFound when the lease is unknown
  // or already revoked (the holder must grant a new one).
  void LeaseKeepAlive(LeaseId lease, ProposeCallback done);
  // Renews `lease` on the leader now and by rule every `period` after, with
  // no event, until the rule ends (see "Renewal rules" above). `ended` then
  // runs once with the last tick the rule covered; it must not call into the
  // store. Fails like LeaseKeepAlive, and with kInvalidArgument unless
  // `period` is below the lease's TTL.
  Status LeaseRenewByRule(LeaseId lease, int holder_rank, TimeNs period,
                          std::function<void(TimeNs last_tick)> ended);
  // Ends `lease`'s rule, if it has one.
  void EndLeaseRule(LeaseId lease);
  void LeaseRevoke(LeaseId lease, ProposeCallback done);

  // Linearizable-enough read from the leader's applied state.
  StatusOr<KvEntry> Get(const std::string& key) const;
  // All applied entries whose key starts with `prefix`.
  std::map<std::string, KvEntry> List(const std::string& prefix) const;
  // Calls `visit` on each of the leader's applied entries under `prefix`, in
  // key order and in place: nothing is copied. Returns false, visiting
  // nothing, when no leader exists. `visit` must not write to the store.
  bool VisitPrefix(const std::string& prefix, const KvVisitor& visit) const;

  // Registers a watch on a key prefix. Events are emitted when ops commit
  // and delivered control_delay later. Delivery is at-least-once across
  // leader changes. Returns a watch id.
  uint64_t Watch(const std::string& prefix, WatchCallback callback);
  // After this returns the callback never runs again, not even for events
  // committed before the cancel whose delivery is still in flight.
  void CancelWatch(uint64_t watch_id);

  // ---- Introspection (tests) --------------------------------------------
  const KvNode& node(int index) const { return *nodes_.at(static_cast<size_t>(index)); }
  KvNode& node(int index) { return *nodes_.at(static_cast<size_t>(index)); }

 private:
  friend class KvNode;

  KvNode* Leader() const;
  // Ends every rule held by `holder`, or every rule with no holder given.
  void EndLeaseRules(std::optional<int> holder);
  void OnLivenessChanged(int rank, bool alive);
  void EmitWatchEvents(const std::vector<WatchEvent>& events);
  // Runs watch `watch_id`'s callback on `event`, if the watch still exists.
  void DeliverWatchEvent(uint64_t watch_id, const WatchEvent& event);

  Simulator& sim_;
  Fabric& fabric_;
  std::vector<int> server_ranks_;
  std::function<bool(int)> alive_;
  KvStoreConfig config_;
  RunTracer* tracer_ = nullptr;
  // Hot-path metric handles (resolved once in set_observability), shared by
  // every node of the cluster.
  Counter* elections_started_counter_ = DiscardCounter();
  Counter* elections_won_counter_ = DiscardCounter();
  Counter* proposals_counter_ = DiscardCounter();
  std::vector<std::unique_ptr<KvNode>> nodes_;
  uint64_t next_watch_id_ = 1;
  struct WatchReg {
    std::string prefix;
    WatchCallback callback;
  };
  std::map<uint64_t, WatchReg> watches_;
  uint64_t liveness_listener_ = 0;
};

// One Raft participant. Public for tests; application code uses the cluster.
class KvNode {
 public:
  enum class Role { kFollower, kCandidate, kLeader };

  struct LeaseState {
    // For a ruled lease: the deadline its rule started from (LeaseDeadline
    // evaluates the rule).
    TimeNs deadline = 0;
    TimeNs ttl = 0;
    std::vector<std::string> keys;
    // Renewal rule, on the serving leader only; period 0 means none.
    TimeNs period = 0;
    int holder = -1;
    std::function<void(TimeNs last_tick)> rule_ended;
  };

  KvNode(KvStoreCluster& cluster, int index, int rank, uint64_t seed);

  void Start();

  // Rejoins the cluster with empty state after its machine was replaced; the
  // node catches up from the leader via the AppendEntries walk-back. (Real
  // etcd would use a membership change; wiping state is the simulation-scale
  // equivalent.)
  void ResetAndRestart();

  Role role() const { return role_; }
  uint64_t term() const { return term_; }
  int rank() const { return rank_; }
  bool alive() const;
  uint64_t commit_index() const { return commit_index_; }
  uint64_t last_applied() const { return last_applied_; }
  const std::map<std::string, KvEntry>& applied_state() const { return state_; }
  const std::map<LeaseId, LeaseState>& leases() const { return leases_; }
  // The lease's deadline with its rule, if any, evaluated at now;
  // kNoLeaseDeadline for an unknown lease.
  TimeNs LeaseDeadline(LeaseId lease) const;
  // A lower bound on every lease's deadline (kNoLeaseDeadline with no
  // leases): the expiry check walks the lease table only once `now` passes
  // it.
  TimeNs lease_deadline_bound() const { return lease_deadline_bound_; }
  // Walks of the lease table by the expiry check, since construction.
  int64_t lease_table_walks() const { return lease_table_walks_; }

  // Leader-side entry point used by the cluster client API.
  void Propose(KvOp op, std::function<void(Status)> done);

  // Applied-state lookups (valid on any node; the cluster queries the
  // leader's).
  std::optional<KvEntry> GetApplied(const std::string& key) const;
  void VisitApplied(const std::string& prefix, const KvVisitor& visit) const;

 private:
  friend class KvStoreCluster;

  struct LogEntry {
    uint64_t term = 0;
    KvOp op;
  };

  // -- Message handlers (invoked via fabric control messages). --
  void OnRequestVote(uint64_t term, int candidate, uint64_t last_log_index,
                     uint64_t last_log_term);
  void OnRequestVoteReply(uint64_t term, bool granted);
  void OnAppendEntries(uint64_t term, int leader, uint64_t prev_index, uint64_t prev_term,
                       std::vector<LogEntry>&& entries, uint64_t leader_commit);
  void OnAppendEntriesReply(int from, uint64_t term, bool success, uint64_t match_index);

  // -- Timers --
  void ResetElectionTimer();
  void OnElectionTimeout();
  void OnHeartbeatTick();

  void BecomeFollower(uint64_t term);
  void BecomeLeader();
  void StartElection();
  void ReplicateTo(int peer_index);
  void AdvanceCommit();
  void ApplyCommitted();
  // Applies one op to the state machine, appending the watch events it
  // produces to `events`.
  void ApplyOp(const KvOp& op, uint64_t index, std::vector<WatchEvent>& events);
  // Leader-only: sets the lease's deadline to now + TTL.
  Status RenewLease(LeaseId lease_id);
  // Leader-only: renews the lease now and puts it on a renewal rule.
  Status RenewByRule(LeaseId lease_id, int holder, TimeNs period,
                     std::function<void(TimeNs)> ended);
  // Fixes a ruled lease's deadline at its rule's last covered tick, lowers
  // the bound to it and tells the holder.
  void EndRule(LeaseState& lease);
  // Ends the rules held by `holder` (all rules without one).
  void EndRules(std::optional<int> holder);
  // Leader-only: proposes the revocation of the lowest expired lease id, if
  // the deadline bound says one may have expired.
  void ExpireLeases();

  void Send(int peer_index, EventCallback handler);

  uint64_t LastLogIndex() const { return static_cast<uint64_t>(log_.size()); }
  uint64_t LastLogTerm() const { return log_.empty() ? 0 : log_.back().term; }

  KvStoreCluster& cluster_;
  int index_;
  int rank_;
  Rng rng_;

  Role role_ = Role::kFollower;
  uint64_t term_ = 0;
  std::optional<int> voted_for_;
  int votes_received_ = 0;
  std::optional<int> leader_index_;

  // Log is 1-indexed externally: log_[i-1] holds index i.
  std::vector<LogEntry> log_;
  uint64_t commit_index_ = 0;
  uint64_t last_applied_ = 0;

  // Leader state.
  std::vector<uint64_t> next_index_;
  std::vector<uint64_t> match_index_;
  // Completion callbacks for proposals awaiting commit, by log index.
  std::map<uint64_t, std::function<void(Status)>> pending_proposals_;

  // Applied state machine.
  std::map<std::string, KvEntry> state_;
  std::map<LeaseId, LeaseState> leases_;
  TimeNs lease_deadline_bound_ = kNoLeaseDeadline;
  int64_t lease_table_walks_ = 0;
  int ruled_leases_ = 0;

  EventId election_timer_{};
  EventId heartbeat_timer_{};
};

}  // namespace gemini

#endif  // SRC_KVSTORE_KV_STORE_H_
