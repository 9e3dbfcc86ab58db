#include "src/kvstore/kv_store.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/run_tracer.h"

namespace gemini {

TimeNs LastRuledTick(TimeNs start, TimeNs period, const Simulator& sim) {
  const TimeNs now = sim.now();
  // A tick due now was armed at now - period; it ran first unless the
  // current event was scheduled before that.
  const TimeNs through = sim.scheduled_at() >= now - period ? now : now - 1;
  return through <= start ? start : start + (through - start) / period * period;
}

// ---------------------------------------------------------------------------
// KvStoreCluster
// ---------------------------------------------------------------------------

KvStoreCluster::KvStoreCluster(Simulator& sim, Fabric& fabric, std::vector<int> server_ranks,
                               std::function<bool(int rank)> alive, KvStoreConfig config,
                               uint64_t seed)
    : sim_(sim),
      fabric_(fabric),
      server_ranks_(std::move(server_ranks)),
      alive_(std::move(alive)),
      config_(config) {
  assert(!server_ranks_.empty());
  assert(alive_);
  Rng seeder(seed);
  nodes_.reserve(server_ranks_.size());
  for (size_t i = 0; i < server_ranks_.size(); ++i) {
    nodes_.push_back(std::make_unique<KvNode>(*this, static_cast<int>(i),
                                              server_ranks_[i], seeder.NextU64()));
  }
  liveness_listener_ = fabric_.AddLivenessListener(
      [this](int rank, bool alive) { OnLivenessChanged(rank, alive); });
}

KvStoreCluster::~KvStoreCluster() { fabric_.RemoveLivenessListener(liveness_listener_); }

void KvStoreCluster::OnLivenessChanged(int rank, bool alive) {
  for (const auto& node : nodes_) {
    if (node->rank() == rank && node->role() == KvNode::Role::kLeader) {
      // The serving leader may change: every rule ends.
      EndLeaseRules(std::nullopt);
      return;
    }
  }
  if (!alive) {
    EndLeaseRules(rank);
  }
}

void KvStoreCluster::EndLeaseRules(std::optional<int> holder) {
  for (auto& node : nodes_) {
    node->EndRules(holder);
  }
}

void KvStoreCluster::Start() {
  for (auto& node : nodes_) {
    node->Start();
  }
}

void KvStoreCluster::set_observability(MetricsRegistry* metrics, RunTracer* tracer) {
  tracer_ = tracer;
  elections_started_counter_ = CounterHandle(metrics, "kv.elections_started");
  elections_won_counter_ = CounterHandle(metrics, "kv.elections_won");
  proposals_counter_ = CounterHandle(metrics, "kv.proposals");
}

KvNode* KvStoreCluster::Leader() const {
  // During a partition a deposed leader may still believe it leads; the
  // highest term identifies the real (quorum-backed) one.
  KvNode* best = nullptr;
  for (const auto& node : nodes_) {
    if (node->role() == KvNode::Role::kLeader && node->alive() &&
        (best == nullptr || node->term() > best->term())) {
      best = node.get();
    }
  }
  return best;
}

std::optional<int> KvStoreCluster::LeaderRank() const {
  const KvNode* leader = Leader();
  if (leader == nullptr) {
    return std::nullopt;
  }
  return leader->rank();
}

void KvStoreCluster::Put(const std::string& key, const std::string& value, LeaseId lease,
                         ProposeCallback done) {
  KvNode* leader = Leader();
  if (leader == nullptr) {
    done(UnavailableError("kvstore: no leader"));
    return;
  }
  KvOp op;
  op.type = KvOpType::kPut;
  op.key = key;
  op.value = value;
  op.lease = lease;
  op.issue_time = sim_.now();
  leader->Propose(std::move(op), std::move(done));
}

void KvStoreCluster::PutIfAbsent(const std::string& key, const std::string& value, LeaseId lease,
                                 ProposeCallback done) {
  KvNode* leader = Leader();
  if (leader == nullptr) {
    done(UnavailableError("kvstore: no leader"));
    return;
  }
  KvOp op;
  op.type = KvOpType::kPut;
  op.key = key;
  op.value = value;
  op.lease = lease;
  op.if_absent = true;
  op.issue_time = sim_.now();
  leader->Propose(std::move(op), std::move(done));
}

void KvStoreCluster::Delete(const std::string& key, ProposeCallback done) {
  KvNode* leader = Leader();
  if (leader == nullptr) {
    done(UnavailableError("kvstore: no leader"));
    return;
  }
  KvOp op;
  op.type = KvOpType::kDelete;
  op.key = key;
  op.issue_time = sim_.now();
  leader->Propose(std::move(op), std::move(done));
}

void KvStoreCluster::LeaseGrant(TimeNs ttl, LeaseCallback done) {
  KvNode* leader = Leader();
  if (leader == nullptr) {
    done(UnavailableError("kvstore: no leader"));
    return;
  }
  KvOp op;
  op.type = KvOpType::kLeaseGrant;
  op.ttl = ttl;
  op.issue_time = sim_.now();
  // The lease id is the grant's log index. A deposed leader fails its
  // pending callbacks (BecomeFollower), so an OK callback always reports the
  // entry this leader appended.
  const LeaseId id = leader->LastLogIndex() + 1;
  leader->Propose(std::move(op), [id, done = std::move(done)](Status status) {
    if (!status.ok()) {
      done(std::move(status));
      return;
    }
    done(id);
  });
}

void KvStoreCluster::LeaseKeepAlive(LeaseId lease, ProposeCallback done) {
  KvNode* leader = Leader();
  if (leader == nullptr) {
    done(UnavailableError("kvstore: no leader"));
    return;
  }
  done(leader->RenewLease(lease));
}

Status KvStoreCluster::LeaseRenewByRule(LeaseId lease, int holder_rank, TimeNs period,
                                        std::function<void(TimeNs last_tick)> ended) {
  KvNode* leader = Leader();
  if (leader == nullptr) {
    return UnavailableError("kvstore: no leader");
  }
  return leader->RenewByRule(lease, holder_rank, period, std::move(ended));
}

void KvStoreCluster::EndLeaseRule(LeaseId lease) {
  for (auto& node : nodes_) {
    const auto it = node->leases_.find(lease);
    if (it != node->leases_.end() && it->second.period > 0) {
      node->EndRule(it->second);
    }
  }
}

void KvStoreCluster::LeaseRevoke(LeaseId lease, ProposeCallback done) {
  KvNode* leader = Leader();
  if (leader == nullptr) {
    done(UnavailableError("kvstore: no leader"));
    return;
  }
  KvOp op;
  op.type = KvOpType::kLeaseRevoke;
  op.lease = lease;
  op.issue_time = sim_.now();
  leader->Propose(std::move(op), std::move(done));
}

StatusOr<KvEntry> KvStoreCluster::Get(const std::string& key) const {
  const KvNode* leader = Leader();
  if (leader == nullptr) {
    return UnavailableError("kvstore: no leader");
  }
  const std::optional<KvEntry> entry = leader->GetApplied(key);
  if (!entry.has_value()) {
    return NotFoundError("key not found: " + key);
  }
  return *entry;
}

std::map<std::string, KvEntry> KvStoreCluster::List(const std::string& prefix) const {
  std::map<std::string, KvEntry> out;
  VisitPrefix(prefix, [&out](const std::string& key, const KvEntry& entry) {
    out.emplace_hint(out.end(), key, entry);
  });
  return out;
}

bool KvStoreCluster::VisitPrefix(const std::string& prefix, const KvVisitor& visit) const {
  const KvNode* leader = Leader();
  if (leader == nullptr) {
    return false;
  }
  leader->VisitApplied(prefix, visit);
  return true;
}

uint64_t KvStoreCluster::Watch(const std::string& prefix, WatchCallback callback) {
  const uint64_t id = next_watch_id_++;
  watches_[id] = WatchReg{prefix, std::move(callback)};
  return id;
}

void KvStoreCluster::CancelWatch(uint64_t watch_id) { watches_.erase(watch_id); }

void KvStoreCluster::EmitWatchEvents(const std::vector<WatchEvent>& events) {
  if (watches_.empty()) {
    return;
  }
  for (const WatchEvent& event : events) {
    for (const auto& [id, reg] : watches_) {
      if (event.key.starts_with(reg.prefix)) {
        // Deliver asynchronously with control-plane latency so watchers never
        // observe state "before" it was committed. The delivery carries the
        // watch id, not the callback: a watch cancelled in between never
        // fires.
        sim_.ScheduleAfter(fabric_.config().control_delay,
                           [this, watch_id = id, event] { DeliverWatchEvent(watch_id, event); });
      }
    }
  }
}

void KvStoreCluster::DeliverWatchEvent(uint64_t watch_id, const WatchEvent& event) {
  const auto it = watches_.find(watch_id);
  if (it == watches_.end()) {
    return;
  }
  // Called through a copy, so the callback may cancel its own watch.
  const WatchCallback callback = it->second.callback;
  callback(event);
}

// ---------------------------------------------------------------------------
// KvNode
// ---------------------------------------------------------------------------

KvNode::KvNode(KvStoreCluster& cluster, int index, int rank, uint64_t seed)
    : cluster_(cluster), index_(index), rank_(rank), rng_(seed) {
  const size_t n = cluster_.server_ranks_.size();
  next_index_.assign(n, 1);
  match_index_.assign(n, 0);
}

bool KvNode::alive() const { return cluster_.alive_(rank_); }

void KvNode::Start() { ResetElectionTimer(); }

void KvNode::ResetAndRestart() {
  EndRules(std::nullopt);
  role_ = Role::kFollower;
  term_ = 0;
  voted_for_.reset();
  votes_received_ = 0;
  leader_index_.reset();
  log_.clear();
  commit_index_ = 0;
  last_applied_ = 0;
  pending_proposals_.clear();
  state_.clear();
  leases_.clear();
  lease_deadline_bound_ = kNoLeaseDeadline;
  if (heartbeat_timer_.valid()) {
    cluster_.sim_.Cancel(heartbeat_timer_);
    heartbeat_timer_ = EventId{};
  }
  ResetElectionTimer();
}

void KvNode::Send(int peer_index, EventCallback handler) {
  const int peer_rank = cluster_.server_ranks_[static_cast<size_t>(peer_index)];
  cluster_.fabric_.SendControl(rank_, peer_rank, std::move(handler));
}

void KvNode::ResetElectionTimer() {
  if (election_timer_.valid()) {
    cluster_.sim_.Cancel(election_timer_);
  }
  const TimeNs timeout = rng_.UniformInt(cluster_.config_.election_timeout_min,
                                         cluster_.config_.election_timeout_max);
  election_timer_ = cluster_.sim_.ScheduleAfter(timeout, [this] { OnElectionTimeout(); });
}

void KvNode::OnElectionTimeout() {
  election_timer_ = EventId{};
  if (!alive()) {
    // A dead machine keeps its timer silent; if the machine is later replaced
    // the node restarts via Start().
    return;
  }
  if (role_ != Role::kLeader) {
    StartElection();
  }
  ResetElectionTimer();
}

void KvNode::StartElection() {
  role_ = Role::kCandidate;
  ++term_;
  cluster_.elections_started_counter_->Increment();
  voted_for_ = index_;
  votes_received_ = 1;
  leader_index_.reset();
  // A single-node cluster wins with its own vote.
  if (votes_received_ >= static_cast<int>(cluster_.server_ranks_.size()) / 2 + 1) {
    BecomeLeader();
    return;
  }
  GEMINI_LOG(kDebug) << "kv node " << index_ << " starts election for term " << term_;
  const uint64_t term = term_;
  const uint64_t last_index = LastLogIndex();
  const uint64_t last_term = LastLogTerm();
  for (size_t peer = 0; peer < cluster_.server_ranks_.size(); ++peer) {
    if (static_cast<int>(peer) == index_) {
      continue;
    }
    KvNode* target = cluster_.nodes_[peer].get();
    Send(static_cast<int>(peer), [target, term, self = index_, last_index, last_term] {
      target->OnRequestVote(term, self, last_index, last_term);
    });
  }
}

void KvNode::OnRequestVote(uint64_t term, int candidate, uint64_t last_log_index,
                           uint64_t last_log_term) {
  if (!alive()) {
    return;
  }
  if (term > term_) {
    BecomeFollower(term);
  }
  bool granted = false;
  if (term == term_ && (!voted_for_.has_value() || *voted_for_ == candidate)) {
    // Vote safety: candidate's log must be at least as up-to-date.
    const bool up_to_date = last_log_term > LastLogTerm() ||
                            (last_log_term == LastLogTerm() && last_log_index >= LastLogIndex());
    if (up_to_date) {
      granted = true;
      voted_for_ = candidate;
      ResetElectionTimer();
    }
  }
  KvNode* target = cluster_.nodes_[static_cast<size_t>(candidate)].get();
  const uint64_t reply_term = term_;
  Send(candidate, [target, reply_term, granted] {
    target->OnRequestVoteReply(reply_term, granted);
  });
}

void KvNode::OnRequestVoteReply(uint64_t term, bool granted) {
  if (!alive()) {
    return;
  }
  if (term > term_) {
    BecomeFollower(term);
    return;
  }
  if (role_ != Role::kCandidate || term != term_) {
    return;
  }
  if (granted) {
    ++votes_received_;
    const int majority = static_cast<int>(cluster_.server_ranks_.size()) / 2 + 1;
    if (votes_received_ >= majority) {
      BecomeLeader();
    }
  }
}

void KvNode::BecomeFollower(uint64_t term) {
  EndRules(std::nullopt);
  role_ = Role::kFollower;
  term_ = term;
  voted_for_.reset();
  votes_received_ = 0;
  if (heartbeat_timer_.valid()) {
    cluster_.sim_.Cancel(heartbeat_timer_);
    heartbeat_timer_ = EventId{};
  }
  // Any in-flight proposals this node accepted as a deposed leader may still
  // commit later; their callbacks are answered pessimistically so callers
  // retry (idempotent ops make this safe, matching etcd client behaviour).
  for (auto& [index, done] : pending_proposals_) {
    done(UnavailableError("kvstore: leadership lost before commit"));
  }
  pending_proposals_.clear();
}

void KvNode::BecomeLeader() {
  GEMINI_LOG(kDebug) << "kv node " << index_ << " becomes leader for term " << term_;
  cluster_.elections_won_counter_->Increment();
  if (cluster_.tracer_ != nullptr) {
    cluster_.tracer_->Event("kv_leader_elected", "kvstore",
                            {TraceAttr::Int("rank", rank_),
                             TraceAttr::Int("term", static_cast<int64_t>(term_))});
  }
  // Keepalives now reach this node: rules served by any other end here.
  cluster_.EndLeaseRules(std::nullopt);
  role_ = Role::kLeader;
  leader_index_ = index_;
  const size_t n = cluster_.server_ranks_.size();
  next_index_.assign(n, LastLogIndex() + 1);
  match_index_.assign(n, 0);
  match_index_[static_cast<size_t>(index_)] = LastLogIndex();
  // Renewals were served by the old leader alone, so this node's deadlines
  // are stale: give every lease a full TTL from now (etcd's Lessor::Promote)
  // before the first expiry scan.
  const TimeNs now = cluster_.sim_.now();
  lease_deadline_bound_ = kNoLeaseDeadline;
  for (auto& [id, lease] : leases_) {
    lease.deadline = std::max(lease.deadline, now + lease.ttl);
    lease_deadline_bound_ = std::min(lease_deadline_bound_, lease.deadline);
  }
  OnHeartbeatTick();
}

void KvNode::OnHeartbeatTick() {
  heartbeat_timer_ = EventId{};
  if (!alive() || role_ != Role::kLeader) {
    return;
  }
  ExpireLeases();
  for (size_t peer = 0; peer < cluster_.server_ranks_.size(); ++peer) {
    if (static_cast<int>(peer) != index_) {
      ReplicateTo(static_cast<int>(peer));
    }
  }
  heartbeat_timer_ = cluster_.sim_.ScheduleAfter(cluster_.config_.heartbeat_interval,
                                                 [this] { OnHeartbeatTick(); });
}

void KvNode::ReplicateTo(int peer_index) {
  const uint64_t next = next_index_[static_cast<size_t>(peer_index)];
  const uint64_t prev_index = next - 1;
  const uint64_t prev_term = prev_index == 0 ? 0 : log_[prev_index - 1].term;
  std::vector<LogEntry> entries(log_.begin() + static_cast<std::ptrdiff_t>(prev_index),
                                log_.end());
  KvNode* target = cluster_.nodes_[static_cast<size_t>(peer_index)].get();
  const uint64_t term = term_;
  const int self = index_;
  const uint64_t commit = commit_index_;
  Send(peer_index,
       [target, term, self, prev_index, prev_term, entries = std::move(entries), commit]() mutable {
         target->OnAppendEntries(term, self, prev_index, prev_term, std::move(entries), commit);
       });
  // Pipelining: assume the peer will accept, so the next send in the same
  // round trip carries only newer entries. A rejection walks it back.
  next_index_[static_cast<size_t>(peer_index)] = LastLogIndex() + 1;
}

void KvNode::OnAppendEntries(uint64_t term, int leader, uint64_t prev_index, uint64_t prev_term,
                             std::vector<LogEntry>&& entries, uint64_t leader_commit) {
  if (!alive()) {
    return;
  }
  if (term > term_) {
    BecomeFollower(term);
  }
  bool success = false;
  uint64_t match = 0;
  if (term == term_) {
    if (role_ == Role::kCandidate) {
      BecomeFollower(term);
    }
    leader_index_ = leader;
    ResetElectionTimer();
    const bool prev_ok =
        prev_index == 0 || (prev_index <= LastLogIndex() && log_[prev_index - 1].term == prev_term);
    if (prev_ok) {
      // Truncate any conflicting suffix and append.
      uint64_t insert = prev_index;
      for (auto& entry : entries) {
        if (insert < LastLogIndex()) {
          if (log_[insert].term != entry.term) {
            log_.resize(insert);
            log_.push_back(std::move(entry));
          }
          // else: already present, keep it.
        } else {
          log_.push_back(std::move(entry));
        }
        ++insert;
      }
      success = true;
      match = insert;
      if (leader_commit > commit_index_) {
        commit_index_ = std::min(leader_commit, LastLogIndex());
        ApplyCommitted();
      }
    } else {
      // Hint where the leader should retry: where our log ends, but always
      // below the rejected prev_index so the walk-back makes progress even
      // when the leader's own next_index has already moved past it.
      match = std::min(LastLogIndex(), prev_index - 1);
    }
  } else {
    match = LastLogIndex();
  }
  KvNode* target = cluster_.nodes_[static_cast<size_t>(leader)].get();
  const uint64_t reply_term = term_;
  const int self = index_;
  Send(leader, [target, self, reply_term, success, match] {
    target->OnAppendEntriesReply(self, reply_term, success, match);
  });
}

void KvNode::OnAppendEntriesReply(int from, uint64_t term, bool success, uint64_t match_index) {
  if (!alive()) {
    return;
  }
  if (term > term_) {
    BecomeFollower(term);
    return;
  }
  if (role_ != Role::kLeader || term != term_) {
    return;
  }
  if (success) {
    uint64_t& match = match_index_[static_cast<size_t>(from)];
    match = std::max(match, match_index);
    // Entries past `match` may already be in flight; never rewind over them.
    uint64_t& next = next_index_[static_cast<size_t>(from)];
    next = std::max(next, match + 1);
    AdvanceCommit();
  } else {
    // Retry from the follower's hint, which lies below the rejected entry.
    next_index_[static_cast<size_t>(from)] = match_index + 1;
    ReplicateTo(from);
  }
}

void KvNode::AdvanceCommit() {
  // The highest index a majority holds is the majority-th largest match index.
  std::vector<uint64_t> matched = match_index_;
  const auto majority_th = matched.begin() + static_cast<std::ptrdiff_t>(matched.size() / 2);
  std::nth_element(matched.begin(), majority_th, matched.end(), std::greater<>());
  const uint64_t candidate = std::min(*majority_th, LastLogIndex());
  // Raft commit rule: only entries of the current term commit by counting.
  // Terms never decrease along the log, so no lower index could qualify.
  if (candidate > commit_index_ && log_[candidate - 1].term == term_) {
    commit_index_ = candidate;
    ApplyCommitted();
  }
}

void KvNode::ApplyCommitted() {
  std::vector<WatchEvent> events;
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    ApplyOp(log_[last_applied_ - 1].op, last_applied_, events);
    auto pending = pending_proposals_.find(last_applied_);
    if (pending != pending_proposals_.end()) {
      pending->second(Status::Ok());
      pending_proposals_.erase(pending);
    }
  }
  // Watch events are emitted by the leader only, so the cluster sees each
  // commit once per stable leadership.
  if (role_ == Role::kLeader && !events.empty()) {
    cluster_.EmitWatchEvents(events);
  }
}

void KvNode::ApplyOp(const KvOp& op, uint64_t index, std::vector<WatchEvent>& events) {
  switch (op.type) {
    case KvOpType::kPut: {
      if (op.if_absent && state_.contains(op.key)) {
        break;  // Key exists: the conditional put is a committed no-op.
      }
      KvEntry& entry = state_[op.key];
      // Re-attaching to a different lease moves the key between leases.
      if (entry.lease != kNoLease && entry.lease != op.lease) {
        auto lease = leases_.find(entry.lease);
        if (lease != leases_.end()) {
          auto& keys = lease->second.keys;
          keys.erase(std::remove(keys.begin(), keys.end(), op.key), keys.end());
        }
      }
      entry.value = op.value;
      entry.mod_index = index;
      entry.lease = op.lease;
      if (op.lease != kNoLease) {
        auto lease = leases_.find(op.lease);
        if (lease != leases_.end()) {
          auto& keys = lease->second.keys;
          if (std::find(keys.begin(), keys.end(), op.key) == keys.end()) {
            keys.push_back(op.key);
          }
        }
      }
      events.push_back(WatchEvent{WatchEventType::kPut, op.key, op.value});
      break;
    }
    case KvOpType::kDelete: {
      auto it = state_.find(op.key);
      if (it != state_.end()) {
        events.push_back(WatchEvent{WatchEventType::kDelete, op.key, it->second.value});
        state_.erase(it);
      }
      break;
    }
    case KvOpType::kLeaseGrant: {
      LeaseState lease;
      lease.ttl = op.ttl;
      lease.deadline = op.issue_time + op.ttl;
      lease_deadline_bound_ = std::min(lease_deadline_bound_, lease.deadline);
      leases_[index] = std::move(lease);
      break;
    }
    case KvOpType::kLeaseRevoke: {
      auto lease = leases_.find(op.lease);
      if (lease != leases_.end()) {
        if (lease->second.period > 0) {
          EndRule(lease->second);
        }
        for (const std::string& key : lease->second.keys) {
          auto it = state_.find(key);
          if (it != state_.end() && it->second.lease == op.lease) {
            events.push_back(WatchEvent{WatchEventType::kExpired, key, it->second.value});
            state_.erase(it);
          }
        }
        leases_.erase(lease);
      }
      break;
    }
  }
}

Status KvNode::RenewLease(LeaseId lease_id) {
  auto lease = leases_.find(lease_id);
  if (lease == leases_.end()) {
    return NotFoundError("kvstore: lease not found: " + std::to_string(lease_id));
  }
  lease->second.deadline = cluster_.sim_.now() + lease->second.ttl;
  return Status::Ok();
}

Status KvNode::RenewByRule(LeaseId lease_id, int holder, TimeNs period,
                           std::function<void(TimeNs)> ended) {
  auto lease = leases_.find(lease_id);
  if (lease == leases_.end()) {
    return NotFoundError("kvstore: lease not found: " + std::to_string(lease_id));
  }
  LeaseState& state = lease->second;
  if (period <= 0 || period >= state.ttl) {
    return InvalidArgumentError("kvstore: a renewal rule needs 0 < period < TTL");
  }
  if (state.period == 0) {
    ++ruled_leases_;
  }
  state.deadline = cluster_.sim_.now() + state.ttl;
  state.period = period;
  state.holder = holder;
  state.rule_ended = std::move(ended);
  return Status::Ok();
}

void KvNode::EndRule(LeaseState& lease) {
  const TimeNs last_tick = LastRuledTick(lease.deadline - lease.ttl, lease.period, cluster_.sim_);
  lease.deadline = last_tick + lease.ttl;
  lease.period = 0;
  --ruled_leases_;
  lease_deadline_bound_ = std::min(lease_deadline_bound_, lease.deadline);
  const std::function<void(TimeNs)> ended = std::move(lease.rule_ended);
  lease.rule_ended = nullptr;
  ended(last_tick);
}

void KvNode::EndRules(std::optional<int> holder) {
  if (ruled_leases_ == 0) {
    return;
  }
  for (auto& [id, lease] : leases_) {
    if (lease.period > 0 && (!holder.has_value() || lease.holder == *holder)) {
      EndRule(lease);
    }
  }
}

TimeNs KvNode::LeaseDeadline(LeaseId lease_id) const {
  const auto lease = leases_.find(lease_id);
  if (lease == leases_.end()) {
    return kNoLeaseDeadline;
  }
  const LeaseState& state = lease->second;
  if (state.period == 0) {
    return state.deadline;
  }
  return LastRuledTick(state.deadline - state.ttl, state.period, cluster_.sim_) + state.ttl;
}

void KvNode::ExpireLeases() {
  const TimeNs now = cluster_.sim_.now();
  if (now <= lease_deadline_bound_) {
    return;  // Every deadline is at or after the bound: none has passed.
  }
  ++lease_table_walks_;
  TimeNs earliest = kNoLeaseDeadline;
  for (const auto& [id, lease] : leases_) {
    if (lease.period > 0) {
      continue;  // Renewed every period < TTL: it cannot have lapsed.
    }
    if (lease.deadline < now) {
      KvOp op;
      op.type = KvOpType::kLeaseRevoke;
      op.lease = id;
      op.issue_time = now;
      // Duplicate revocations are harmless: the second apply finds no lease.
      // The bound stays below `now`, so the next tick walks again.
      Propose(std::move(op), [](Status) {});
      return;
    }
    earliest = std::min(earliest, lease.deadline);
  }
  lease_deadline_bound_ = earliest;
}

void KvNode::Propose(KvOp op, std::function<void(Status)> done) {
  if (!alive()) {
    done(UnavailableError("kvstore: node is down"));
    return;
  }
  if (role_ != Role::kLeader) {
    done(UnavailableError("kvstore: not leader"));
    return;
  }
  cluster_.proposals_counter_->Increment();
  log_.push_back(LogEntry{term_, std::move(op)});
  const uint64_t index = LastLogIndex();
  match_index_[static_cast<size_t>(index_)] = index;
  pending_proposals_[index] = std::move(done);
  for (size_t peer = 0; peer < cluster_.server_ranks_.size(); ++peer) {
    if (static_cast<int>(peer) != index_) {
      ReplicateTo(static_cast<int>(peer));
    }
  }
  // Single-node cluster commits immediately.
  AdvanceCommit();
}

std::optional<KvEntry> KvNode::GetApplied(const std::string& key) const {
  auto it = state_.find(key);
  if (it == state_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void KvNode::VisitApplied(const std::string& prefix, const KvVisitor& visit) const {
  for (auto it = state_.lower_bound(prefix); it != state_.end() && it->first.starts_with(prefix);
       ++it) {
    visit(it->first, it->second);
  }
}

}  // namespace gemini
