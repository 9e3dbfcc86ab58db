// Shared types for the replicated key-value store (the etcd stand-in used by
// GEMINI's failure-recovery module for health status, failure detection, and
// root-agent election).
#ifndef SRC_KVSTORE_KV_TYPES_H_
#define SRC_KVSTORE_KV_TYPES_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "src/common/units.h"

namespace gemini {

using LeaseId = uint64_t;
inline constexpr LeaseId kNoLease = 0;
// The lease-deadline bound of a node that holds no lease.
inline constexpr TimeNs kNoLeaseDeadline = std::numeric_limits<TimeNs>::max();

enum class KvOpType {
  kPut,
  kDelete,
  // Creates a lease with a TTL; keys attached to it are deleted on expiry.
  // The lease id is the grant's log index, the same on every replica.
  // (Renewals never enter the log: the leader serves them from its lessor.)
  kLeaseGrant,
  // Revokes a lease (explicitly or on expiry), deleting attached keys.
  kLeaseRevoke,
};

// One replicated state-machine command. The leader stamps `issue_time` so all
// replicas compute identical lease deadlines when applying the op.
struct KvOp {
  KvOpType type = KvOpType::kPut;
  std::string key;
  std::string value;
  LeaseId lease = kNoLease;
  TimeNs ttl = 0;
  TimeNs issue_time = 0;
  // For kPut: only apply when the key does not exist (etcd-style election
  // primitive; losers observe the winner's value afterwards).
  bool if_absent = false;
};

struct KvEntry {
  std::string value;
  LeaseId lease = kNoLease;
  // Raft log index of the last write; exposes etcd-style mod revisions.
  uint64_t mod_index = 0;
};

enum class WatchEventType { kPut, kDelete, kExpired };

struct WatchEvent {
  WatchEventType type = WatchEventType::kPut;
  std::string key;
  std::string value;  // New value for kPut; previous value for deletes.
};

using WatchCallback = std::function<void(const WatchEvent&)>;
// Visits one applied entry in place (KvStoreCluster::VisitPrefix).
using KvVisitor = std::function<void(const std::string& key, const KvEntry& entry)>;

}  // namespace gemini

#endif  // SRC_KVSTORE_KV_TYPES_H_
