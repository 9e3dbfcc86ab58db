// Inter-machine network fabric.
//
// Models the training cluster's NIC-to-NIC network (EFA in the paper) with
// the classic alpha-beta cost: a transfer of s bytes takes alpha + s/B. Each
// rank has one full-duplex NIC; a transfer occupies the sender's TX side and
// the receiver's RX side FIFO, so checkpoint chunks and training collectives
// contend for exactly the same resource — the source of the interference
// GEMINI's scheduler must avoid (Section 5).
//
// Two service classes share the NIC:
//  * Bulk transfers (Transfer): bandwidth-occupying, FIFO per NIC side.
//  * Control messages (SendControl): tiny RPCs (key-value store traffic,
//    agent notifications) delivered after a propagation delay without
//    consuming modeled bandwidth.
#ifndef SRC_CLUSTER_FABRIC_H_
#define SRC_CLUSTER_FABRIC_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace gemini {

struct FabricConfig {
  BytesPerSecond link_bandwidth = GbpsToBytesPerSecond(400);
  // Per-transfer startup cost (the alpha in f(s) = alpha + s/B).
  TimeNs alpha = Micros(100);
  // One-way propagation delay for control messages.
  TimeNs control_delay = Micros(50);
};

class Fabric {
 public:
  struct TransferOptions {
    // Fraction of line rate this transfer achieves. Training collectives are
    // synchronization-bound and achieve well below line rate; checkpoint
    // point-to-point streams run at full rate. Calibrated in
    // src/common/calibration.h.
    double bandwidth_efficiency = 1.0;
  };

  using DoneCallback = std::function<void(Status)>;

  Fabric(Simulator& sim, int num_ranks, FabricConfig config);

  int num_ranks() const { return static_cast<int>(nics_.size()); }
  const FabricConfig& config() const { return config_; }

  // Predicate consulted at transfer completion; a dead endpoint fails the
  // transfer with kUnavailable. Defaults to "always alive".
  void set_liveness_check(std::function<bool(int rank)> alive);

  // Liveness listeners run, in registration order, each time a rank dies or
  // comes back: the cluster's machines announce it from
  // Machine::set_health. A listener must not add or remove listeners.
  // Returns an id for RemoveLivenessListener.
  uint64_t AddLivenessListener(std::function<void(int rank, bool alive)> listener);
  void RemoveLivenessListener(uint64_t id);
  void NotifyLivenessChanged(int rank, bool alive);

  // Network partition predicate: when set, a pair (src, dst) for which it
  // returns false exchanges no traffic — control messages are dropped and
  // bulk transfers fail at completion time. Pass nullptr to heal.
  void set_partition_check(std::function<bool(int src, int dst)> connected);

  // Queues a bulk transfer src->dst. Start = max(now, src TX free, dst RX
  // free); completion = start + alpha + bytes/(B*efficiency). `done` runs at
  // completion time. Returns the scheduled completion time.
  TimeNs Transfer(int src_rank, int dst_rank, Bytes bytes, const TransferOptions& options,
                  DoneCallback done);

  // Local loopback "transfer" used by intra-machine staging: occupies no NIC
  // and completes after `duration`.
  void Local(TimeNs duration, DoneCallback done);

  // Delivers a control message (no bandwidth use) after control_delay.
  void SendControl(int src_rank, int dst_rank, EventCallback deliver);

  // Earliest time a bulk transfer src->dst could begin.
  TimeNs EarliestStart(int src_rank, int dst_rank) const;

  // Cumulative time the rank's TX side has been (or is scheduled to be) busy.
  TimeNs TxBusyTotal(int rank) const;
  TimeNs RxBusyTotal(int rank) const;

 private:
  struct Nic {
    TimeNs tx_free_at = 0;
    TimeNs rx_free_at = 0;
    TimeNs tx_busy_total = 0;
    TimeNs rx_busy_total = 0;
  };

  bool Connected(int src, int dst) const {
    return !partition_ || partition_(src, dst);
  }

  Simulator& sim_;
  FabricConfig config_;
  std::vector<Nic> nics_;
  std::function<bool(int)> alive_;
  std::function<bool(int, int)> partition_;
  uint64_t next_listener_id_ = 1;
  std::vector<std::pair<uint64_t, std::function<void(int, bool)>>> liveness_listeners_;
};

}  // namespace gemini

#endif  // SRC_CLUSTER_FABRIC_H_
