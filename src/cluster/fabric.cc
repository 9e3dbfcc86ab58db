#include "src/cluster/fabric.h"

#include <algorithm>
#include <cassert>

namespace gemini {

Fabric::Fabric(Simulator& sim, int num_ranks, FabricConfig config)
    : sim_(sim), config_(config), nics_(static_cast<size_t>(num_ranks)) {
  assert(num_ranks > 0);
  assert(config_.link_bandwidth > 0);
  alive_ = [](int) { return true; };
}

void Fabric::set_liveness_check(std::function<bool(int rank)> alive) {
  assert(alive);
  alive_ = std::move(alive);
}

uint64_t Fabric::AddListener(Listener listener) {
  assert(listener.liveness_changed && listener.partition_changed);
  listeners_.emplace_back(next_listener_id_, std::move(listener));
  return next_listener_id_++;
}

void Fabric::RemoveListener(uint64_t id) {
  std::erase_if(listeners_, [id](const auto& entry) { return entry.first == id; });
}

void Fabric::NotifyLivenessChanged(int rank, bool alive) {
  for (const auto& [id, listener] : listeners_) {
    listener.liveness_changed(rank, alive);
  }
}

void Fabric::set_partition_check(std::function<bool(int src, int dst)> connected) {
  partition_ = std::move(connected);
  for (const auto& [id, listener] : listeners_) {
    listener.partition_changed();
  }
}

TimeNs Fabric::Transfer(int src_rank, int dst_rank, Bytes bytes, const TransferOptions& options,
                        DoneCallback done) {
  assert(src_rank >= 0 && src_rank < num_ranks());
  assert(dst_rank >= 0 && dst_rank < num_ranks());
  assert(src_rank != dst_rank && "use Local() for intra-machine staging");
  assert(bytes >= 0);
  assert(options.bandwidth_efficiency > 0 && options.bandwidth_efficiency <= 1.0);

  Nic& src = nics_[static_cast<size_t>(src_rank)];
  Nic& dst = nics_[static_cast<size_t>(dst_rank)];
  const TimeNs start = std::max({sim_.now(), src.tx_free_at, dst.rx_free_at});
  const TimeNs duration =
      config_.alpha + TransferTime(bytes, config_.link_bandwidth * options.bandwidth_efficiency);
  const TimeNs end = start + duration;
  src.tx_free_at = end;
  dst.rx_free_at = end;
  src.tx_busy_total += duration;
  dst.rx_busy_total += duration;

  sim_.ScheduleAt(end, [this, src_rank, dst_rank, done = std::move(done)] {
    if (!alive_(src_rank) || !alive_(dst_rank)) {
      done(UnavailableError("endpoint failed during transfer"));
      return;
    }
    if (!Connected(src_rank, dst_rank)) {
      done(UnavailableError("network partition between endpoints"));
      return;
    }
    done(Status::Ok());
  });
  return end;
}

void Fabric::Local(TimeNs duration, DoneCallback done) {
  assert(duration >= 0);
  sim_.ScheduleAfter(duration, [done = std::move(done)] { done(Status::Ok()); });
}

void Fabric::SendControl(int src_rank, int dst_rank, EventCallback deliver) {
  // A dead source cannot send; a dead destination silently drops the message
  // (checked at delivery time so failures mid-flight are respected).
  if (!alive_(src_rank)) {
    return;
  }
  SendControlSentAt(sim_.now(), src_rank, dst_rank, std::move(deliver));
}

void Fabric::SendControlSentAt(TimeNs sent_at, int src_rank, int dst_rank, EventCallback deliver) {
  assert(src_rank >= 0 && src_rank < num_ranks());
  assert(dst_rank >= 0 && dst_rank < num_ranks());
  assert(sent_at + config_.control_delay >= sim_.now());
  sim_.ScheduleAt(sent_at + config_.control_delay,
                  [this, src_rank, dst_rank, deliver = std::move(deliver)]() mutable {
    if (!alive_(dst_rank) || !Connected(src_rank, dst_rank)) {
      return;
    }
    deliver();
  });
}

TimeNs Fabric::EarliestStart(int src_rank, int dst_rank) const {
  const Nic& src = nics_.at(static_cast<size_t>(src_rank));
  const Nic& dst = nics_.at(static_cast<size_t>(dst_rank));
  return std::max({sim_.now(), src.tx_free_at, dst.rx_free_at});
}

TimeNs Fabric::TxBusyTotal(int rank) const {
  return nics_.at(static_cast<size_t>(rank)).tx_busy_total;
}

TimeNs Fabric::RxBusyTotal(int rank) const {
  return nics_.at(static_cast<size_t>(rank)).rx_busy_total;
}

}  // namespace gemini
