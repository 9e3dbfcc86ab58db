// Deterministic discrete-event simulation engine.
//
// This is the substrate that stands in for the paper's physical GPU cluster:
// every timed activity (a NIC transfer, a PCIe copy, a compute segment, a
// heartbeat, a machine failure) is an event scheduled on one Simulator.
// Events at equal timestamps fire in scheduling order (FIFO tie-break via a
// monotonically increasing sequence number), so runs are bit-reproducible.
//
// Internals (see DESIGN.md, "Simulator engine"): callbacks live in a slab of
// generation-counted slots, and the ready queue is a min-heap of buckets,
// each holding the events of one exact timestamp as a FIFO list threaded
// through the slots. Only the most recently opened bucket accepts appends, so
// buckets that share a timestamp hold disjoint, ordered seq ranges and the
// pop order is exactly (when, seq). Once the slab, bucket pool and heap have
// grown to a run's high-water mark, scheduling and running events allocates
// only for callbacks larger than EventCallback::kInlineSize.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/sim/event_callback.h"

namespace gemini {

// Opaque handle identifying a scheduled event; usable for cancellation.
struct EventId {
  uint64_t value = 0;
  bool valid() const { return value != 0; }
  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs now() const { return now_; }

  // When the running event was scheduled; between events, when the last one
  // run was, except that Run and RunUntil leave it at now, having run every
  // event due. Equal-time events run in scheduling order, so an event due now
  // that was scheduled before this time has already run.
  TimeNs scheduled_at() const { return scheduled_at_; }

  // Schedules `fn` to run at absolute time `when` (>= now()).
  EventId ScheduleAt(TimeNs when, EventCallback fn);

  // Schedules `fn` to run `delay` after now().
  EventId ScheduleAfter(TimeNs delay, EventCallback fn);

  // Cancels a pending event. Returns false if the event already ran, was
  // already cancelled, or never existed; an id whose slot has since been
  // reused by another event is recognised by its generation and also returns
  // false. O(1): the callback is destroyed at once and its slot is reclaimed
  // when the queue reaches it.
  bool Cancel(EventId id);

  // Runs events until the queue is empty. Returns the number of events run.
  int64_t Run();

  // Runs events with timestamp <= deadline; leaves now() == deadline if the
  // queue drained earlier or the next event is beyond the deadline.
  int64_t RunUntil(TimeNs deadline);

  // Runs at most one event. Returns false when the queue is empty.
  bool Step();

  // Number of events still queued: those waiting to run plus cancelled ones
  // whose slot the queue has not reached yet.
  size_t pending_events() const { return slots_.size() - free_slots_.size(); }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Slot {
    EventCallback fn;  // empty once cancelled
    TimeNs scheduled_at = 0;
    // Bumped whenever the slot is freed, so ids of earlier occupants go stale.
    uint32_t generation = 1;
    uint32_t next = kNone;  // next slot in the same bucket
  };

  // FIFO list of slots, all with the same timestamp.
  struct Bucket {
    uint32_t head = kNone;
    uint32_t tail = kNone;
  };

  // Min-heap entry, ordered by (when, first_seq).
  struct HeapEntry {
    TimeNs when;
    uint64_t first_seq;
    uint32_t bucket;
  };

  // Drops cancelled slots and drained buckets from the front of the queue.
  // Returns false when no live event remains; otherwise the head slot of the
  // top bucket is live.
  bool SkipDead();

  // Pops and runs the next live event. Returns false if none remain.
  bool RunOne();

  void FreeSlot(uint32_t slot);

  TimeNs now_ = 0;
  TimeNs scheduled_at_ = 0;
  uint64_t next_seq_ = 1;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<Bucket> buckets_;
  std::vector<uint32_t> free_buckets_;
  std::vector<HeapEntry> heap_;
  // The most recently opened bucket, the only one that accepts appends, and
  // its timestamp; kNone once that bucket has been reclaimed.
  uint32_t open_bucket_ = kNone;
  TimeNs open_when_ = 0;
};

}  // namespace gemini

#endif  // SRC_SIM_SIMULATOR_H_
