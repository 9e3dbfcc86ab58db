#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace gemini {
namespace {

// std::*_heap build max-heaps, so "later" puts the earliest bucket on top.
template <typename Entry>
bool Later(const Entry& a, const Entry& b) {
  if (a.when != b.when) {
    return a.when > b.when;
  }
  return a.first_seq > b.first_seq;
}

}  // namespace

EventId Simulator::ScheduleAt(TimeNs when, EventCallback fn) {
  assert(fn);
  assert(when >= now_ && "cannot schedule into the past");
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.scheduled_at = now_;
  s.next = kNone;
  const uint64_t seq = next_seq_++;

  // Appending to any bucket but the newest could put this seq ahead of a
  // smaller one in a later-created bucket with the same timestamp.
  if (open_bucket_ == kNone || open_when_ != when) {
    uint32_t bucket;
    if (free_buckets_.empty()) {
      bucket = static_cast<uint32_t>(buckets_.size());
      buckets_.emplace_back();
    } else {
      bucket = free_buckets_.back();
      free_buckets_.pop_back();
      buckets_[bucket] = Bucket{};
    }
    heap_.push_back(HeapEntry{when, seq, bucket});
    std::push_heap(heap_.begin(), heap_.end(), Later<HeapEntry>);
    open_bucket_ = bucket;
    open_when_ = when;
  }
  Bucket& bucket = buckets_[open_bucket_];
  if (bucket.head == kNone) {
    bucket.head = slot;
  } else {
    slots_[bucket.tail].next = slot;
  }
  bucket.tail = slot;
  return EventId{(uint64_t{s.generation} << 32) | slot};
}

EventId Simulator::ScheduleAfter(TimeNs delay, EventCallback fn) {
  assert(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Simulator::Cancel(EventId id) {
  const auto slot = static_cast<uint32_t>(id.value);
  const auto generation = static_cast<uint32_t>(id.value >> 32);
  if (slot >= slots_.size()) {
    return false;
  }
  Slot& s = slots_[slot];
  if (s.generation != generation || !s.fn) {
    return false;
  }
  s.fn.Reset();
  return true;
}

void Simulator::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  // Generation 0 is skipped so that no id encodes to the invalid value 0.
  if (++s.generation == 0) {
    s.generation = 1;
  }
  free_slots_.push_back(slot);
}

bool Simulator::SkipDead() {
  while (!heap_.empty()) {
    const uint32_t index = heap_.front().bucket;
    Bucket& bucket = buckets_[index];
    while (bucket.head != kNone && !slots_[bucket.head].fn) {
      const uint32_t cancelled = bucket.head;
      bucket.head = slots_[cancelled].next;
      FreeSlot(cancelled);
    }
    if (bucket.head != kNone) {
      return true;
    }
    // Drained. Reclaimed only here, not when its last event ran: that event
    // may have appended to it with delay 0.
    std::pop_heap(heap_.begin(), heap_.end(), Later<HeapEntry>);
    heap_.pop_back();
    free_buckets_.push_back(index);
    if (open_bucket_ == index) {
      open_bucket_ = kNone;
    }
  }
  return false;
}

bool Simulator::RunOne() {
  if (!SkipDead()) {
    return false;
  }
  const HeapEntry& top = heap_.front();
  Bucket& bucket = buckets_[top.bucket];
  const uint32_t slot = bucket.head;
  Slot& s = slots_[slot];
  bucket.head = s.next;
  now_ = top.when;
  scheduled_at_ = s.scheduled_at;
  // Move the callback out and free its slot before running it: the callback
  // may schedule (growing slots_) or cancel other events, and its own id must
  // already read as run.
  EventCallback fn = std::move(s.fn);
  FreeSlot(slot);
  fn();
  return true;
}

int64_t Simulator::Run() {
  int64_t n = 0;
  while (RunOne()) {
    ++n;
  }
  scheduled_at_ = now_;
  return n;
}

int64_t Simulator::RunUntil(TimeNs deadline) {
  assert(deadline >= now_);
  int64_t n = 0;
  // SkipDead makes the heap top reflect a live event's time.
  while (SkipDead() && heap_.front().when <= deadline) {
    RunOne();
    ++n;
  }
  now_ = deadline;
  scheduled_at_ = deadline;
  return n;
}

bool Simulator::Step() { return RunOne(); }

std::optional<TimeNs> Simulator::NextEventTime() {
  if (!SkipDead()) {
    return std::nullopt;
  }
  return heap_.front().when;
}

}  // namespace gemini
