// Tests for the discrete-event simulation engine and timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "src/common/rng.h"

#include "src/sim/simulator.h"
#include "src/sim/timer.h"

// Every allocation through the global operator new in this binary is counted,
// so a test can assert that a stretch of simulation allocates nothing. All
// non-aligned forms are replaced together so that each new pairs with a
// matching delete (sanitizer runtimes check the pairing).
namespace {
std::atomic<int64_t> g_heap_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocOrThrow(std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace gemini {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Seconds(3), [&] { order.push_back(3); });
  sim.ScheduleAt(Seconds(1), [&] { order.push_back(1); });
  sim.ScheduleAt(Seconds(2), [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Seconds(3));
}

TEST(SimulatorTest, EqualTimestampsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(Seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  TimeNs fired_at = -1;
  sim.ScheduleAt(Seconds(5), [&] {
    sim.ScheduleAfter(Seconds(2), [&] { fired_at = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, Seconds(7));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.ScheduleAt(Seconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator sim;
  const EventId id = sim.ScheduleAt(Seconds(1), [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, CancelAfterRunReturnsFalse) {
  Simulator sim;
  const EventId id = sim.ScheduleAt(Seconds(1), [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, CancelInvalidIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(EventId{}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(Seconds(1), [&] { ++fired; });
  sim.ScheduleAt(Seconds(5), [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(Seconds(3)), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Seconds(3));
  // The later event still fires afterwards.
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilIncludesEventsAtDeadline) {
  Simulator sim;
  bool ran = false;
  sim.ScheduleAt(Seconds(3), [&] { ran = true; });
  sim.RunUntil(Seconds(3));
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(sim.now(), Seconds(10));
}

TEST(SimulatorTest, NextEventTimeSkipsCancelledEvents) {
  Simulator sim;
  EXPECT_FALSE(sim.NextEventTime().has_value());
  const EventId first = sim.ScheduleAt(Seconds(1), [] {});
  sim.ScheduleAt(Seconds(2), [] {});
  EXPECT_EQ(sim.NextEventTime(), Seconds(1));
  sim.Cancel(first);
  EXPECT_EQ(sim.NextEventTime(), Seconds(2));
  EXPECT_EQ(sim.now(), 0);
  sim.Run();
  EXPECT_FALSE(sim.NextEventTime().has_value());
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.ScheduleAfter(Seconds(1), recurse);
    }
  };
  sim.ScheduleAfter(Seconds(1), recurse);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), Seconds(5));
}

TEST(SimulatorTest, StepRunsExactlyOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1, [&] { ++fired; });
  sim.ScheduleAt(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, EventCancellingLaterEvent) {
  Simulator sim;
  bool second_ran = false;
  const EventId second = sim.ScheduleAt(Seconds(2), [&] { second_ran = true; });
  sim.ScheduleAt(Seconds(1), [&] { sim.Cancel(second); });
  sim.Run();
  EXPECT_FALSE(second_ran);
}

TEST(RepeatingTimerTest, TicksAtPeriod) {
  Simulator sim;
  std::vector<TimeNs> ticks;
  RepeatingTimer timer(sim, Seconds(2), [&] { ticks.push_back(sim.now()); });
  timer.Start();
  sim.RunUntil(Seconds(7));
  EXPECT_EQ(ticks, (std::vector<TimeNs>{Seconds(2), Seconds(4), Seconds(6)}));
}

TEST(RepeatingTimerTest, FireNowTicksImmediately) {
  Simulator sim;
  int ticks = 0;
  RepeatingTimer timer(sim, Seconds(5), [&] { ++ticks; });
  timer.Start(/*fire_now=*/true);
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(ticks, 1);
}

TEST(RepeatingTimerTest, StopHaltsTicks) {
  Simulator sim;
  int ticks = 0;
  RepeatingTimer timer(sim, Seconds(1), [&] { ++ticks; });
  timer.Start();
  sim.RunUntil(Seconds(3));
  timer.Stop();
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(timer.running());
}

TEST(RepeatingTimerTest, CallbackMayStopTimer) {
  Simulator sim;
  int ticks = 0;
  RepeatingTimer timer(sim, Seconds(1), [&] {
    if (++ticks == 2) {
      timer.Stop();
    }
  });
  timer.Start();
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(ticks, 2);
}

TEST(RepeatingTimerTest, DestructionCancelsPendingTick) {
  Simulator sim;
  int ticks = 0;
  {
    RepeatingTimer timer(sim, Seconds(1), [&] { ++ticks; });
    timer.Start();
  }
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(ticks, 0);
}

TEST(RepeatingTimerTest, RestartAfterStop) {
  Simulator sim;
  int ticks = 0;
  RepeatingTimer timer(sim, Seconds(1), [&] { ++ticks; });
  timer.Start();
  sim.RunUntil(Seconds(2));
  timer.Stop();
  timer.Start();
  sim.RunUntil(Seconds(4));
  EXPECT_EQ(ticks, 4);
}

// The control plane's steady state: every agent's periodic timer fires at the
// same instant, and a Raft-style election timer is cancelled and re-armed at a
// random deadline on every heartbeat. Once the engine has grown to this load,
// running it must not touch the heap.
TEST(SimulatorAllocationTest, TimerStormAllocatesNothingAfterWarmUp) {
  constexpr int kTimers = 256;
  constexpr TimeNs kPeriod = Millis(100);
  Simulator sim;
  int64_t ticks = 0;
  std::vector<std::unique_ptr<RepeatingTimer>> timers;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<RepeatingTimer>(sim, kPeriod, [&ticks] { ++ticks; }));
    timers.back()->Start();
  }
  struct ElectionTimer {
    Simulator& sim;
    Rng rng{7};
    EventId pending{};
    int64_t fired = 0;

    void Reset() {
      sim.Cancel(pending);
      pending = sim.ScheduleAfter(rng.UniformInt(kPeriod / 2, 2 * kPeriod), [this] {
        ++fired;
        pending = EventId{};
        Reset();
      });
    }
  } election{sim};
  election.Reset();
  RepeatingTimer heartbeat(sim, kPeriod, [&election] { election.Reset(); });
  heartbeat.Start();

  sim.RunUntil(100 * kPeriod);
  const int64_t before = g_heap_allocations.load();
  sim.RunUntil(sim.now() + 10000 * kPeriod);
  const int64_t allocations = g_heap_allocations.load() - before;

  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(ticks, int64_t{kTimers} * 10100);
  EXPECT_GT(election.fired, 0);
}

}  // namespace
}  // namespace gemini

namespace gemini {
namespace {

// Randomized model check: the simulator must agree with a simple reference
// (sorted stable list with tombstones) on execution order under arbitrary
// schedule/cancel interleavings.
class SimulatorFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorFuzzTest, MatchesReferenceModel) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 1);
  Simulator sim;
  struct Ref {
    TimeNs when;
    int tag;
    bool cancelled = false;
  };
  std::vector<Ref> reference;
  std::vector<EventId> ids;
  std::vector<int> executed;

  const int ops = 300;
  for (int i = 0; i < ops; ++i) {
    if (!ids.empty() && rng.Bernoulli(0.2)) {
      // Cancel a random event (possibly already cancelled).
      const size_t victim = static_cast<size_t>(rng.NextU64Below(ids.size()));
      const bool cancelled = sim.Cancel(ids[victim]);
      if (cancelled) {
        reference[victim].cancelled = true;
      }
    } else {
      const TimeNs when = rng.UniformInt(0, Seconds(100));
      const int tag = i;
      ids.push_back(sim.ScheduleAt(when, [&executed, tag] { executed.push_back(tag); }));
      reference.push_back(Ref{when, tag});
    }
  }
  sim.Run();

  // Reference order: by (when, insertion order), skipping cancelled.
  std::vector<int> expected;
  std::vector<size_t> order(reference.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return reference[a].when < reference[b].when;
  });
  for (const size_t i : order) {
    if (!reference[i].cancelled) {
      expected.push_back(reference[i].tag);
    }
  }
  EXPECT_EQ(executed, expected);
}

// The obvious engine: a list of events, each pop a linear scan for the
// smallest (when, scheduling order). The script below drives it and the
// Simulator identically and compares what they do.
class ReferenceSimulator {
 public:
  TimeNs now() const { return now_; }

  EventId ScheduleAt(TimeNs when, std::function<void()> fn) {
    events_.push_back(Event{when, std::move(fn), true});
    return EventId{events_.size()};
  }

  bool Cancel(EventId id) {
    if (!id.valid() || id.value > events_.size() || !events_[id.value - 1].pending) {
      return false;
    }
    events_[id.value - 1].pending = false;
    return true;
  }

  int64_t RunUntil(TimeNs deadline) {
    int64_t n = 0;
    for (;;) {
      size_t next = events_.size();
      for (size_t i = 0; i < events_.size(); ++i) {
        if (events_[i].pending && (next == events_.size() || events_[i].when < events_[next].when)) {
          next = i;
        }
      }
      if (next == events_.size() || events_[next].when > deadline) {
        break;
      }
      events_[next].pending = false;
      now_ = events_[next].when;
      std::function<void()> fn = std::move(events_[next].fn);
      fn();
      ++n;
    }
    now_ = deadline;
    return n;
  }

 private:
  struct Event {
    TimeNs when;
    std::function<void()> fn;
    bool pending;
  };

  TimeNs now_ = 0;
  std::vector<Event> events_;
};

// A seeded script of schedules and cancels over 16 distinct instants, so most
// pops tie on time. Running events schedule more events, some with delay 0
// into the instant being drained, and cancel others. Returns the trace of
// executed tags (>= 0) and cancel outcomes (< 0).
template <typename Engine>
std::vector<int64_t> RunTiesScript(uint64_t seed) {
  constexpr int kInstants = 16;
  constexpr size_t kMaxEvents = 600;
  Engine sim;
  Rng rng(seed);
  std::vector<EventId> ids;           // by tag
  std::vector<bool> ran;              // by tag
  std::vector<bool> must_run;         // by tag; never cancelled by the script
  std::vector<int64_t> trace;
  std::function<void(int)> run_event;

  const auto instant = [](int64_t i) { return Seconds(static_cast<double>(i)); };
  const auto schedule = [&](TimeNs when, bool protect) {
    const int tag = static_cast<int>(ids.size());
    ran.push_back(false);
    must_run.push_back(protect);
    ids.push_back(sim.ScheduleAt(when, [&run_event, tag] { run_event(tag); }));
    return tag;
  };
  const auto cancel_random = [&] {
    const auto victim = static_cast<size_t>(rng.NextU64Below(ids.size()));
    if (must_run[victim]) {
      return;
    }
    const bool cancelled = sim.Cancel(ids[victim]);
    if (ran[victim]) {
      EXPECT_FALSE(cancelled) << "cancelled tag " << victim << " after it ran";
    }
    trace.push_back(-2 * static_cast<int64_t>(victim) - (cancelled ? 2 : 1));
  };
  run_event = [&](int tag) {
    ran[static_cast<size_t>(tag)] = true;
    trace.push_back(tag);
    if (ids.size() >= kMaxEvents) {
      return;
    }
    const int64_t current = sim.now() / Seconds(1);
    const double action = rng.NextDouble();
    if (action < 0.3) {
      schedule(sim.now(), false);  // delay 0: joins the instant being drained
    } else if (action < 0.55) {
      schedule(instant(rng.UniformInt(current, kInstants - 1)), false);
    } else if (action < 0.75) {
      cancel_random();
    } else {
      // The event that runs now has released its id, so a new event may take
      // over its slot; the stale id must not cancel that newcomer.
      schedule(instant(rng.UniformInt(current, kInstants - 1)), true);
      const bool cancelled = sim.Cancel(ids[static_cast<size_t>(tag)]);
      EXPECT_FALSE(cancelled) << "tag " << tag << " cancelled itself while running";
    }
  };

  for (int i = 0; i < 120; ++i) {
    if (!ids.empty() && rng.Bernoulli(0.2)) {
      cancel_random();
    } else {
      schedule(instant(rng.UniformInt(0, kInstants / 2)), false);
    }
  }
  sim.RunUntil(instant(kInstants / 4));
  for (int i = 0; i < 60; ++i) {
    schedule(instant(rng.UniformInt(kInstants / 4, kInstants - 1)), rng.Bernoulli(0.1));
  }
  sim.RunUntil(instant(kInstants));

  for (size_t tag = 0; tag < ids.size(); ++tag) {
    if (must_run[tag]) {
      EXPECT_TRUE(ran[tag]) << "protected tag " << tag << " never ran";
    }
    // Every id is now stale: its event ran, or was cancelled and reclaimed.
    EXPECT_FALSE(sim.Cancel(ids[tag])) << "tag " << tag;
  }
  return trace;
}

TEST_P(SimulatorFuzzTest, TiesReentrancyAndStaleIdsMatchReference) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 3;
  const std::vector<int64_t> reference = RunTiesScript<ReferenceSimulator>(seed);
  const std::vector<int64_t> simulated = RunTiesScript<Simulator>(seed);
  EXPECT_EQ(simulated, reference);
  EXPECT_GT(std::count_if(reference.begin(), reference.end(), [](int64_t e) { return e >= 0; }),
            300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorFuzzTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace gemini
