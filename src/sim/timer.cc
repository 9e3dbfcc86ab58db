#include "src/sim/timer.h"

#include <cassert>
#include <utility>

namespace gemini {

RepeatingTimer::RepeatingTimer(Simulator& sim, TimeNs period, std::function<void()> on_tick)
    : sim_(sim), period_(period), on_tick_(std::move(on_tick)) {
  assert(period_ > 0);
  assert(on_tick_);
}

RepeatingTimer::~RepeatingTimer() {
  assert(!in_tick_ && "RepeatingTimer destroyed from inside its own callback");
  Stop();
}

void RepeatingTimer::Start(bool fire_now) {
  if (running_) {
    return;
  }
  running_ = true;
  Arm(fire_now ? 0 : period_);
}

void RepeatingTimer::Stop() {
  running_ = false;
  if (pending_.valid()) {
    sim_.Cancel(pending_);
    pending_ = EventId{};
  }
}

void RepeatingTimer::Arm(TimeNs delay) {
  pending_ = sim_.ScheduleAfter(delay, [this] { Tick(); });
}

void RepeatingTimer::Tick() {
  // Stop() cancels the pending tick, so a tick only fires while running.
  assert(running_);
  pending_ = EventId{};
  in_tick_ = true;
  on_tick_();
  in_tick_ = false;
  // on_tick_ may have stopped the timer, or stopped and restarted it, which
  // armed it already.
  if (running_ && !pending_.valid()) {
    Arm(period_);
  }
}

}  // namespace gemini
