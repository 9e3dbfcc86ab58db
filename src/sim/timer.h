// Repeating timer built on the Simulator, used for heartbeats and periodic
// health scans. The callback may Stop() the timer (e.g. when its agent dies).
//
// Lifetime: the destructor cancels the pending tick, so a timer may be
// destroyed at any time except from inside its own callback: the tick reads
// the timer after on_tick returns, to re-arm it. Debug builds assert this.
#ifndef SRC_SIM_TIMER_H_
#define SRC_SIM_TIMER_H_

#include <functional>

#include "src/sim/simulator.h"

namespace gemini {

class RepeatingTimer {
 public:
  // Does not start ticking until Start() is called.
  RepeatingTimer(Simulator& sim, TimeNs period, std::function<void()> on_tick);
  ~RepeatingTimer();

  RepeatingTimer(const RepeatingTimer&) = delete;
  RepeatingTimer& operator=(const RepeatingTimer&) = delete;

  // First tick fires `period` from now (or immediately if fire_now).
  void Start(bool fire_now = false);
  void Stop();
  bool running() const { return running_; }
  TimeNs period() const { return period_; }

 private:
  void Arm(TimeNs delay);
  void Tick();

  Simulator& sim_;
  TimeNs period_;
  std::function<void()> on_tick_;
  bool running_ = false;
  bool in_tick_ = false;
  EventId pending_{};
};

}  // namespace gemini

#endif  // SRC_SIM_TIMER_H_
