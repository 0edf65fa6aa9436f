#include "util/clock.h"

namespace p2p::util {

SystemClock& SystemClock::instance() {
  // Leaked like the shared TimerQueue, whose waiter thread outlives main and
  // still reads this clock while static destructors run.
  static auto* clock = new SystemClock;
  return *clock;
}

}  // namespace p2p::util
