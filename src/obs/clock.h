// The one observability time source. Every obs timestamp — trace spans,
// ScopedTimer latencies, flight-recorder events, time-series samples,
// violation reports — reads Clock::NowUs(), which is the monotonic wall
// clock until something installs a replacement. The simulator installs its
// virtual clock here (see BettingProtocol::BindSimulation), so a simulated
// run never mixes wall and virtual time inside one export.
//
// Cost model: NowUs is one acquire load plus either a steady_clock read or
// one indirect call. Installed functions are retained for the process
// lifetime (readers may still hold the previous pointer), so installation is
// for long-lived sources, not per-call injection.

#ifndef ONOFFCHAIN_OBS_CLOCK_H_
#define ONOFFCHAIN_OBS_CLOCK_H_

#include <cstdint>
#include <functional>

namespace onoff::obs {

class Clock {
 public:
  using NowFn = std::function<uint64_t()>;

  // Microseconds from the installed source (wall-monotonic by default).
  static uint64_t NowUs();

  // Replaces the process-wide source; an empty function restores the wall
  // clock. The previous source stays allocated (a concurrent reader may be
  // mid-call), so installs should be rare — once per simulation binding.
  static void Install(NowFn now_us);

  // True when a non-wall source (the sim's virtual clock) is installed.
  static bool IsVirtual();
};

}  // namespace onoff::obs

#endif  // ONOFFCHAIN_OBS_CLOCK_H_
