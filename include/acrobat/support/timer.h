// Monotonic clock helpers and the activity-time buckets every runtime
// component reports into (DESIGN.md "measurement discipline").
#pragma once

#include <cstdint>
#include <ctime>

namespace acrobat {

inline std::int64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000ll + ts.tv_nsec;
}

// Busy-wait for `ns` nanoseconds. Used to charge the simulated per-launch
// device overhead as real wall time (DESIGN.md substitution table): a sleep
// would be descheduled and a pure counter would not show up in wall-clock
// measurements.
inline void spin_ns(std::int64_t ns) {
  if (ns <= 0) return;
  const std::int64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

struct TimeBucket {
  std::int64_t ns = 0;
  double ms() const { return static_cast<double>(ns) * 1e-6; }
  void add(std::int64_t delta) { ns += delta; }
  TimeBucket& operator+=(const TimeBucket& o) {
    ns += o.ns;
    return *this;
  }
};

// RAII span that adds its lifetime to a bucket when enabled.
class ScopedTimer {
 public:
  ScopedTimer(TimeBucket& bucket, bool enabled)
      : bucket_(bucket), enabled_(enabled), t0_(enabled ? now_ns() : 0) {}
  ~ScopedTimer() {
    if (enabled_) bucket_.add(now_ns() - t0_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TimeBucket& bucket_;
  bool enabled_;
  std::int64_t t0_;
};

}  // namespace acrobat
