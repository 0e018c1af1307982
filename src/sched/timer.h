// Usage timers — the one place Mach coordinates WITHOUT multiprocessor
// locks (paper section 2):
//
//   "It is possible to implement operation coordination without
//    multiprocessor locks, but such techniques are reasonable only in
//    situations where other restrictions ensure that only a single
//    processor can attempt to change the data structure at a time. ...
//    The Mach kernel's operation coordination techniques are based on
//    multiprocessor locking, with the exception of access to timer data
//    structures in its usage timing subsystem [5]."
//
// The restriction that makes this sound: a usage timer is updated only by
// the processor the timed thread is running on — a single writer. Readers
// on other processors use the check-field protocol from Black's timing
// facility [5]: the writer bumps `high_check` BEFORE a rollover update and
// `high` AFTER it, so a reader that sees high == high_check between two
// reads has observed a consistent snapshot, and retries otherwise. No
// reader or writer ever spins on a lock; a reader retries only while an
// update is mid-flight.
//
// For comparison (bench E15) locked_usage_timer implements the same
// interface with a simple lock.
#pragma once

#include <atomic>
#include <cstdint>

#include "sync/simple_lock.h"

namespace mach {

// Microseconds, split like Mach's timer into low bits (rolled over by the
// updater) and high bits (guarded by the check field).
inline constexpr std::uint64_t timer_low_limit = 1u << 30;  // ~17.9 minutes in us

class usage_timer {
 public:
  // Single-writer update: add `delta_us` microseconds of usage. Must only
  // ever be called by one thread at a time (the "processor" running the
  // timed thread) — that restriction is the whole design.
  void tick(std::uint64_t delta_us) noexcept;

  // Lock-free consistent read from any thread.
  std::uint64_t total_us() const noexcept;

  // Diagnostics: how many reader retries the check protocol has caused.
  std::uint64_t read_retries() const noexcept {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint32_t> low_{0};
  std::atomic<std::uint32_t> high_{0};
  std::atomic<std::uint32_t> high_check_{0};
  mutable std::atomic<std::uint64_t> retries_{0};
};

// The locking baseline: identical semantics via a simple lock.
class locked_usage_timer {
 public:
  locked_usage_timer() : lock_("usage-timer", /*track=*/false) {}

  void tick(std::uint64_t delta_us) noexcept {
    simple_lock(&lock_);
    total_ += delta_us;
    simple_unlock(&lock_);
  }

  std::uint64_t total_us() const noexcept {
    simple_lock(&lock_);
    std::uint64_t v = total_;
    simple_unlock(&lock_);
    return v;
  }

 private:
  mutable simple_lock_data_t lock_;
  std::uint64_t total_ = 0;
};

}  // namespace mach
