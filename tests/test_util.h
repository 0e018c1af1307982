// Shared test helpers.
#pragma once

#include <chrono>

#include "base/compiler.h"
#include "base/panic.h"
#include "metrics/kmon.h"
#include "prof/kprof.h"
#include "sched/kthread.h"

namespace mach::testing {

inline void throwing_panic_hook(const std::string& message) { throw panic_error{message}; }

// Install a panic hook that throws panic_error for the scope's lifetime,
// so tests can assert on invariant violations.
class panic_hook_scope {
 public:
  panic_hook_scope() : previous_(set_panic_hook(&throwing_panic_hook)) {}
  ~panic_hook_scope() { set_panic_hook(previous_); }
  panic_hook_scope(const panic_hook_scope&) = delete;
  panic_hook_scope& operator=(const panic_hook_scope&) = delete;

 private:
  panic_hook_t previous_;
};

// Enable kmon for the scope's lifetime, then restore the process default
// (disabled), so a test can read kmet() counter deltas.
class kmon_scope {
 public:
  kmon_scope() { kmon::enable(); }
  ~kmon_scope() { kmon::disable(); }
  kmon_scope(const kmon_scope&) = delete;
  kmon_scope& operator=(const kmon_scope&) = delete;
};

// Bounded wait until `t` is inside thread_block past its early-wakeup
// check: its kprof activity word then reads blocked (spinning or parked).
// A complex-lock wait publishes lock_waiting instead; pass that as `state`.
// Reads the slot table directly: kprof::activity_for also resolves the
// site through a lock-registry snapshot, far slower than a spin budget.
inline bool wait_until_blocked(const kthread& t,
                               kprof::activity state = kprof::activity::blocked) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    for (const kprof::detail::activity_slot& s : kprof::detail::g_slots) {
      if (s.token.load(std::memory_order_acquire) == t.token() &&
          kprof::unpack_state(s.word.load(std::memory_order_relaxed)) == state) {
        return true;
      }
    }
    cpu_relax();
  }
  return false;
}

}  // namespace mach::testing
