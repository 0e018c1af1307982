// Shared test helpers.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <latch>

#include "base/compiler.h"
#include "base/panic.h"
#include "base/rng.h"
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

// CPUs this process may run on (its affinity mask, so `taskset` counts).
inline int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
}

// The start of a storm: the worker moves onto its own CPU of its
// affinity mask (round-robin by `worker`), waits at `gate` until every
// worker has arrived, and then takes its own mask back. Without the move,
// threads spawned in a burst can stay on the spawner's CPU for longer than
// a short storm runs, and the workers run one after another instead of
// overlapping. Taking the mask back leaves the thread where it is, but
// whatever reads the mask later sees every CPU, not one: thread_block's
// spin gate counts usable CPUs from the mask of the first thread to block.
inline void spread_and_wait(std::latch& gate, int worker) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  bool moved = false;
  if (pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved) == 0 &&
      CPU_COUNT(&saved) > 1) {
    int nth = worker % CPU_COUNT(&saved);
    for (int cpu = 0; cpu < CPU_SETSIZE && !moved; ++cpu) {
      if (CPU_ISSET(cpu, &saved) && nth-- == 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        moved = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
      }
    }
  }
  gate.arrive_and_wait();
  if (moved) pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
}

// A short random pause, so threads hammering one word interleave their
// accesses instead of one core keeping the line for a run of operations.
inline void jitter(xorshift64& rng) {
  for (std::uint64_t k = rng.next_below(32); k > 0; --k) cpu_relax();
}

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
