// Stall watchdog — the machlock analogue of Linux's softlockup / hung-task
// detectors.
//
// The paper's failure modes (section 5's ordering deadlocks, section 7's
// barrier deadlock, section 7.1's recursive-lock deadlock) all present the
// same way at runtime: a thread stops making progress while waiting for
// something. The watchdog watches for exactly that, from a monitor thread,
// across three wait classes:
//
//   * simple_spin    — a simple-lock acquisition spinning past its deadline
//                      (the holder is wedged or the lock leaked);
//   * thread_blocked — a thread suspended in assert_wait/thread_block past
//                      its deadline (a lost wakeup or an abandoned event);
//   * writer_wait    — a complex-lock writer (or upgrader) starved past its
//                      deadline (readers never drain).
//
// Each wait is published, by a wait_scope, to the waiting thread's kprof
// slot (prof/kprof.h): the slot is the thread's one wait record. The
// monitor polls the slot table and, when a wait exceeds its class
// deadline, composes a trip report: the stalled thread and resource, what
// its activity word says it is doing, the resource's holder (for locks),
// the wait-graph's held-lock dump and cycle report (when deadlock tracing
// is on), the lockstat top table, and the recent ktrace tail (when tracing
// is on) — then optionally panics.
//
// Cost model: wait scopes sit ONLY in wait slow paths (a contended
// acquisition, an actual suspension); the uncontended fast paths are
// untouched. Disarmed, a scope costs kprof's save/publish/restore of the
// activity word plus one relaxed load of the debug-plane gate; the clock is
// read and the record written only while the watchdog is armed.
//
// Enable programmatically (watchdog::instance().start(cfg)) or via the
// environment through trace_session: MACHLOCK_WATCHDOG=1 with optional
// MACHLOCK_WATCHDOG_{POLL,SPIN,BLOCK,WRITER}_MS and
// MACHLOCK_WATCHDOG_PANIC=1. See docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "base/debug_planes.h"
#include "prof/kprof.h"

namespace mach {

enum class stall_kind : int { none = 0, simple_spin, thread_blocked, writer_wait };
const char* to_string(stall_kind k) noexcept;

inline bool watchdog_armed() noexcept { return debug_planes_on(plane_watchdog); }

namespace watchdog_detail {
// Write / retire the watchdog record in `s`. Begin returns false, writing
// nothing, when an outer wait already holds the record: nested waits (a
// starved writer that sleeps through the event system) keep the outermost
// entry, which names the real stall.
[[gnu::cold]] bool note_wait_begin(kprof::detail::activity_slot* s, stall_kind k,
                                   const void* resource, const char* name) noexcept;
[[gnu::cold]] void note_wait_end(kprof::detail::activity_slot* s) noexcept;
}  // namespace watchdog_detail

// One wait, published to the calling thread's kprof slot from construction
// to destruction: kprof's activity word (`a` on the lock `name`, or on the
// event `resource` for a block), restored to the outer word at the end so
// nested waits unwind to the outer attribution; and, for a watched class
// while the watchdog is armed, the deadline record the watchdog polls. The
// end is not gated on the armed bit, so a record made while armed is
// retired even if the watchdog stops mid-wait. A block inside a complex-lock
// wait keeps the lock's attribution: naming the lock beats naming the
// lock's event address.
class wait_scope {
 public:
  wait_scope(kprof::activity a, const void* resource, const char* name,
             stall_kind k = stall_kind::none) noexcept
      : slot_(kprof::self_slot()), prev_(slot_->word.load(std::memory_order_relaxed)) {
    const bool block = a == kprof::activity::blocked;
    if (!block || kprof::unpack_state(prev_) != kprof::activity::lock_waiting) {
      slot_->word.store(kprof::pack(a, block ? resource : name, kspan::current() != 0),
                        std::memory_order_relaxed);
    }
    if (k != stall_kind::none && watchdog_armed()) [[unlikely]] {
      watched_ = watchdog_detail::note_wait_begin(slot_, k, resource, name);
    }
  }
  ~wait_scope() {
    if (watched_) [[unlikely]] watchdog_detail::note_wait_end(slot_);
    slot_->word.store(prev_, std::memory_order_relaxed);
  }
  wait_scope(const wait_scope&) = delete;
  wait_scope& operator=(const wait_scope&) = delete;

 private:
  kprof::detail::activity_slot* slot_;
  kprof::activity_word prev_;
  bool watched_ = false;
};

struct watchdog_config {
  std::chrono::milliseconds poll{10};
  std::chrono::milliseconds spin_deadline{250};
  std::chrono::milliseconds block_deadline{2000};
  std::chrono::milliseconds writer_deadline{1000};
  bool panic_on_trip = false;
  // Report sink; default writes the report to stderr. Runs on the monitor
  // thread.
  std::function<void(const std::string& report)> on_trip;
};

// Config from MACHLOCK_WATCHDOG_* environment variables (defaults above).
watchdog_config watchdog_config_from_env();

class watchdog {
 public:
  static watchdog& instance() noexcept;

  void start(const watchdog_config& cfg = {});
  void stop();
  bool running() const noexcept;

  std::uint64_t trips() const noexcept;
  std::string last_report() const;

 private:
  watchdog() = default;
  struct impl;
  impl& self() const;
};

}  // namespace mach
