// Mach event-wait primitives (paper section 6).
//
// The central problem these primitives solve: "releasing one or more locks
// to wait for an event ... must be atomic with respect to the operation
// that declares event occurrence", else the event can slip in while the
// locks are being released and the waiter blocks indefinitely. Mach splits
// the wait into a declaration (assert_wait) and a conditional context
// switch (thread_block): event occurrence synchronizes with assert_wait,
// and a wakeup arriving between the two converts the block into a
// non-blocking no-op.
//
//   assert_wait(event)        declare the event to be waited for
//   thread_block()            block, unless the event occurred since assert_wait
//   thread_wakeup(event)      event-based occurrence (wakes all waiters)
//   thread_wakeup_one(event)  wake a single waiter
//   clear_wait(thread, ...)   thread-based occurrence
//   thread_sleep(event, lock) the common release-one-lock-and-wait case
//
// Extension over the paper: thread_block_timeout() bounds the block so
// watchdogs and tests never hang; it reports wait_result::timed_out.
//
// Departure from the paper: Mach's thread_block always switches, and an
// idle processor picks up the woken thread at once. A host thread parked
// on a condvar instead pays a futex round trip before it runs again. So
// thread_block first polls its wakeup flag, for at most its adaptive
// budget (next_spin_budget) and only while the runnable kthreads leave a
// usable CPU idle; then it parks. A wakeup caught in the spin counts as a
// short-circuited block, and the waker skips the condvar notify for a
// thread that has not parked.
#pragma once

#include <chrono>

#include "sched/kthread.h"
#include "sync/simple_lock.h"

namespace mach {

// Declare the event the current thread is about to wait for. Calling this
// twice without an intervening thread_block is fatal (the paper's section 8
// note: the blocking release path "will call assert_wait() a second time
// (this is fatal)").
void assert_wait(event_t event);

// Block until the asserted event occurs. If the event occurred between
// assert_wait and this call, returns immediately (a non-blocking context
// switch). Without a prior assert_wait this is a plain yield.
// Fatal if any tracked simple lock is held — the paper's design
// requirement that simple locks never be held across blocking.
wait_result thread_block();

// As thread_block, but give up after `timeout`; the wait assertion is
// cancelled on timeout.
wait_result thread_block_timeout(std::chrono::milliseconds timeout);

// Event-based occurrence: wake every thread waiting on `event` / one such
// thread (no-op if there are none).
void thread_wakeup(event_t event);
void thread_wakeup_one(event_t event);

// Thread-based occurrence: wake `t` out of its current wait (or cause its
// next thread_block after an assert_wait to return immediately) with the
// given result. Used by implementations that track blocked threads
// themselves (the paper's "block threads on event zero" pattern).
void clear_wait(kthread& t, wait_result result = wait_result::cleared);

// Release `lock` and wait for `event`, atomically with respect to
// thread_wakeup: assert_wait, simple_unlock, thread_block.
wait_result thread_sleep(event_t event, simple_lock_data_t* lock);

// thread_block's spin budget after a wait that parked and lasted `waited`,
// in the manner of KVM halt polling: a wait that ended within the cap
// doubles the budget (from 0, back to the start value), up to the cap; a
// longer one halves it, and a budget below the start value becomes 0. A
// thread whose wakeups come late or never (an idle worker on a receive
// timeout) thus stops spinning.
std::chrono::nanoseconds next_spin_budget(std::chrono::nanoseconds cur,
                                          std::chrono::nanoseconds waited) noexcept;

}  // namespace mach
