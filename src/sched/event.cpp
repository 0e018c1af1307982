#include "sched/event.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "base/compiler.h"
#include "base/panic.h"
#include "metrics/kmetrics.h"
#include "metrics/watchdog.h"
#include "trace/kspan.h"
#include "trace/ktrace.h"

namespace mach {
namespace {

// Hashed wait queues, as in Mach's sched_prim.c. Each bucket holds waiters
// for every event hashing to it; matching is by exact event.
constexpr std::size_t num_buckets = 128;

struct event_bucket {
  // Untracked: internal to the event system, never held across blocking.
  simple_lock_data_t lock{"event-bucket", /*track=*/false};
  std::vector<kthread*> waiters;
};

event_bucket& bucket_for(event_t e) {
  static std::array<event_bucket, num_buckets> table;
  return table[std::hash<const void*>{}(e) & (num_buckets - 1)];
}

// CPUs this process may run on, from the affinity mask at first use.
int usable_cpus() noexcept {
  static const int n = [] {
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
    return static_cast<int>(std::thread::hardware_concurrency());
  }();
  return n;
}

}  // namespace

// Friend of kthread: all access to its wait state funnels through here.
struct event_system {
  static void assert_wait(event_t e) {
    MACH_ASSERT(e != nullptr, "assert_wait on the null event");
    kthread& t = kthread::current();
    // Only the owning thread sets wait_asserted_, so it may read it bare.
    // Checked before the bucket lock, which a throwing panic hook (tests)
    // would otherwise leave held.
    MACH_ASSERT(!t.wait_asserted_,
                "assert_wait by '" + t.name_ + "' while a wait is already asserted (fatal per paper sec. 8)");
    event_bucket& b = bucket_for(e);
    simple_lock(&b.lock);
    {
      std::lock_guard<std::mutex> g(t.wait_mutex_);
      t.wait_event_ = e;
      t.wait_asserted_ = true;
      t.wakeup_pending_.store(false, std::memory_order_relaxed);
    }
    b.waiters.push_back(&t);
    t.queued_ = true;
    simple_unlock(&b.lock);
    kmet().sched_wait_queue_depth.add(1);
    ktrace::emit(trace_kind::assert_wait_ev, nullptr, reinterpret_cast<std::uint64_t>(e));
  }

  // Dequeue `t` from its bucket if still queued. Returns true if this call
  // removed it (i.e. no waker got there first).
  static bool try_dequeue(kthread& t, event_t e) {
    event_bucket& b = bucket_for(e);
    simple_lock(&b.lock);
    bool removed = false;
    if (t.queued_) {
      auto it = std::find(b.waiters.begin(), b.waiters.end(), &t);
      MACH_ASSERT(it != b.waiters.end(), "queued thread missing from event bucket");
      b.waiters.erase(it);
      t.queued_ = false;
      removed = true;
    }
    simple_unlock(&b.lock);
    if (removed) kmet().sched_wait_queue_depth.sub(1);
    return removed;
  }

  // The spin gate: spin only while the runnable kthreads, the spinner
  // included, leave a usable CPU idle, so a thread a waker unparks finds a
  // CPU at once and a spinner never takes one from the thread it waits
  // for. On one CPU, or oversubscribed, thread_block parks at once. (With
  // runnable <= cpus instead, E17's 4/4/95 row lost ~11% on a 4-vCPU VM.)
  static bool spin_gate_open() noexcept {
    return kthread::runnable_.load(std::memory_order_relaxed) < usable_cpus();
  }

  // Poll for a wakeup, without the mutex, until one is pending, `until`
  // passes or the gate closes.
  static void spin(const kthread& t, std::chrono::steady_clock::time_point until) {
    for (;;) {
      for (int i = 0; i < 64; ++i) {
        if (t.wakeup_pending_.load(std::memory_order_acquire)) return;
        cpu_relax();
      }
      if (std::chrono::steady_clock::now() >= until || !spin_gate_open()) return;
    }
  }

  // Condvar wait until a wakeup is pending, or until `limit` elapses (null:
  // no limit). Returns whether a wakeup is pending. A parked thread does
  // not count as runnable; the waker that unparks it (deliver()) counts it
  // again at once, since it then needs a CPU, and a timed-out thread
  // counts itself.
  static bool park(kthread& t, std::unique_lock<std::mutex>& g,
                   const std::chrono::nanoseconds* limit) {
    const auto pending = [&t] { return t.wakeup_pending_.load(std::memory_order_relaxed); };
    t.parked_ = true;
    kthread::runnable_.fetch_sub(1, std::memory_order_relaxed);
    bool woke = true;
    if (limit == nullptr) {
      t.wait_cv_.wait(g, pending);
    } else {
      woke = t.wait_cv_.wait_for(g, *limit, pending);
    }
    if (t.parked_) unpark(t);
    return woke;
  }

  // Under t.wait_mutex_: t leaves the park and is runnable again.
  static void unpark(kthread& t) {
    t.parked_ = false;
    kthread::runnable_.fetch_add(1, std::memory_order_relaxed);
  }

  static wait_result block(const std::chrono::milliseconds* timeout) {
    kthread& t = kthread::current();
    MACH_ASSERT(held_tracked_simple_locks() == 0,
                "thread_block by '" + t.name_ + "' while holding a simple lock (design requirement, paper sec. 4)");
    std::unique_lock<std::mutex> g(t.wait_mutex_);
    if (!t.wait_asserted_) {
      // Plain context switch.
      g.unlock();
      std::this_thread::yield();
      return wait_result::not_waiting;
    }
    // Trace the blocked interval (from here to wakeup consumption); a
    // short-circuited block shows as a ~0-length span, which is itself
    // informative (the paper's non-blocking context switch).
    const std::uint64_t t_block = debug_planes_on(plane_ktrace | plane_kmon) ? now_nanos() : 0;
    const event_t e = t.wait_event_.load();
    const auto traced_event = reinterpret_cast<std::uint64_t>(e);
    auto traced = [&](wait_result r) {
      if (t_block != 0) {
        const std::uint64_t end = now_nanos();
        if (ktrace::enabled()) {
          ktrace::emit_span(trace_kind::thread_blocked, nullptr, traced_event, end - t_block, end);
        }
        kmet().sched_block_nanos.record(end - t_block);
      }
      // Consume the wait-for edge the waker left behind (deliver()): the
      // trace then records that THIS thread's block was ended by a wakeup
      // issued under the waker's span — the blocking-handoff half of
      // kspan's cross-thread propagation.
      if (kspan::enabled()) {
        const std::uint64_t waker = t.wake_span_ctx_.exchange(0, std::memory_order_relaxed);
        if (waker != 0 && r == wait_result::awakened) {
          ktrace::emit(trace_kind::span_unblock, nullptr, waker, traced_event);
        }
      }
      return r;
    };
    if (t.wakeup_pending_) {
      // Event occurred between assert_wait and here: non-blocking switch.
      kmet().sched_blocks_short_circuited.inc();
      return traced(consume_locked(t));
    }
    // "This thread is suspended", to kprof and the stall watchdog; the dtor
    // covers every return path out of block(), timeouts included.
    const wait_scope blocked(kprof::activity::blocked, e, "event-wait", stall_kind::thread_blocked);
    const auto start = std::chrono::steady_clock::now();
    std::chrono::nanoseconds spin_limit = t.spin_budget_;
    if (timeout != nullptr) spin_limit = std::min<std::chrono::nanoseconds>(spin_limit, *timeout);
    if (spin_limit > std::chrono::nanoseconds::zero() && spin_gate_open()) {
      // Spin on a CPU no runnable kthread needs, standing in for Mach's
      // idle processor picking up the woken thread at once.
      g.unlock();
      spin(t, start + spin_limit);
      g.lock();
      if (t.wakeup_pending_) {
        // Caught in the spin: as good as the non-blocking switch.
        kmet().sched_blocks_short_circuited.inc();
        return traced(consume_locked(t));
      }
    }
    kmet().sched_blocks.inc();
    bool woke;
    if (timeout == nullptr) {
      woke = park(t, g, nullptr);
    } else {
      const std::chrono::nanoseconds left =
          *timeout - (std::chrono::steady_clock::now() - start);
      woke = park(t, g, &left);
    }
    t.spin_budget_ = next_spin_budget(t.spin_budget_, std::chrono::steady_clock::now() - start);
    if (woke) return traced(consume_locked(t));
    // Timed out: remove ourselves from the queue, racing against wakers.
    g.unlock();
    if (try_dequeue(t, e)) {
      std::lock_guard<std::mutex> g2(t.wait_mutex_);
      // A waker cannot reach us anymore; cancel the assertion.
      t.wait_asserted_ = false;
      t.wait_event_ = nullptr;
      t.wakeup_pending_.store(false, std::memory_order_relaxed);
      return traced(wait_result::timed_out);
    }
    // A waker dequeued us concurrently; its wakeup is (about to be)
    // delivered. Honor it.
    g.lock();
    park(t, g, nullptr);
    return traced(consume_locked(t));
  }

  static wait_result consume_locked(kthread& t) {
    t.wait_asserted_ = false;
    t.wait_event_ = nullptr;
    t.wakeup_pending_.store(false, std::memory_order_relaxed);
    return t.wakeup_result_;
  }

  static void deliver(kthread* t, wait_result r) {
    bool parked;
    {
      std::lock_guard<std::mutex> g(t->wait_mutex_);
      t->wakeup_result_ = r;
      t->wakeup_pending_.store(true, std::memory_order_release);
      if (kspan::enabled()) {
        t->wake_span_ctx_.store(kspan::current(), std::memory_order_relaxed);
      }
      parked = t->parked_;
      if (parked) {
        unpark(*t);
        t->notifiers_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // A spinning waiter sees wakeup_pending_; only a parked one needs the
    // futex. Notifying after the unlock keeps the waiter from waking into
    // a held mutex; notifiers_ keeps its kthread alive until we are done.
    if (parked) {
      t->wait_cv_.notify_all();
      t->notifiers_.fetch_sub(1, std::memory_order_release);
    }
  }

  static void wakeup(event_t e, bool one) {
    event_bucket& b = bucket_for(e);
    std::vector<kthread*> to_wake;
    simple_lock(&b.lock);
    for (auto it = b.waiters.begin(); it != b.waiters.end();) {
      kthread* t = *it;
      // wait_event_ is stable while the thread is queued (see assert_wait /
      // try_dequeue): safe to read under the bucket lock.
      if (t->wait_event_ == e) {
        it = b.waiters.erase(it);
        t->queued_ = false;
        to_wake.push_back(t);
        if (one) break;
      } else {
        ++it;
      }
    }
    simple_unlock(&b.lock);
    ktrace::emit(trace_kind::thread_wakeup_ev, nullptr, reinterpret_cast<std::uint64_t>(e),
                 to_wake.size());
    if (to_wake.empty()) {
      kmet().sched_wakeups_no_waiter.inc();
      return;
    }
    kmet().sched_wakeups.inc(to_wake.size());
    kmet().sched_wait_queue_depth.sub(static_cast<std::int64_t>(to_wake.size()));
    for (kthread* t : to_wake) deliver(t, wait_result::awakened);
  }

  static void clear(kthread& t, wait_result r) {
    // The target can consume a wakeup and re-assert a different event while
    // we work, so verify the event under the bucket lock and retry on a
    // mismatch. A thread cycling faster than we can observe is inherently
    // unclearable (same in Mach); bound the retries.
    for (int attempt = 0; attempt < 64; ++attempt) {
      event_t e = nullptr;
      {
        std::lock_guard<std::mutex> g(t.wait_mutex_);
        if (!t.wait_asserted_ || t.wakeup_pending_) return;  // nothing to clear
        e = t.wait_event_;
      }
      event_bucket& b = bucket_for(e);
      simple_lock(&b.lock);
      if (t.queued_ && t.wait_event_ == e) {
        auto it = std::find(b.waiters.begin(), b.waiters.end(), &t);
        MACH_ASSERT(it != b.waiters.end(), "queued thread missing from event bucket");
        b.waiters.erase(it);
        t.queued_ = false;
        simple_unlock(&b.lock);
        kmet().sched_wait_queue_depth.sub(1);
        kmet().sched_wakeups.inc();
        deliver(&t, r);
        return;
      }
      bool superseded = !t.queued_;
      simple_unlock(&b.lock);
      if (superseded) return;  // a waker got there first; its wakeup stands
      std::this_thread::yield();
    }
  }
};

void assert_wait(event_t event) { event_system::assert_wait(event); }

wait_result thread_block() { return event_system::block(nullptr); }

wait_result thread_block_timeout(std::chrono::milliseconds timeout) {
  return event_system::block(&timeout);
}

void thread_wakeup(event_t event) { event_system::wakeup(event, /*one=*/false); }

void thread_wakeup_one(event_t event) { event_system::wakeup(event, /*one=*/true); }

void clear_wait(kthread& t, wait_result result) { event_system::clear(t, result); }

wait_result thread_sleep(event_t event, simple_lock_data_t* lock) {
  assert_wait(event);
  simple_unlock(lock);
  return thread_block();
}

std::chrono::nanoseconds next_spin_budget(std::chrono::nanoseconds cur,
                                          std::chrono::nanoseconds waited) noexcept {
  if (waited <= spin_budget_cap) {
    return cur == std::chrono::nanoseconds::zero() ? spin_budget_start
                                                   : std::min(cur * 2, spin_budget_cap);
  }
  const std::chrono::nanoseconds half = cur / 2;
  return half < spin_budget_start ? std::chrono::nanoseconds::zero() : half;
}

}  // namespace mach
