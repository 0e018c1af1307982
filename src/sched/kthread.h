// Kernel threads.
//
// The paper's coordination machinery is expressed in terms of threads of
// control inside the kernel: a thread holds locks, asserts waits, blocks,
// and can be the target of clear_wait. kthread wraps a host thread with the
// wait state the event system (sched/event.h) needs, and gives every thread
// a stable identity and name for lock debugging.
//
// Any host thread (e.g. the test main thread) is adopted lazily by
// kthread::current(); threads created with kthread::spawn() are owned and
// must be joined before destruction.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace mach {

// An event is identified by an address, as in Mach (vm_offset_t event).
using event_t = const void*;

// thread_block's adaptive spin budget (sched/event.h, next_spin_budget):
// a thread starts at about the cost of a park plus wake, and never spins
// longer than the cap.
inline constexpr std::chrono::nanoseconds spin_budget_start{10'000};
inline constexpr std::chrono::nanoseconds spin_budget_cap{200'000};

enum class wait_result {
  awakened,   // thread_wakeup on the event
  cleared,    // clear_wait aimed at this thread
  timed_out,  // extension: bounded block for watchdogs/tests
  not_waiting // thread_block without a prior assert_wait (plain yield)
};

class kthread {
 public:
  ~kthread();
  kthread(const kthread&) = delete;
  kthread& operator=(const kthread&) = delete;

  // The current thread's kthread, adopting the host thread on first use.
  static kthread& current();

  // Spawn a named kernel thread running `fn`. Join before destroying.
  static std::unique_ptr<kthread> spawn(std::string name, std::function<void()> fn);

  void join();

  const std::string& name() const noexcept { return name_; }
  // Identity token shared with the lock-debugging layer.
  const void* token() const noexcept { return token_; }
  // The spin budget of thread_block and spin_while_zero (sched/event.h).
  // Only this thread writes it: read it from this thread or after join().
  std::chrono::nanoseconds spin_budget() const noexcept { return spin_budget_; }

 private:
  friend struct event_system;
  explicit kthread(std::string name);

  std::string name_;
  const void* token_ = nullptr;
  std::thread host_;  // empty for adopted threads
  bool adopted_ = false;

  // Kthreads that are running, spinning or woken: +1 when one starts or a
  // host thread is adopted, -1 when it exits, -1 when it parks on its
  // condvar and +1 when a waker or its timeout unparks it. Relaxed; it
  // only gates thread_block's spin phase (sched/event.cpp).
  static inline std::atomic<int> runnable_{0};

  // --- Wait state, owned by the event system ---
  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;
  // Event from assert_wait, null when not asserted. Atomic because
  // clear_wait probes it from outside the owning bucket's lock; it is
  // stable while the thread is queued.
  std::atomic<event_t> wait_event_{nullptr};
  bool wait_asserted_ = false;     // between assert_wait and thread_block completion
  // Event occurred since assert_wait. Written under wait_mutex_; atomic
  // because thread_block's spin phase polls it without the mutex.
  std::atomic<bool> wakeup_pending_{false};
  wait_result wakeup_result_ = wait_result::awakened;
  // In the condvar wait: a waker notifies only then (under wait_mutex_).
  bool parked_ = false;
  // Wakers that unparked this thread and have not yet returned from
  // notify_all. They notify after releasing wait_mutex_, when the thread
  // may already have run on and exited, so ~kthread waits for zero.
  std::atomic<int> notifiers_{0};
  // Spin budget of thread_block; read and written only by this thread.
  std::chrono::nanoseconds spin_budget_{spin_budget_start};
  // On an event bucket queue. Written under the owning bucket's lock;
  // atomic because clear_wait probes it cross-bucket.
  std::atomic<bool> queued_{false};
  // The next thread in a waker's list of threads it dequeued and has yet
  // to deliver to. Written under the bucket lock by the waker that
  // dequeued this thread; the thread stays blocked until that delivery.
  kthread* wake_next_ = nullptr;
  // kspan wait-for edge: the waker's span context, stored by the event
  // system's wakeup delivery (under wait_mutex_) and consumed by this
  // thread when its block ends, so the trace records who unblocked whom.
  // 0 when spans are disabled or the waker carried no span.
  std::atomic<std::uint64_t> wake_span_ctx_{0};
};

}  // namespace mach
