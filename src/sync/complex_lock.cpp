#include "sync/complex_lock.h"

#include <optional>

#include "base/backoff.h"
#include "base/panic.h"
#include "metrics/watchdog.h"
#include "prof/kprof.h"
#include "sched/event.h"
#include "sync/deadlock.h"
#include "trace/kspan.h"
#include "trace/ktrace.h"

namespace mach {
namespace {

constexpr std::uint32_t kWantWrite = lock_data_t::kWantWrite;
constexpr std::uint32_t kWantUpgrade = lock_data_t::kWantUpgrade;
constexpr std::uint32_t kSlowReaders = lock_data_t::kSlowReaders;
constexpr std::uint32_t kWant = kWantWrite | kWantUpgrade;

constexpr std::uint32_t readers(std::uint32_t state) { return state & ~lock_data_t::kFlags; }

// Views of the state word for code running under the interlock. Flags
// change only under the interlock, so they are stable there; the reader
// count may still move if no flag is set (fast-path readers).
inline std::uint32_t read_count(const lock_data_t* l) { return readers(l->state.load()); }
inline bool any_set(const lock_data_t* l, std::uint32_t flags) {
  return (l->state.load() & flags) != 0;
}

// Interlock held, kWantUpgrade clear, caller holds for read: set
// kWantUpgrade and drop the caller's read hold in one RMW, so the flag is
// up before the drain loop reads the count (as in lock_write). Adding
// kWantUpgrade cannot carry, since the bit is clear.
inline void claim_upgrade(lock_t l) { l->state.fetch_add(kWantUpgrade - 1); }

// Interlock held by the write or upgrade holder: clear `flag` and add
// `readers_added` with a plain store. No fast path can change the word
// meanwhile: entry needs it flag-free, and exit needs a reader count,
// which a write-side hold keeps at zero unless recursion has set
// kSlowReaders, which closes the fast exit too.
inline void holder_release(lock_t l, std::uint32_t flag, std::uint32_t readers_added) {
  l->state.store((l->state.load() & ~flag) + readers_added, std::memory_order_release);
}

// --- hold-time profiling (ktrace-gated; interlock held) ---

// Begin / end write-side hold timing (upgrade holds included). Recursive
// nested acquisitions keep the outermost stamp.
inline void hold_begin(lock_t l) {
  l->write_acquire_nanos = ktrace::enabled() ? now_nanos() : 0;
}

inline void hold_finish(lock_t l) {
  if (l->write_acquire_nanos == 0) return;
  const std::uint64_t end = now_nanos();
  const std::uint64_t hold = end - l->write_acquire_nanos;
  l->write_acquire_nanos = 0;
  lock_profile_of(l->profile).hold.record(hold);
  ktrace::emit_span(trace_kind::complex_write_held, l->name,
                    reinterpret_cast<std::uint64_t>(l), hold, end);
}

// Wait for the lock state to change. Interlock held on entry and exit.
// Sleep mode blocks through the event system (the lock's own address is
// the event, as in Mach's kern/lock.c); spin mode releases the interlock,
// backs off, and reacquires.
void lock_wait(lock_t l, backoff& bo, bool force_sleep) {
  if (l->can_sleep || force_sleep) {
    l->waiting = true;
    holder_increment(l->stats.sleeps);
    assert_wait(l);
    simple_unlock(&l->interlock);
    thread_block();
    simple_lock(&l->interlock);
  } else {
    holder_increment(l->stats.spins);
    simple_unlock(&l->interlock);
    bo.pause();
    simple_lock(&l->interlock);
  }
}

// Interlock held. Wake anyone blocked on the lock after a state change
// that could unblock them. Wake-all: waiters re-check their predicate and
// re-wait, which keeps the state machine simple at the price of a small
// thundering herd (Mach makes the same trade).
void lock_wakeup(lock_t l) {
  if (l->waiting) {
    l->waiting = false;
    thread_wakeup(l);
  }
}

// One complex-lock wait, from the first time a wait loop iterates to its
// exit: the ktrace wait span and per-lock wait histogram, the request-span
// annotation, the wait-graph edge, and the thread's kprof slot — the whole
// wait, sleeping or spinning, samples as waiting on THIS lock, and a
// writer's or upgrader's wait is the watchdog's record. Interlock held,
// except inside lock_wait.
class lock_waiter {
 public:
  lock_waiter(lock_t l, const void* me, stall_kind k) : l_(l), me_(me), kind_(k) {}

  // Wait once for the lock state to change.
  void wait(bool force_sleep = false) {
    if (!scope_) {
      start_ = ktrace::enabled() ? now_nanos() : 0;
      // The write holder blocking us is null when readers hold the lock.
      kspan::note_blocked(l_->name, l_, l_->write_holder);
      wait_graph::instance().thread_waits(me_, l_, l_->name);
      scope_.emplace(kprof::activity::lock_waiting, l_, l_->name, kind_);
    }
    lock_wait(l_, bo_, force_sleep);
  }

  // End the wait, if one began, before the caller publishes its hold.
  // `kind` distinguishes read/write/upgrade waits in the trace.
  void finish(trace_kind kind) {
    if (!scope_) return;
    scope_.reset();
    wait_graph::instance().thread_wait_done(me_, l_);
    if (start_ == 0 || !ktrace::enabled()) return;
    const std::uint64_t end = now_nanos();
    lock_profile_of(l_->profile).wait.record(end - start_);
    ktrace::emit_span(kind, l_->name, reinterpret_cast<std::uint64_t>(l_), end - start_, end);
  }

 private:
  lock_t l_;
  const void* me_;
  stall_kind kind_;
  backoff bo_;
  std::uint64_t start_ = 0;
  std::optional<wait_scope> scope_;
};

// Interlock held. Keep kSlowReaders in step with the two options whose
// reader rules only the interlock path implements.
void sync_slow_readers(lock_t l) {
  if (l->recursion_thread != nullptr || !l->writer_priority) {
    l->state.fetch_or(kSlowReaders);
  } else {
    l->state.fetch_and(~kSlowReaders);
  }
}

// Read-side fast paths, in the cmpxchg-loop style of Linux's lockref: one
// CAS on the state word and no interlock. Each returns false, having
// changed nothing, when the interlock path must decide instead.

// Entry is allowed only from a flag-free word, so a pending writer or
// upgrade (whose flag is set by an RMW on this same word) refuses it.
inline bool fast_read_enter(lock_t l) {
  std::uint32_t s = l->state.load(std::memory_order_relaxed);
  while ((s & lock_data_t::kFlags) == 0) {
    if (l->state.compare_exchange_weak(s, s + 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      l->fast_reads.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

// Exit: with kSlowReaders clear, a non-zero count means the caller holds
// for read (write and upgrade holds keep the count at zero).
inline bool fast_read_exit(lock_t l) {
  std::uint32_t s = l->state.load(std::memory_order_relaxed);
  while ((s & kSlowReaders) == 0 && readers(s) != 0) {
    if (l->state.compare_exchange_weak(s, s - 1, std::memory_order_release,
                                       std::memory_order_relaxed)) {
      if (readers(s) == 1 && (s & kWant) != 0) {
        // Last reader out under a draining writer or upgrader. The drainer
        // set its flag before reading the count, so it either saw our
        // decrement or is waiting for this wakeup.
        simple_lock(&l->interlock);
        lock_wakeup(l);
        simple_unlock(&l->interlock);
      }
      return true;
    }
  }
  return false;
}

inline void note_read_held(lock_t l, const void* me) {
  kprof::publish(kprof::activity::holding, l->name);
  wait_graph::instance().resource_held(l, me, l->name);
}

inline void note_released(lock_t l, const void* me) {
  kprof::publish(kprof::activity::running, nullptr);
  wait_graph::instance().resource_released(l, me);
}


// Release the interlock, then report the invariant violation. panic()
// normally aborts, but tests install a throwing hook; releasing first keeps
// the lock usable after the throw is caught.
[[noreturn]] void fail_locked(lock_t l, const std::string& msg) {
  simple_unlock(&l->interlock);
  panic(msg);
  __builtin_unreachable();
}

// Would a new (non-recursive) reader have to wait? With writers' priority
// (Mach behaviour) any outstanding write or upgrade request holds new
// readers off, guaranteeing the writer eventually gets the drained lock.
// Without it, readers keep piling in while read_count > 0 — the starvation
// experiment E3 measures.
bool reader_must_wait(const lock_data_t* l) {
  const std::uint32_t s = l->state.load();
  if (l->writer_priority) return (s & kWant) != 0;
  return (s & kWant) != 0 && readers(s) == 0;
}

}  // namespace

void lock_init(lock_t l, bool can_sleep, const char* name) {
  simple_lock_init(&l->interlock, name, /*tracked=*/false);
  l->state.store(0);
  l->fast_reads.store(0, std::memory_order_relaxed);
  l->waiting = false;
  l->can_sleep = can_sleep;
  l->writer_priority = true;
  l->mach25_try_upgrade_bug = false;
  l->recursion_thread = nullptr;
  l->recursion_depth = 0;
  l->write_holder = nullptr;
  l->name = name;
  for (std::atomic<std::uint64_t>* c :
       {&l->stats.read_acquisitions, &l->stats.write_acquisitions,
        &l->stats.recursive_acquisitions, &l->stats.upgrades_succeeded,
        &l->stats.upgrades_failed, &l->stats.downgrades, &l->stats.sleeps, &l->stats.spins}) {
    c->store(0, std::memory_order_relaxed);
  }
  l->write_acquire_nanos = 0;
  lock_profile_reset(l->profile);
}

void lock_read(lock_t l) {
  const void* me = current_thread_token();
  if (fast_read_enter(l)) {
    note_read_held(l, me);
    return;
  }
  simple_lock(&l->interlock);
  if (l->recursion_thread == me) {
    // The recursive holder is never blocked by pending write/upgrade
    // requests (paper sec. 4) — that is what lets it finish the work those
    // requests are waiting on.
    l->state.fetch_add(1);
    holder_increment(l->stats.recursive_acquisitions);
    holder_increment(l->stats.read_acquisitions);
    simple_unlock(&l->interlock);
    return;
  }
  lock_waiter w(l, me, stall_kind::none);
  while (reader_must_wait(l)) w.wait();
  w.finish(trace_kind::complex_read_wait);
  l->state.fetch_add(1);
  holder_increment(l->stats.read_acquisitions);
  note_read_held(l, me);
  simple_unlock(&l->interlock);
}

void lock_write(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->recursion_thread == me) {
    if (any_set(l, kWantWrite) && l->write_holder == me) {
      ++l->recursion_depth;
      holder_increment(l->stats.recursive_acquisitions);
      holder_increment(l->stats.write_acquisitions);
      simple_unlock(&l->interlock);
      return;
    }
    // "this downgrade prohibits recursive acquisitions for write" (sec. 4).
    simple_unlock(&l->interlock);
    panic(std::string("recursive write acquisition after downgrade on ") + l->name);
  }
  lock_waiter w(l, me, stall_kind::writer_wait);
  // Wait our turn behind other writers/upgraders...
  while (any_set(l, kWant)) w.wait();
  // Commits us: no new readers may be added. The flag is set before the
  // count is read, which is what lets the last fast-path reader out skip
  // the interlock unless a wakeup is owed.
  l->state.fetch_or(kWantWrite);
  // ...then drain existing readers, yielding to upgrades (upgrades are
  // favored over writes to avoid deadlocking a reader that must upgrade).
  while (read_count(l) > 0 || any_set(l, kWantUpgrade)) w.wait();
  w.finish(trace_kind::complex_write_wait);
  l->write_holder = me;
  holder_increment(l->stats.write_acquisitions);
  hold_begin(l);
  kprof::publish(kprof::activity::holding, l->name);
  wait_graph::instance().resource_held(l, me, l->name);
  simple_unlock(&l->interlock);
}

bool lock_read_to_write(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (read_count(l) == 0) fail_locked(l, std::string("upgrade without read hold on ") + l->name);
  if (l->recursion_thread == me) {
    fail_locked(l, std::string("upgrade of recursive read acquisition on ") + l->name);
  }
  if (any_set(l, kWantUpgrade)) {
    // Another upgrade is pending: ours fails and RELEASES the read lock
    // (required to let the other upgrade drain; the caller needs recovery
    // logic — the cost sec. 7.1 complains about, measured in E4).
    l->state.fetch_sub(1);
    holder_increment(l->stats.upgrades_failed);
    note_released(l, me);
    lock_wakeup(l);  // our released read hold may unblock the winner
    simple_unlock(&l->interlock);
    return true;  // TRUE = upgrade failed
  }
  claim_upgrade(l);
  lock_waiter w(l, me, stall_kind::writer_wait);
  while (read_count(l) > 0) w.wait();
  w.finish(trace_kind::complex_upgrade_wait);
  l->write_holder = me;
  holder_increment(l->stats.upgrades_succeeded);
  hold_begin(l);
  kprof::publish(kprof::activity::holding, l->name);
  simple_unlock(&l->interlock);
  return false;
}

void lock_write_to_read(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->write_holder != me) fail_locked(l, std::string("downgrade by non-writer on ") + l->name);
  if (l->recursion_depth != 0) {
    fail_locked(l, std::string("downgrade with nested write acquisitions on ") + l->name);
  }
  hold_finish(l);  // the write-side hold ends at the downgrade
  holder_release(l, any_set(l, kWantUpgrade) ? kWantUpgrade : kWantWrite, 1);
  l->write_holder = nullptr;
  holder_increment(l->stats.downgrades);
  lock_wakeup(l);  // other readers may now enter
  simple_unlock(&l->interlock);
}

void lock_done(lock_t l) {
  const void* me = current_thread_token();
  if (fast_read_exit(l)) {
    note_released(l, me);
    return;
  }
  simple_lock(&l->interlock);
  if (read_count(l) > 0) {
    const std::uint32_t left = readers(l->state.fetch_sub(1)) - 1;
    if (left == 0 || l->recursion_thread != me) note_released(l, me);
  } else if (l->recursion_depth > 0) {
    if (l->recursion_thread != me) {
      fail_locked(l, std::string("lock_done of recursive depth by non-holder on ") + l->name);
    }
    --l->recursion_depth;
  } else if (any_set(l, kWantUpgrade)) {
    if (l->write_holder != me) {
      fail_locked(l, std::string("lock_done of upgrade hold by non-holder on ") + l->name);
    }
    l->write_holder = nullptr;
    hold_finish(l);
    holder_release(l, kWantUpgrade, 0);
    note_released(l, me);
  } else {
    if (!(any_set(l, kWantWrite) && l->write_holder == me)) {
      fail_locked(l, std::string("lock_done of unheld lock ") + l->name);
    }
    l->write_holder = nullptr;
    hold_finish(l);
    holder_release(l, kWantWrite, 0);
    note_released(l, me);
  }
  lock_wakeup(l);
  simple_unlock(&l->interlock);
}

bool lock_try_read(lock_t l) {
  const void* me = current_thread_token();
  if (fast_read_enter(l)) {
    note_read_held(l, me);
    return true;
  }
  simple_lock(&l->interlock);
  if (l->recursion_thread == me) {
    l->state.fetch_add(1);
    holder_increment(l->stats.recursive_acquisitions);
    holder_increment(l->stats.read_acquisitions);
    simple_unlock(&l->interlock);
    return true;
  }
  if (reader_must_wait(l)) {
    simple_unlock(&l->interlock);
    return false;
  }
  l->state.fetch_add(1);
  holder_increment(l->stats.read_acquisitions);
  note_read_held(l, me);
  simple_unlock(&l->interlock);
  return true;
}

bool lock_try_write(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->recursion_thread == me && any_set(l, kWantWrite) && l->write_holder == me) {
    ++l->recursion_depth;
    holder_increment(l->stats.recursive_acquisitions);
    holder_increment(l->stats.write_acquisitions);
    simple_unlock(&l->interlock);
    return true;
  }
  // Claim kWantWrite only from "no readers, no want flag": a CAS, because
  // fast-path readers may enter until the flag is set.
  std::uint32_t idle = l->state.load() & kSlowReaders;
  if (!l->state.compare_exchange_strong(idle, idle | kWantWrite)) {
    simple_unlock(&l->interlock);
    return false;
  }
  l->write_holder = me;
  holder_increment(l->stats.write_acquisitions);
  hold_begin(l);
  kprof::publish(kprof::activity::holding, l->name);
  wait_graph::instance().resource_held(l, me, l->name);
  simple_unlock(&l->interlock);
  return true;
}

bool lock_try_read_to_write(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (read_count(l) == 0) fail_locked(l, std::string("try-upgrade without read hold on ") + l->name);
  if (any_set(l, kWantUpgrade) || l->recursion_thread == me) {
    // Would deadlock (or is a recursive read): keep the read lock and
    // report failure — unlike lock_read_to_write, nothing is dropped.
    simple_unlock(&l->interlock);
    return false;
  }
  claim_upgrade(l);
  lock_waiter w(l, me, stall_kind::writer_wait);
  // Appendix B.3: Mach 2.5's implementation blocked here even with the
  // Sleep option disabled; reproduce that when the compat knob is set.
  while (read_count(l) > 0) w.wait(/*force_sleep=*/l->mach25_try_upgrade_bug);
  w.finish(trace_kind::complex_upgrade_wait);
  l->write_holder = me;
  holder_increment(l->stats.upgrades_succeeded);
  hold_begin(l);
  kprof::publish(kprof::activity::holding, l->name);
  simple_unlock(&l->interlock);
  return true;
}

void lock_sleepable(lock_t l, bool can_sleep) {
  simple_lock(&l->interlock);
  l->can_sleep = can_sleep;
  simple_unlock(&l->interlock);
}

void lock_set_recursive(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->write_holder != me) {
    fail_locked(l, std::string("lock_set_recursive without write hold on ") + l->name);
  }
  l->recursion_thread = me;
  sync_slow_readers(l);
  simple_unlock(&l->interlock);
}

void lock_clear_recursive(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->recursion_thread != me) {
    fail_locked(l, std::string("lock_clear_recursive by non-holder on ") + l->name);
  }
  if (l->recursion_depth != 0) {
    fail_locked(l, std::string("lock_clear_recursive with nested holds on ") + l->name);
  }
  l->recursion_thread = nullptr;
  sync_slow_readers(l);
  simple_unlock(&l->interlock);
}

void lock_set_writer_priority(lock_t l, bool on) {
  simple_lock(&l->interlock);
  l->writer_priority = on;
  sync_slow_readers(l);
  simple_unlock(&l->interlock);
}

void lock_set_mach25_try_upgrade_bug(lock_t l, bool on) {
  simple_lock(&l->interlock);
  l->mach25_try_upgrade_bug = on;
  simple_unlock(&l->interlock);
}

complex_lock_stats lock_stats(lock_t l) {
  const complex_lock_counters& c = l->stats;
  simple_lock(&l->interlock);
  const complex_lock_stats s{counter_value(c.read_acquisitions) + counter_value(l->fast_reads),
                             counter_value(c.write_acquisitions),
                             counter_value(c.recursive_acquisitions),
                             counter_value(c.upgrades_succeeded),
                             counter_value(c.upgrades_failed),
                             counter_value(c.downgrades),
                             counter_value(c.sleeps),
                             counter_value(c.spins)};
  simple_unlock(&l->interlock);
  return s;
}

}  // namespace mach
