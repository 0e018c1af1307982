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

using reader_way = lock_data_t::reader_way;

inline reader_way& my_way(lock_t l) { return l->ways[way_index()]; }

// The readers in, for code running under the interlock: every exits is
// read before any enters, so an exit counted here has its entry counted
// too. A reader counts itself in before it checks the flags, so after a
// drainer's flag set this sum may read high (a refused reader's entry,
// briefly), never low.
inline std::uint64_t read_count(const lock_data_t* l) {
  std::uint64_t out = 0;
  for (unsigned i = 0; i < num_ways; ++i) out += l->ways[i].exits.load();
  std::uint64_t in = 0;
  for (unsigned i = 0; i < num_ways; ++i) in += l->ways[i].enters.load();
  return in - out;
}

// Flags change only under the interlock, so they are stable there.
inline bool any_set(const lock_data_t* l, std::uint32_t flags) {
  return (l->state.load() & flags) != 0;
}

// Interlock held: raise `flag`. The RMW is a full fence, so the flag is
// visible before the caller sums the ways.
inline void claim(lock_t l, std::uint32_t flag) { l->state.fetch_or(flag); }

// Interlock held by the write or upgrade holder: clear `flag`. Every write
// to the state word happens under the interlock, so a plain release store
// cannot lose another flag.
inline void holder_release(lock_t l, std::uint32_t flag) {
  l->state.store(l->state.load() & ~flag, std::memory_order_release);
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
  const std::uint32_t s = l->state.load() & ~kSlowReaders;
  const bool slow = l->recursion_thread != nullptr || !l->writer_priority;
  l->state.store(slow ? s | kSlowReaders : s, std::memory_order_release);
}

// A reader has just counted itself out, or backed out of a refused entry.
// If a want flag is up now, a drainer may have summed the ways before our
// decrement and gone to wait: wake it once the sum reaches zero. The flags
// must be reloaded after the decrement; a load taken before it misses a
// drainer whose flag went up in between. Each leaving reader sums after
// its own decrement, under the interlock, so the last of them sees zero.
inline void reader_gone(lock_t l) {
  if ((l->state.load() & kWant) == 0) return;
  simple_lock(&l->interlock);
  if (l->write_holder == nullptr && read_count(l) == 0) lock_wakeup(l);
  simple_unlock(&l->interlock);
}

// Read-side fast paths: one RMW on the caller's own way and no interlock.
// Each returns false, having changed nothing, when the interlock path must
// decide instead.

// Entry: count in on our way, then check the flags. A refused entry is
// undone like an exit, so a drainer that summed us in is not left waiting.
inline bool fast_read_enter(lock_t l) {
  reader_way& w = my_way(l);
  w.enters.fetch_add(1);
  if ((l->state.load() & lock_data_t::kFlags) == 0) return true;
  w.enters.fetch_sub(1);
  reader_gone(l);
  return false;
}

// Exit, only from a flag-free word (no write-side holder, no recursion)
// and only when our own way shows a reader in: otherwise the interlock
// path decides who is releasing what.
inline bool fast_read_exit(lock_t l) {
  if ((l->state.load(std::memory_order_relaxed) & lock_data_t::kFlags) != 0) return false;
  reader_way& w = my_way(l);
  const std::uint64_t in = w.enters.load(std::memory_order_relaxed);
  if (static_cast<std::int64_t>(in - w.exits.load(std::memory_order_relaxed)) <= 0) return false;
  w.exits.fetch_add(1);
  reader_gone(l);
  return true;
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
// experiment E3 measures. A non-zero sum does not prove that a reader is in
// (a refused entry shows briefly), so there a reader also waits out a
// write-side holder, known by identity.
bool reader_must_wait(const lock_data_t* l) {
  const bool want = any_set(l, kWant);
  if (l->writer_priority) return want;
  return l->write_holder != nullptr || (want && read_count(l) == 0);
}

// Interlock held, reader admitted: count the hold in on our way.
inline void read_enter_locked(lock_t l) { my_way(l).enters.fetch_add(1); }

// Interlock held: the recursion holder takes a read hold past any pending
// write or upgrade request (paper sec. 4) — that is what lets it finish
// the work those requests are waiting on.
inline void recursive_read(lock_t l) {
  read_enter_locked(l);
  ++l->recursive_reads;
  holder_increment(l->stats.recursive_acquisitions);
}

// Interlock held, kWantUpgrade clear, caller holds for read: raise
// kWantUpgrade, turn the caller's read hold into the upgrade, and wait for
// the other readers to drain. The first sum also checks that the caller
// held a read: without one, dropping it takes the sum below zero.
void upgrade(lock_t l, const void* me, bool force_sleep, const char* unheld) {
  claim(l, kWantUpgrade);
  reader_way& way = my_way(l);
  way.exits.fetch_add(1);
  lock_waiter w(l, me, stall_kind::writer_wait);
  for (;;) {
    const auto in = static_cast<std::int64_t>(read_count(l));
    if (in == 0) break;
    if (in < 0) {
      way.exits.fetch_sub(1);
      holder_release(l, kWantUpgrade);
      fail_locked(l, unheld + std::string(l->name));
    }
    w.wait(force_sleep);
  }
  w.finish(trace_kind::complex_upgrade_wait);
  l->write_holder = me;
  holder_increment(l->stats.upgrades_succeeded);
  hold_begin(l);
  kprof::publish(kprof::activity::holding, l->name);
}

}  // namespace

void lock_init(lock_t l, bool can_sleep, const char* name) {
  simple_lock_init(&l->interlock, name, /*tracked=*/false);
  l->state.store(0);
  for (unsigned i = 0; i < num_ways; ++i) {
    l->ways[i].enters.store(0, std::memory_order_relaxed);
    l->ways[i].exits.store(0, std::memory_order_relaxed);
  }
  l->waiting = false;
  l->can_sleep = can_sleep;
  l->writer_priority = true;
  l->mach25_try_upgrade_bug = false;
  l->recursion_thread = nullptr;
  l->recursion_depth = 0;
  l->recursive_reads = 0;
  l->write_holder = nullptr;
  l->name = name;
  for (std::atomic<std::uint64_t>* c :
       {&l->stats.write_acquisitions, &l->stats.recursive_acquisitions,
        &l->stats.upgrades_succeeded, &l->stats.upgrades_failed, &l->stats.downgrades,
        &l->stats.sleeps, &l->stats.spins}) {
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
    recursive_read(l);
    simple_unlock(&l->interlock);
    return;
  }
  lock_waiter w(l, me, stall_kind::none);
  while (reader_must_wait(l)) w.wait();
  w.finish(trace_kind::complex_read_wait);
  read_enter_locked(l);
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
  // Commits us: no new readers may be added. The flag is up before the
  // ways are summed, so every reader either sees it or is counted.
  claim(l, kWantWrite);
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
  if (l->recursion_thread == me) {
    fail_locked(l, std::string("upgrade of recursive read acquisition on ") + l->name);
  }
  if (any_set(l, kWantUpgrade)) {
    if (read_count(l) == 0) fail_locked(l, std::string("upgrade without read hold on ") + l->name);
    // Another upgrade is pending: ours fails and RELEASES the read lock
    // (required to let the other upgrade drain; the caller needs recovery
    // logic — the cost sec. 7.1 complains about, measured in E4).
    my_way(l).exits.fetch_add(1);
    holder_increment(l->stats.upgrades_failed);
    note_released(l, me);
    lock_wakeup(l);  // our released read hold may unblock the winner
    simple_unlock(&l->interlock);
    return true;  // TRUE = upgrade failed
  }
  upgrade(l, me, /*force_sleep=*/false, "upgrade without read hold on ");
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
  // The read hold is not a new acquisition: count it in by taking one exit
  // back, before the flag falls.
  my_way(l).exits.fetch_sub(1);
  holder_release(l, any_set(l, kWantUpgrade) ? kWantUpgrade : kWantWrite);
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
  // Who releases what is decided by identity: a non-zero sum alone does
  // not prove that a reader is in.
  if (l->recursion_thread == me && l->recursive_reads > 0) {
    --l->recursive_reads;  // a nested read; the holder still holds
    my_way(l).exits.fetch_add(1);
  } else if (l->write_holder == me && any_set(l, kWant)) {
    if (l->recursion_depth > 0) {
      --l->recursion_depth;
    } else {
      l->write_holder = nullptr;
      hold_finish(l);
      holder_release(l, any_set(l, kWantUpgrade) ? kWantUpgrade : kWantWrite);
      note_released(l, me);
    }
  } else if (read_count(l) > 0) {
    my_way(l).exits.fetch_add(1);
    note_released(l, me);
  } else if (l->recursion_depth > 0) {
    fail_locked(l, std::string("lock_done of recursive depth by non-holder on ") + l->name);
  } else if (any_set(l, kWantUpgrade)) {
    fail_locked(l, std::string("lock_done of upgrade hold by non-holder on ") + l->name);
  } else {
    fail_locked(l, std::string("lock_done of unheld lock ") + l->name);
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
    recursive_read(l);
    simple_unlock(&l->interlock);
    return true;
  }
  if (reader_must_wait(l)) {
    simple_unlock(&l->interlock);
    return false;
  }
  read_enter_locked(l);
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
  if (any_set(l, kWant)) {
    simple_unlock(&l->interlock);
    return false;
  }
  // Claim kWantWrite, then look for readers; back out if any are in. No
  // waiter can have seen the flag: they all decide under the interlock.
  claim(l, kWantWrite);
  if (read_count(l) != 0) {
    holder_release(l, kWantWrite);
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
  if (any_set(l, kWantUpgrade) || l->recursion_thread == me) {
    if (read_count(l) == 0) {
      fail_locked(l, std::string("try-upgrade without read hold on ") + l->name);
    }
    // Would deadlock (or is a recursive read): keep the read lock and
    // report failure — unlike lock_read_to_write, nothing is dropped.
    simple_unlock(&l->interlock);
    return false;
  }
  // Appendix B.3: Mach 2.5's implementation blocked here even with the
  // Sleep option disabled; reproduce that when the compat knob is set.
  upgrade(l, me, /*force_sleep=*/l->mach25_try_upgrade_bug, "try-upgrade without read hold on ");
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
  l->recursive_reads = 0;  // nested read holds left become plain read holds
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
  const complex_lock_stats s{l->read_enters(),
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
