// Reference-count policies (paper section 8, experiment E7).
//
// Mach implements references as "a reference count field in the
// corresponding data structure", incremented and decremented under the
// object's lock — "actually acquiring a reference requires locking the
// object (or the portion containing its reference count)". That is
// locked_refcount below, and the discipline kobject builds on.
//
// Three interchangeable policies are provided, compared head-to-head in
// the E7 shoot-out and selectable per-object through kobject:
//
//   * locked_refcount  — the paper's design: count guarded by a simple
//     lock. Every get/put pays an acquire/release pair.
//   * atomic_refcount  — the "portion" form taken literally: one atomic
//     RMW, no lock. The kobject default: in E7 it beats the locked count
//     at every thread count.
//   * striped_refcount — a lazily striped count for hot objects (cache
//     items, pset, the pager-backed memory object) whose single count line
//     would ping-pong between cores. See its lifecycle below.
//
// striped_refcount's lifecycle. The count starts as one central lockref64
// word (sync/lockref.h): count, lock bit, dead bit and an inflated bit.
// Until contention every get/put is one cmpxchg on that word, exactly
// like the atomic policy, and the last put moves it from 1 to dead. The
// first clone whose cmpxchg fails because another core wrote the word
// inflates the count: it allocates kSlots per-way slots (each a lockref64
// on its own cache line) outside any lock, publishes the array (a loser
// of that race frees its own), and sets the inflated bit under the
// central word's lock. From then on each thread gets/puts against its
// way's slot (base/stats.h way_index()), and the central count is the
// striped count's base: it changes only in the locked reconcile, which
// takes every slot lock and then the central lock, folds the slots into
// the base and decides release-to-zero. There is no deflation.
//
// Why base >= 1 holds while the object is alive. Before inflation the
// central word is the whole count, so it is >= 1 while any reference
// exists. The pre-inflation fast paths cmpxchg the very word that carries
// the inflated bit, so none can land once the bit is set: a stale clone or
// put fails and retries on the slots. At inflation the base is therefore
// the whole count, held by at least the inflating cloner; afterwards only
// the reconcile writes it, and it publishes the whole positive total there.
// Slots never go negative (a put that would drive its slot below zero takes
// the reconcile instead), so a slot put that keeps its slot >= 0 cannot be
// the last reference. At zero the reconcile marks the central word and
// every slot with the sticky kDeadBit, which keeps clone-from-dead panics
// exact.
//
// Observable semantics are identical across policies (asserted by the
// policy-equivalence property tests): release() returns true exactly
// once, over-release and clone-from-dead MACH_ASSERT identically, and
// counts match a sequential oracle. Sticky references (section 8: a
// terminated object's data structure survives while pointers to it
// exist) need no policy cooperation — deactivation never touches the
// count word, so clones of still-held references ride the fast path on
// deactivated objects exactly as on active ones; only the count reaching
// zero retires the word.
//
// Tracing discipline: every policy emits ktrace ref_take/ref_release on
// every path (records carry the active kspan context automatically).
// ref_release arg2 is the exact remaining count where the policy knows it
// (locked always; atomic exactly, from the RMW's return; striped before
// inflation; an inflated striped count's slot fast path only knows "not
// last" and emits 1) — arg2 == 0 always and only marks destruction.
// locked_refcount additionally guarantees trace ORDER: it emits while
// still holding the lock, so the destroying record is sequenced after
// every other release record for that object (regression-tested;
// lock-free fast paths cannot promise inter-thread emit order, only
// per-record exactness).
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <span>
#include <string>

#include "base/backoff.h"
#include "base/panic.h"
#include "base/stats.h"
#include "metrics/kmetrics.h"
#include "sync/lockref.h"
#include "sync/simple_lock.h"
#include "trace/ktrace.h"

namespace mach {

// The paper's design: count guarded by a simple lock.
class locked_refcount {
 public:
  explicit locked_refcount(int initial = 1) : lock_("refcount", /*track=*/false), count_(initial) {}

  void acquire(const char* who = nullptr) {
    const char* name = who != nullptr ? who : "locked_refcount";
    simple_lock(&lock_);
    MACH_ASSERT(count_ > 0, std::string("reference cloned from dead ") + name);
    ++count_;
    // Emit under the lock: the record order then matches the count order.
    ktrace::emit(trace_kind::ref_take, name, reinterpret_cast<std::uint64_t>(this),
                 static_cast<std::uint64_t>(count_));
    simple_unlock(&lock_);
  }

  // Returns true if this released the last reference.
  bool release(const char* who = nullptr) {
    const char* name = who != nullptr ? who : "locked_refcount";
    simple_lock(&lock_);
    MACH_ASSERT(count_ > 0, std::string("reference over-release on ") + name);
    int remaining = --count_;
    // Emit while the lock still pins the object. Once we unlock, a racing
    // release may drop the last reference and the caller may destroy the
    // object; an emit issued after that point would sequence a ref_release
    // record AFTER the destruction record (or attribute it to a recycled
    // address). Capturing the fields and emitting under the lock makes the
    // arg2 == 0 record provably the final trace record for this object.
    ktrace::emit(trace_kind::ref_release, name, reinterpret_cast<std::uint64_t>(this),
                 static_cast<std::uint64_t>(remaining));
    simple_unlock(&lock_);
    return remaining == 0;
  }

  int value() const {
    simple_lock(&lock_);
    int v = count_;
    simple_unlock(&lock_);
    return v;
  }

 private:
  mutable simple_lock_data_t lock_;
  int count_;
};

// The modern comparison point: lock-free count, one atomic RMW per op.
class atomic_refcount {
 public:
  explicit atomic_refcount(int initial = 1) : count_(initial) {}

  void acquire(const char* who = nullptr) {
    const char* name = who != nullptr ? who : "atomic_refcount";
    int prev = count_.fetch_add(1, std::memory_order_relaxed);
    if (prev <= 0) {
      // Undo before panicking: dead must stay sticky, or a (caught, in
      // tests) clone-from-dead panic would resurrect the count to 1 and a
      // later release would report a second "last" — the equivalence
      // property the other policies keep by checking before mutating.
      count_.fetch_sub(1, std::memory_order_relaxed);
      panic(std::string("reference cloned from dead ") + name);
    }
    ktrace::emit(trace_kind::ref_take, name, reinterpret_cast<std::uint64_t>(this),
                 static_cast<std::uint64_t>(prev + 1));
  }

  bool release(const char* who = nullptr) {
    const char* name = who != nullptr ? who : "atomic_refcount";
    int prev = count_.fetch_sub(1, std::memory_order_acq_rel);
    if (prev <= 0) {
      count_.fetch_add(1, std::memory_order_relaxed);  // sticky dead, as above
      panic(std::string("reference over-release on ") + name);
    }
    ktrace::emit(trace_kind::ref_release, name, reinterpret_cast<std::uint64_t>(this),
                 static_cast<std::uint64_t>(prev - 1));
    return prev == 1;
  }

  int value() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int> count_;
};

// One central word until contention, then per-way slots with a locked
// reconcile on release-to-zero (the lifecycle is in the header comment).
class striped_refcount {
 public:
  static constexpr int kSlots = static_cast<int>(num_ways);

  explicit striped_refcount(int initial = 1)
      : central_(initial > 0 ? initial : 0, initial > 0 ? 0 : lockref64::kDeadBit) {}
  ~striped_refcount() { delete[] slots_.load(std::memory_order_acquire); }

  void acquire(const char* who = nullptr) {
    const char* name = who != nullptr ? who : "striped_refcount";
    std::uint64_t w = central_.load();
    while (!lockref64::is_inflated(w)) {
      if (lockref64::is_locked(w)) {
        w = wait_unlocked();
        continue;
      }
      MACH_ASSERT(!lockref64::is_dead(w), std::string("reference cloned from dead ") + name);
      const std::uint64_t seen = w;
      const std::int32_t c = lockref64::count_of(w);
      if (central_.cas(w, lockref64::pack(c + 1))) {
        kmet().kern_lockref_fast.inc();
        ktrace::emit(trace_kind::ref_take, name, reinterpret_cast<std::uint64_t>(this),
                     static_cast<std::uint64_t>(c + 1));
        return;
      }
      // Another core wrote the word (not a spurious cmpxchg failure, and
      // not an inflation already under way): stripe from now on.
      if (w != seen && !lockref64::is_inflated(w) && !lockref64::is_locked(w)) {
        inflate(name);
        break;
      }
    }
    acquire_slot(name);
  }

  bool release(const char* who = nullptr) {
    const char* name = who != nullptr ? who : "striped_refcount";
    std::uint64_t w = central_.load();
    while (!lockref64::is_inflated(w)) {
      if (lockref64::is_locked(w)) {
        w = wait_unlocked();
        continue;
      }
      MACH_ASSERT(!lockref64::is_dead(w), std::string("reference over-release on ") + name);
      // Before inflation the word is the whole count: 1 -> dead is last.
      const std::int32_t c = lockref64::count_of(w);
      if (central_.cas(w, c == 1 ? lockref64::pack(0, lockref64::kDeadBit)
                                 : lockref64::pack(c - 1))) {
        kmet().kern_lockref_fast.inc();
        ktrace::emit(trace_kind::ref_release, name, reinterpret_cast<std::uint64_t>(this),
                     static_cast<std::uint64_t>(c - 1));
        return c == 1;
      }
    }
    return release_slot(name);
  }

  // Racy diagnostic sum, exact at quiescence (like the other policies'
  // value(), it is a snapshot for tests and stats, not for decisions).
  int value() const {
    std::int64_t total = lockref64::count_of(central_.load());
    for (const slot_t& s : slots()) total += lockref64::count_of(s.word.load());
    return static_cast<int>(total);
  }

  // Whether contention has striped this count (a diagnostic; it never
  // changes back).
  bool inflated() const { return lockref64::is_inflated(central_.load()); }

 private:
  struct alignas(cacheline_size) slot_t {
    lockref64 word{0};
  };

  // Empty until inflation published the array.
  std::span<slot_t> slots() const noexcept {
    slot_t* p = slots_.load(std::memory_order_acquire);
    return {p, p != nullptr ? static_cast<std::size_t>(kSlots) : 0};
  }

  // The first failed clone cmpxchg. Allocation happens outside every lock
  // (it may take the allocator's lock, but never sleeps in the Mach sense,
  // so a clone under other locks stays safe); the array is published
  // before the bit, so any thread that sees the bit finds the slots.
  void inflate(const char* name) {
    if (slots_.load(std::memory_order_acquire) == nullptr) {
      slot_t* fresh = new slot_t[kSlots];
      slot_t* expected = nullptr;
      if (!slots_.compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        delete[] fresh;  // another cloner published first
      }
    }
    central_.lock();
    const std::uint64_t w = central_.load();
    if (lockref64::is_dead(w)) {
      central_.unlock();
      panic(std::string("reference cloned from dead ") + name);
    }
    central_.unlock_to(lockref64::count_of(w), lockref64::kInflatedBit);
  }

  // Before inflation the central lock is held only by an inflater setting
  // the bit, for a few instructions; after it, by the reconcile.
  std::uint64_t wait_unlocked() const noexcept {
    backoff b;
    std::uint64_t w = central_.load();
    for (; lockref64::is_locked(w); w = central_.load()) b.pause();
    return w;
  }

  lockref64& my_slot() const noexcept { return slots()[way_index()].word; }

  void acquire_slot(const char* name) {
    lockref64& s = my_slot();
    std::uint64_t w = s.load();
    for (int attempt = 0; attempt < lockref64::kFastAttempts && !lockref64::is_locked(w);
         ++attempt) {
      MACH_ASSERT(!lockref64::is_dead(w), std::string("reference cloned from dead ") + name);
      if (s.cas(w, lockref64::pack(lockref64::count_of(w) + 1))) {
        kmet().kern_lockref_fast.inc();
        ktrace::emit(trace_kind::ref_take, name, reinterpret_cast<std::uint64_t>(this), 0);
        return;
      }
      cpu_relax();
    }
    // Slot lock held (a reconcile is folding) or cmpxchg budget exhausted:
    // take just this slot's lock. Acquire never needs the global view —
    // the caller holds a reference, so the total cannot be zero.
    s.lock();
    if (lockref64::is_dead(s.load())) {
      s.unlock();
      panic(std::string("reference cloned from dead ") + name);
    }
    s.add_locked(1);
    kmet().kern_lockref_slow.inc();
    ktrace::emit(trace_kind::ref_take, name, reinterpret_cast<std::uint64_t>(this), 0);
    s.unlock();
  }

  bool release_slot(const char* name) {
    lockref64& s = my_slot();
    std::uint64_t w = s.load();
    for (int attempt = 0; attempt < lockref64::kFastAttempts && !lockref64::is_locked(w);
         ++attempt) {
      MACH_ASSERT(!lockref64::is_dead(w), std::string("reference over-release on ") + name);
      std::int32_t c = lockref64::count_of(w);
      // Fast path only while it keeps the slot non-negative: with every
      // slot >= 0 and base >= 1 while alive, a put that leaves its slot
      // >= 0 is provably not the last reference. Crossing below zero is
      // routed to the reconcile, the only place release-to-zero can be
      // decided.
      if (c < 1) break;
      if (s.cas(w, lockref64::pack(c - 1))) {
        kmet().kern_lockref_fast.inc();
        ktrace::emit(trace_kind::ref_release, name, reinterpret_cast<std::uint64_t>(this), 1);
        return false;
      }
      cpu_relax();
    }
    return reconcile_release(name);
  }

  // The locked reconcile: take every slot lock (index order), then the
  // central one — the only multi-lock path, so ordering is trivially
  // acyclic — perform this release against the folded total, and
  // republish base and slots. While the locks are held every fast path
  // fails its cmpxchg and waits, so the fold is a true snapshot.
  bool reconcile_release(const char* name) {
    const std::span<slot_t> ss = slots();
    auto unlock_all = [&] {
      for (slot_t& s : ss) s.word.unlock();
      central_.unlock();
    };
    for (slot_t& s : ss) s.word.lock();
    central_.lock();
    if (lockref64::is_dead(central_.load())) {
      unlock_all();
      panic(std::string("reference over-release on ") + name);
    }
    std::int64_t total = central_.count_locked();
    for (slot_t& s : ss) total += s.word.count_locked();
    total -= 1;  // this release
    if (total < 0) {
      unlock_all();
      panic(std::string("reference over-release on ") + name);
    }
    const bool last = total == 0;
    kmet().kern_lockref_slow.inc();
    // Emit before unlocking: same ordering guarantee as the locked policy
    // — the destroying record cannot be outrun by later records.
    ktrace::emit(trace_kind::ref_release, name, reinterpret_cast<std::uint64_t>(this),
                 last ? 0 : 1);
    // Fold: slots to zero, the total into the base; at zero, retire every
    // word with the sticky dead bit so later ops panic from a single load.
    const std::uint64_t dead = last ? lockref64::kDeadBit : 0;
    for (slot_t& s : ss) s.word.unlock_to(0, dead);
    central_.unlock_to(static_cast<std::int32_t>(total), lockref64::kInflatedBit | dead);
    return last;
  }

  // The slots, out of line and allocated only on inflation: the object
  // carries one pointer, not kSlots cache lines, and each slot still owns
  // its line. Freed with the count.
  std::atomic<slot_t*> slots_{nullptr};
  // The whole count before inflation; the folded base after it, written
  // only while ALL slot locks and its own are held.
  lockref64 central_;
};

// --- runtime policy selection (threaded through kobject) ---

// Tags are explicit and stable: parameterized test names print them, and a
// retired tag (2) is not reused.
enum class refcount_policy : std::uint8_t { locked = 0, atomic = 1, striped = 3 };

inline constexpr refcount_policy kRefcountPolicies[] = {
    refcount_policy::locked,
    refcount_policy::atomic,
    refcount_policy::striped,
};

const char* refcount_policy_name(refcount_policy p) noexcept;

// The policy a kobject gets when its constructor names none.
constexpr refcount_policy default_refcount_policy() noexcept { return refcount_policy::atomic; }

// A reference count with the policy chosen at construction — the form
// kobject embeds. Dispatch is one predictable switch; the storage is a
// union so only the selected policy is ever constructed (constructing a
// locked_refcount registers a lock). The union is sized by
// locked_refcount, a simple lock plus an int (64 B): a striped count is a
// pointer and a word inline, its slots out of line and only once inflated.
class krefcount {
 public:
  explicit krefcount(refcount_policy p, int initial = 1) : pol_(p) {
    switch (pol_) {
      case refcount_policy::locked:
        new (&u_.lk) locked_refcount(initial);
        break;
      case refcount_policy::atomic:
        new (&u_.at) atomic_refcount(initial);
        break;
      case refcount_policy::striped:
        new (&u_.st) striped_refcount(initial);
        break;
    }
  }

  ~krefcount() {
    switch (pol_) {
      case refcount_policy::locked:
        u_.lk.~locked_refcount();
        break;
      case refcount_policy::atomic:
        u_.at.~atomic_refcount();
        break;
      case refcount_policy::striped:
        u_.st.~striped_refcount();
        break;
    }
  }

  krefcount(const krefcount&) = delete;
  krefcount& operator=(const krefcount&) = delete;

  void acquire(const char* who = nullptr) {
    switch (pol_) {
      case refcount_policy::locked:
        u_.lk.acquire(who);
        break;
      case refcount_policy::atomic:
        u_.at.acquire(who);
        break;
      case refcount_policy::striped:
        u_.st.acquire(who);
        break;
    }
  }

  bool release(const char* who = nullptr) {
    switch (pol_) {
      case refcount_policy::locked:
        return u_.lk.release(who);
      case refcount_policy::atomic:
        return u_.at.release(who);
      case refcount_policy::striped:
        return u_.st.release(who);
    }
    panic("krefcount: corrupt policy tag");
  }

  int value() const {
    switch (pol_) {
      case refcount_policy::locked:
        return u_.lk.value();
      case refcount_policy::atomic:
        return u_.at.value();
      case refcount_policy::striped:
        return u_.st.value();
    }
    panic("krefcount: corrupt policy tag");
  }

  refcount_policy policy() const noexcept { return pol_; }

  // True once a striped count has inflated; always false for the others.
  bool inflated() const { return pol_ == refcount_policy::striped && u_.st.inflated(); }

 private:
  union storage {
    storage() {}
    ~storage() {}
    locked_refcount lk;
    atomic_refcount at;
    striped_refcount st;
  } u_;
  refcount_policy pol_;
};

}  // namespace mach
