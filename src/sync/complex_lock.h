// Complex locks — the paper's Appendix B interface (sections 4 and 7.1).
//
// A complex lock is Mach's machine-independent lock implementing the
// Multiple protocol (multiple readers / single writer, with writers'
// priority to avoid starvation) plus two options:
//
//   Sleep:     waiters block via the event system instead of spinning, and
//              holders may block while holding the lock. Dynamically
//              switchable per lock (lock_sleepable).
//   Recursive: a single holder may recursively acquire the lock
//              (lock_set_recursive / lock_clear_recursive). Must be held
//              for write to set; a later downgrade to read prohibits
//              recursive write acquisition and upgrades.
//
// Semantics carried from the paper:
//   * writers' priority — "readers may not be added to a lock held for
//     reading in the presence of an outstanding write request";
//   * upgrades are favored over writes; a second concurrent upgrade
//     request FAILS and loses its read hold (lock_read_to_write returns
//     TRUE on failure);
//   * downgrades (lock_write_to_read) cannot fail;
//   * the recursive holder's requests are not blocked by pending write or
//     upgrade requests;
//   * the internal state of every complex lock is protected by a simple
//     lock, so the only machine dependency is the simple lock itself.
//
// Departure from Appendix B: the two want flags live in one atomic state
// word, and the reader count is a per-way indicator beside it: each
// reader way (base/stats.h's way_index()) owns a cache line of {enters,
// exits}, and the readers in are the sum of enters minus exits over the
// ways. A reader whose entry or exit sees no flag set does it with one
// fetch_add on its own way's line plus a load of the state word, without
// the interlock, so concurrent readers write no shared line. Every other
// transition (writes, upgrades, downgrades, recursion, waits, option
// changes) and every write to the state word runs under the interlock. A
// writer or upgrader sets its flag, then sums the ways (every exits before
// any enters): a Dekker handshake with the reader, who counts itself in,
// then checks the flags, so the sum may read high but never low.
//
// Extension for experiment E3: writers' priority can be disabled per lock
// (lock_set_writer_priority) to measure the starvation it prevents.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "base/compiler.h"
#include "base/stats.h"
#include "sync/lockstat.h"
#include "sync/simple_lock.h"

namespace mach {

// Cumulative per-lock statistics, as returned by lock_stats().
// read_acquisitions is the sum of the reader ways' enters.
struct complex_lock_stats {
  std::uint64_t read_acquisitions = 0;
  std::uint64_t write_acquisitions = 0;
  std::uint64_t recursive_acquisitions = 0;
  std::uint64_t upgrades_succeeded = 0;
  std::uint64_t upgrades_failed = 0;
  std::uint64_t downgrades = 0;
  std::uint64_t sleeps = 0;  // waits that went through the event system
  std::uint64_t spins = 0;   // interlock-release/reacquire spin iterations
};

// The live counters behind complex_lock_stats. They are written only under
// the interlock, by a load and a store (holder_increment), and are relaxed
// atomics because lockstat snapshots read them while holders write.
struct complex_lock_counters {
  std::atomic<std::uint64_t> write_acquisitions{0};
  std::atomic<std::uint64_t> recursive_acquisitions{0};
  std::atomic<std::uint64_t> upgrades_succeeded{0};
  std::atomic<std::uint64_t> upgrades_failed{0};
  std::atomic<std::uint64_t> downgrades{0};
  std::atomic<std::uint64_t> sleeps{0};
  std::atomic<std::uint64_t> spins{0};
};

// Storage for a single complex lock (the paper's C type lock_data_t).
struct lock_data_t {
  simple_lock_data_t interlock{"complex-interlock", /*track=*/false};

  // Protected by interlock:
  bool waiting = false;       // someone is blocked on this lock (sleep mode)
  bool can_sleep = true;      // Sleep option
  bool writer_priority = true;  // ablation knob (E3); true is Mach behaviour
  // Historical-fidelity knob: Appendix B.3 notes "The Mach 2.5
  // implementation of [lock_try_read_to_write] contains a bug such that it
  // will block even if the Sleep option is disabled". Off by default (we
  // implement the documented-correct behaviour); enable to reproduce 2.5.
  bool mach25_try_upgrade_bug = false;

  // Recursive option (paper sec. 4): the designated recursion holder, the
  // extra depth of its nested write acquisitions, and the read holds it
  // took past pending writers (also counted in the reader ways).
  const void* recursion_thread = nullptr;
  int recursion_depth = 0;
  int recursive_reads = 0;

  // Debug/tracking:
  const void* write_holder = nullptr;  // thread holding for write/upgrade
  const char* name = "complex-lock";
  complex_lock_counters stats;
  // Hold/wait-time profiling (ktrace-gated, like simple locks; see
  // sync/simple_lock.h). The profile's wait histogram covers read, write,
  // and upgrade waits; its hold histogram covers write-side holds (a read
  // hold is shared by many threads at once, so per-holder read spans are
  // not tracked). Allocated on the first timed hold or wait and recorded
  // under the interlock; freed with the lock.
  std::uint64_t write_acquire_nanos = 0;
  std::atomic<lock_profile*> profile{nullptr};

  // The state word holds only the flags below; it is written only under
  // the interlock, and readers load it on every entry and exit.
  static constexpr std::uint32_t kWantWrite = 1u << 31;    // a writer holds, or drains readers
  static constexpr std::uint32_t kWantUpgrade = 1u << 30;  // an upgrader holds, or drains readers
  // Readers must take the interlock: set while recursion_thread is set or
  // writers' priority is off, the cases whose reader rules need it.
  static constexpr std::uint32_t kSlowReaders = 1u << 29;
  static constexpr std::uint32_t kFlags = kWantWrite | kWantUpgrade | kSlowReaders;

  // One reader way. A read hold counts in on the way of the thread that
  // took it and out on the way of the thread that drops it, so one way's
  // difference may be negative; the sum over the ways is the readers in.
  struct alignas(cacheline_size) reader_way {
    std::atomic<std::uint64_t> enters{0};  // read acquisitions on this way
    std::atomic<std::uint64_t> exits{0};
  };

  // The state word and the way pointer share a line that readers only
  // read; each reader writes its own way's line.
  alignas(cacheline_size) std::atomic<std::uint32_t> state{0};
  const std::unique_ptr<reader_way[]> ways{new reader_way[num_ways]};

  // Read acquisitions so far: the ways' enters (a racy sum while readers
  // run; a refused entry is briefly counted).
  std::uint64_t read_enters() const noexcept {
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < num_ways; ++i) sum += ways[i].enters.load(std::memory_order_relaxed);
    return sum;
  }

  lock_data_t() { lock_registry::instance().add(this); }
  // Named from the start, interlock included: lock_init renames a lock
  // the registry already lists, racing lockstat snapshots that read the
  // name, so a lock built while snapshots may run takes its name here.
  explicit lock_data_t(const char* n, bool sleep = true)
      : interlock(n, /*track=*/false), can_sleep(sleep), name(n) {
    lock_registry::instance().add(this);
  }
  ~lock_data_t() {
    lock_registry::instance().remove(this);  // no snapshot reads the profile after this
    delete profile.load(std::memory_order_acquire);
  }
  lock_data_t(const lock_data_t&) = delete;
  lock_data_t& operator=(const lock_data_t&) = delete;
};

// All interface routines take a pointer, as in the paper.
using lock_t = lock_data_t*;

// Initialize; can_sleep selects the Sleep option. "Locks without the sleep
// option cannot be held during blocking operations or context switches."
void lock_init(lock_t l, bool can_sleep, const char* name = "complex-lock");

// --- Locking and unlocking (Appendix B.2) ---
void lock_read(lock_t l);
void lock_write(lock_t l);
// Upgrade read -> write. Returns TRUE if the upgrade FAILED (another
// upgrade was pending); on failure the read lock has been released.
bool lock_read_to_write(lock_t l);
// Downgrade write -> read. Cannot fail.
void lock_write_to_read(lock_t l);
// Release however the lock is held (single writer or one of the readers).
void lock_done(lock_t l);

// --- Lock attempts (Appendix B.3) ---
bool lock_try_read(lock_t l);
bool lock_try_write(lock_t l);
// Attempt upgrade; may block waiting for other readers to drain, but does
// NOT drop the read lock if the upgrade would deadlock (returns FALSE
// with the read hold intact). Note: Appendix B.3 reports the Mach 2.5
// implementation blocked even with Sleep disabled; we implement the
// documented-correct behaviour (spin-drain when Sleep is off).
bool lock_try_read_to_write(lock_t l);

// --- Lock options (Appendix B.4) ---
void lock_sleepable(lock_t l, bool can_sleep);
// Enable the Recursive option for the calling thread; the lock must be
// held for write.
void lock_set_recursive(lock_t l);
// Clear the Recursive option; caller must be the recursion holder.
void lock_clear_recursive(lock_t l);

// Ablation knob (not in the paper's interface): disable writers' priority
// so experiment E3 can measure the starvation it prevents.
void lock_set_writer_priority(lock_t l, bool on);

// Historical-fidelity knob: reproduce the Mach 2.5 lock_try_read_to_write
// bug (blocks through the event system even when Sleep is disabled).
void lock_set_mach25_try_upgrade_bug(lock_t l, bool on);

// Snapshot of the statistics (taken under the interlock; read acquisitions
// are summed from the reader ways).
complex_lock_stats lock_stats(lock_t l);

// --- RAII guards (modern call sites; CP.20) ---
class read_lock_guard {
 public:
  explicit read_lock_guard(lock_data_t& l) : lock_(&l) { lock_read(lock_); }
  ~read_lock_guard() {
    if (lock_ != nullptr) lock_done(lock_);
  }
  read_lock_guard(const read_lock_guard&) = delete;
  read_lock_guard& operator=(const read_lock_guard&) = delete;
  void unlock() {
    lock_done(lock_);
    lock_ = nullptr;
  }

 private:
  lock_data_t* lock_;
};

class write_lock_guard {
 public:
  explicit write_lock_guard(lock_data_t& l) : lock_(&l) { lock_write(lock_); }
  ~write_lock_guard() {
    if (lock_ != nullptr) lock_done(lock_);
  }
  write_lock_guard(const write_lock_guard&) = delete;
  write_lock_guard& operator=(const write_lock_guard&) = delete;
  void unlock() {
    lock_done(lock_);
    lock_ = nullptr;
  }

 private:
  lock_data_t* lock_;
};

}  // namespace mach
