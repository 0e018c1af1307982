// Lock statistics registry.
//
// Appendix A: "A simple lock is stored in a C language int variable, which
// is part of a structure to allow the simple addition of debugging and
// statistics information." This module is that addition, system-wide:
// every simple and complex lock registers itself on initialization and
// unregisters on destruction, and the registry can snapshot acquisition /
// contention counts for all live locks — the moral equivalent of a
// kernel's lockstat.
//
// Counter updates are free of extra synchronization: a simple lock's
// counters are mutated only while the lock itself is held; a complex
// lock's counters live in its interlock-protected stats. Snapshots read
// them racily (counts may be one op stale), which is the usual and
// acceptable trade for diagnostics. The counters and the profiles below
// are relaxed atomics, so those racy reads are defined: their one writer
// at a time adds by a load and a store, never a locked RMW.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/stats.h"

namespace mach {

struct lock_data_t;
struct simple_lock_data_t;

// Add one to a counter that only a lock's holder writes, and read one: a
// relaxed load and store, so a concurrent snapshot reads a whole (possibly
// stale) value.
inline void holder_increment(std::atomic<std::uint64_t>& c) noexcept {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}
inline std::uint64_t counter_value(const std::atomic<std::uint64_t>& c) noexcept {
  return c.load(std::memory_order_relaxed);
}

// A lock's hold and wait latencies, in latency_histogram's log2 buckets.
// Timing runs only while ktrace is on, so a lock allocates its profile on
// its first timed hold or wait (lock_profile_of) and frees it in its
// destructor; an untraced lock pays one null pointer. Only the holder of
// the lock (or of a complex lock's interlock) records.
struct lock_profile {
  class histogram {
   public:
    void record(std::uint64_t nanos) noexcept {
      holder_increment(buckets_[latency_histogram::bucket_of(nanos)]);
    }
    void reset() noexcept {
      for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    }
    // Copy the buckets into `out`; returns their sum, the sample count.
    std::uint64_t copy(std::uint64_t (&out)[latency_histogram::num_buckets]) const noexcept {
      std::uint64_t n = 0;
      for (int i = 0; i < latency_histogram::num_buckets; ++i) {
        n += out[i] = buckets_[i].load(std::memory_order_relaxed);
      }
      return n;
    }

   private:
    std::atomic<std::uint64_t> buckets_[latency_histogram::num_buckets] = {};
  };

  histogram hold;  // simple locks: every hold; complex locks: write-side holds
  histogram wait;
};

// The profile in `slot`, allocated on first use. The caller holds the lock
// the slot belongs to (a complex lock's interlock), so there is one
// allocator; the release store publishes the profile to snapshots.
lock_profile& lock_profile_of(std::atomic<lock_profile*>& slot);

// Zero the profile in `slot`, if it has one (simple_lock_init, lock_init).
inline void lock_profile_reset(const std::atomic<lock_profile*>& slot) noexcept {
  if (lock_profile* p = slot.load(std::memory_order_acquire)) {
    p->hold.reset();
    p->wait.reset();
  }
}

struct lock_stat_entry {
  const void* address;
  const char* name;
  bool is_complex;
  std::uint64_t acquisitions;  // simple: lock+try-success; complex: read+write
  std::uint64_t contended;     // simple: not-first-try; complex: sleeps+spins
  // Hold/wait-time profile, populated only while ktrace is enabled (the
  // per-lock lock_profile is clock-gated; see trace/ktrace.h). Quantiles
  // are log2-bucket upper bounds in nanoseconds; counts of 0 (also a lock
  // with no profile yet) mean "never timed", not "instantaneous".
  std::uint64_t hold_samples = 0;
  std::uint64_t hold_p50_nanos = 0;
  std::uint64_t hold_p99_nanos = 0;
  std::uint64_t wait_samples = 0;
  std::uint64_t wait_p50_nanos = 0;
  std::uint64_t wait_p99_nanos = 0;
};

class lock_registry {
 public:
  // Never destroyed (locks with static storage may unregister after main).
  static lock_registry& instance() noexcept;

  void add(simple_lock_data_t* l);
  void remove(simple_lock_data_t* l);
  void add(lock_data_t* l);
  void remove(lock_data_t* l);

  std::size_t live_locks() const;

  // Snapshot all live locks, most contended first. Order is fully
  // deterministic: contended desc, acquisitions desc, then name and
  // finally address as tie-breaks.
  std::vector<lock_stat_entry> snapshot() const;

  // Print the top `max_rows` most contended locks as a table on stdout,
  // including hold/wait p50/p99 (ktrace-populated; see snapshot()).
  void print_top(std::size_t max_rows = 20) const;

  // Machine-readable snapshot: a JSON array of per-lock objects, so CI
  // and scripts can consume lock stats without parsing the print_top
  // table. The "hold"/"wait" quantile objects are OMITTED for a lock whose
  // profile never sampled (profiling is ktrace-gated), matching the "-"
  // cells in print_top — absent means "not measured", never "measured 0".
  // The bench harness emits this on exit when MACHLOCK_LOCKSTAT=json
  // (see trace/trace_session.h).
  std::string snapshot_json() const;

 private:
  lock_registry() = default;
  struct impl;
  impl& self() const;
};

}  // namespace mach
