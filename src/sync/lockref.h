// lockref64 — the word behind striped_refcount (kern/refcount.h): a
// spinlock bit, a few flag bits and a count packed into one 64-bit word,
// the Linux lib/lockref.c layout (SNIPPETS.md Snippet 1).
//
// A striped count uses one such word as its central count and, once
// inflated, one per slot. A get/put is one compare-exchange that also
// checks the lock bit is clear, so it never touches the lock. The release
// that may be the last takes every slot's lock and the central one, folds
// the counts, and republishes them; while the bit is set, every fast-path
// compare-exchange on that word fails and waits.
//
// Word layout:
//   bit  0      — embedded spinlock (kLockBit)
//   bit  1      — dead/retired marker (kDeadBit), sticky once set, so
//                 clone-from-dead and over-release are detectable from a
//                 single word load
//   bit  2      — inflated marker (kInflatedBit), set once on a striped
//                 count's central word when its slots take over
//   bits 32..63 — signed 32-bit count
//
// This header is only the machine-level word: the cmpxchg step, the
// embedded spinlock, and the locked accessors. The get/put semantics
// (bounded fast-path loops, fallback conditions, panic discipline) live
// in striped_refcount.
//
// The embedded spinlock is deliberately NOT a simple_lock_data_t: it has
// no holder bookkeeping, no lockstat, and is never tracked — its critical
// sections are a handful of instructions. Contended acquisition backs off
// exactly like the spin policies do (base/backoff.h).
#pragma once

#include <atomic>
#include <cstdint>

#include "base/backoff.h"
#include "base/compiler.h"

namespace mach {

class lockref64 {
 public:
  static constexpr std::uint64_t kLockBit = 1u << 0;
  static constexpr std::uint64_t kDeadBit = 1u << 1;
  static constexpr std::uint64_t kInflatedBit = 1u << 2;
  // Bound on fast-path cmpxchg retries before a slot op falls back to its
  // locked path (Linux bounds the equivalent loop on some architectures to
  // avoid cmpxchg livelock against a stream of winners).
  static constexpr int kFastAttempts = 64;

  explicit lockref64(std::int32_t count = 0, std::uint64_t flags = 0) noexcept
      : word_(pack(count, flags)) {}

  lockref64(const lockref64&) = delete;
  lockref64& operator=(const lockref64&) = delete;

  static constexpr std::uint64_t pack(std::int32_t count, std::uint64_t flags = 0) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(count)) << 32) | flags;
  }
  static constexpr std::int32_t count_of(std::uint64_t word) noexcept {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(word >> 32));
  }
  static constexpr bool is_locked(std::uint64_t word) noexcept { return (word & kLockBit) != 0; }
  static constexpr bool is_dead(std::uint64_t word) noexcept { return (word & kDeadBit) != 0; }
  static constexpr bool is_inflated(std::uint64_t word) noexcept {
    return (word & kInflatedBit) != 0;
  }

  std::uint64_t load() const noexcept { return word_.load(std::memory_order_acquire); }

  // One fast-path step: install `desired` if the word is still `expected`.
  // On failure `expected` is reloaded (the Linux comment: "the cmpxchg
  // reloads the old value for the failure case").
  bool cas(std::uint64_t& expected, std::uint64_t desired) noexcept {
    return word_.compare_exchange_weak(expected, desired, std::memory_order_acq_rel,
                                       std::memory_order_acquire);
  }

  // --- the embedded spinlock (slow paths, inflation and the reconcile) ---

  void lock() noexcept {
    backoff b;
    for (;;) {
      std::uint64_t w = word_.load(std::memory_order_relaxed);
      if (!is_locked(w) &&
          word_.compare_exchange_weak(w, w | kLockBit, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return;
      }
      b.pause();
    }
  }

  void unlock() noexcept { word_.fetch_and(~kLockBit, std::memory_order_release); }

  // --- accessors for the lock holder ---
  // While kLockBit is set every fast-path cmpxchg fails, so the holder has
  // exclusive write access to the count half; updates stay atomic RMWs only
  // so concurrent value() snapshots read a whole word.

  std::int32_t count_locked() const noexcept {
    return count_of(word_.load(std::memory_order_relaxed));
  }

  void add_locked(std::int32_t delta) noexcept {
    word_.fetch_add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(delta)) << 32,
                    std::memory_order_relaxed);
  }

  // Release the lock and publish a new count (and optional flags) in one
  // store — the reconcile path's fold step.
  void unlock_to(std::int32_t count, std::uint64_t flags = 0) noexcept {
    word_.store(pack(count, flags & ~kLockBit), std::memory_order_release);
  }

 private:
  std::atomic<std::uint64_t> word_;
};

static_assert(sizeof(lockref64) == 8, "lockref must stay one 64-bit word");

}  // namespace mach
