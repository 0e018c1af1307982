// stress_complex_lock: concurrency battery for complex locks
// (sync/complex_lock.h), aimed at the read fast path: flag-free readers
// enter and leave on their own reader way's line while writers, upgrades
// (winning and failing), try-variants, downgrades, recursion and option
// toggles run through the interlock.
//
// Exclusion is checked against shadow counters, and a plain (non-atomic)
// counter is written only under write holds, so under TSan any exclusion
// failure is also a reported race. Every wait is bounded: a monitor
// watches the workers' progress, and a stall (a lost wakeup leaves a
// drainer asleep forever) fails the run, then kicks the lock's event so
// the run can finish; a stall that a kick cannot clear exits at once.
//
// Always built and run under ctest (sized to finish in seconds); the TSan
// CI job re-runs it under -fsanitize=thread and the UBSan job under
// -fsanitize=undefined. Scale knobs:
//
//   MACHLOCK_STRESS_THREADS  worker threads per arm      (default 4)
//   MACHLOCK_STRESS_ITERS    ops per worker per arm      (default 20000)
//   MACHLOCK_STRESS_ROUNDS   last-reader wakeup rounds   (default 200)
//
// Expected output: "ALL OK" and exit 0 (and zero TSan warnings).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "metrics/kmetrics.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/complex_lock.h"
#include "tests/test_util.h"

using namespace mach;
using namespace std::chrono_literals;

namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  int n = std::atoi(v);
  return n > 0 ? n : fallback;
}

int g_failures = 0;

#define CHECK(cond, what)                                           \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, (what)); \
      ++g_failures;                                                 \
    }                                                               \
  } while (0)

// Check failures from worker threads (g_failures is main-thread only).
std::atomic<int> g_worker_failures{0};

void worker_check(bool cond, const char* what) {
  if (cond) return;
  if (g_worker_failures.fetch_add(1) < 10) std::printf("FAIL (worker): %s\n", what);
}

// Wait for `done` workers while `progress` keeps moving. A stall longer
// than the bound is a failure; the monitor then kicks `l`'s event (a
// spurious wakeup only makes waiters re-check their predicates), and if
// the kicks do not restore progress it gives up on the process.
void monitor(lock_data_t& l, const std::atomic<int>& done, int workers,
             const std::atomic<std::uint64_t>& progress, const char* arm) {
  constexpr auto kStall = 5s;
  std::uint64_t last = progress.load();
  auto last_change = std::chrono::steady_clock::now();
  bool stalled = false;
  // Poll fast at first, so a short round is not stretched to the full
  // poll period; the stall bound does not depend on the period.
  std::chrono::microseconds poll{20};
  while (done.load() < workers) {
    std::this_thread::sleep_for(poll);
    poll = std::min<std::chrono::microseconds>(2 * poll, 2ms);
    const std::uint64_t now = progress.load();
    if (now != last) {
      last = now;
      last_change = std::chrono::steady_clock::now();
      continue;
    }
    const auto idle = std::chrono::steady_clock::now() - last_change;
    if (idle < kStall) continue;
    if (!stalled) {
      stalled = true;
      std::printf("FAIL %s: no progress for %lld ms (lost wakeup?)\n", arm,
                  static_cast<long long>(
                      std::chrono::duration_cast<std::chrono::milliseconds>(idle).count()));
      ++g_failures;
    }
    if (idle >= 2 * kStall) {
      std::printf("FAIL %s: still stalled after wakeup kicks; giving up\n", arm);
      std::fflush(stdout);
      std::_Exit(1);
    }
    thread_wakeup(&l);
  }
}

enum class priority_mode { on, off, toggling };

const char* to_string(priority_mode m) {
  switch (m) {
    case priority_mode::on: return "on";
    case priority_mode::off: return "off";
    case priority_mode::toggling: return "toggling";
  }
  return "?";
}

// Arm 1 — the mixed storm. Each worker draws one operation at a time; the
// shadow counters assert the Multiple protocol on every hold.
struct storm_state {
  lock_data_t lock;
  std::atomic<int> readers_in{0};
  std::atomic<int> writers_in{0};
  long guarded = 0;  // written only under a write hold
  std::atomic<long> writes{0};
  std::atomic<std::uint64_t> progress{0};
  std::atomic<int> done{0};
  std::atomic<std::uint64_t> upgrades_failed{0};
};

void enter_shared(storm_state& st) {
  st.readers_in.fetch_add(1);
  worker_check(st.writers_in.load() == 0, "reader inside alongside a writer");
  // Every write hold bumps both counts before it ends, so under a read
  // hold they agree (and a racing write is also a TSan report).
  worker_check(st.guarded == st.writes.load(), "read hold saw a write in progress");
}

void leave_shared(storm_state& st) { st.readers_in.fetch_sub(1); }

void enter_exclusive(storm_state& st) {
  worker_check(st.writers_in.fetch_add(1) == 0, "two writers inside");
  worker_check(st.readers_in.load() == 0, "writer inside alongside readers");
  ++st.guarded;
  st.writes.fetch_add(1);
}

void leave_exclusive(storm_state& st) { st.writers_in.fetch_sub(1); }

void storm_op(storm_state& st, xorshift64& rng, priority_mode mode) {
  lock_t l = &st.lock;
  switch (rng.next_below(16)) {
    case 0:
    case 1:
    case 2:
    case 3:
    case 4:  // plain read: the fast path when no flag is set
      lock_read(l);
      enter_shared(st);
      leave_shared(st);
      lock_done(l);
      break;
    case 5:
      if (lock_try_read(l)) {
        enter_shared(st);
        leave_shared(st);
        lock_done(l);
      }
      break;
    case 6:
    case 7:
      lock_write(l);
      enter_exclusive(st);
      leave_exclusive(st);
      lock_done(l);
      break;
    case 8:
      if (lock_try_write(l)) {
        enter_exclusive(st);
        leave_exclusive(st);
        lock_done(l);
      }
      break;
    case 9:
    case 10:  // upgrade: concurrent upgraders make some of these fail
      lock_read(l);
      enter_shared(st);
      leave_shared(st);
      if (lock_read_to_write(l)) {
        st.upgrades_failed.fetch_add(1);  // the read hold is already gone
      } else {
        enter_exclusive(st);
        leave_exclusive(st);
        lock_done(l);
      }
      break;
    case 11:  // try-upgrade keeps the read hold when it fails
      lock_read(l);
      if (lock_try_read_to_write(l)) {
        enter_exclusive(st);
        leave_exclusive(st);
      } else {
        enter_shared(st);
        leave_shared(st);
      }
      lock_done(l);
      break;
    case 12:  // downgrade
      lock_write(l);
      enter_exclusive(st);
      leave_exclusive(st);
      lock_write_to_read(l);
      enter_shared(st);
      leave_shared(st);
      lock_done(l);
      break;
    case 13:  // recursion: kSlowReaders goes up and down under fast readers
      lock_write(l);
      lock_set_recursive(l);
      lock_write(l);
      enter_exclusive(st);
      leave_exclusive(st);
      lock_done(l);
      lock_write_to_read(l);
      lock_read(l);  // recursive read
      enter_shared(st);
      leave_shared(st);
      lock_done(l);
      lock_clear_recursive(l);
      lock_done(l);
      break;
    case 14:
      lock_sleepable(l, rng.next_below(2) == 0);
      break;
    default:
      if (mode == priority_mode::toggling) lock_set_writer_priority(l, rng.next_below(2) == 0);
      break;
  }
  st.progress.fetch_add(1, std::memory_order_relaxed);
}

// The workers start together, so they overlap rather than running one
// after another as they are spawned.
// The arm's line reports how its blocked waits ended (kmon): parked, or
// caught by a wakeup before parking (mostly in thread_block's spin).
void storm(bool can_sleep, priority_mode mode, int threads, int iters) {
  testing::kmon_scope metrics;
  const std::uint64_t parked0 = kmet().sched_blocks.value();
  const std::uint64_t caught0 = kmet().sched_blocks_short_circuited.value();
  storm_state st;
  lock_init(&st.lock, can_sleep, "stress-complex");
  if (mode == priority_mode::off) lock_set_writer_priority(&st.lock, false);
  std::latch start(threads);
  std::vector<std::unique_ptr<kthread>> ts;
  for (int t = 0; t < threads; ++t) {
    ts.push_back(kthread::spawn("storm" + std::to_string(t), [&, t] {
      xorshift64 rng(static_cast<std::uint64_t>(t) * 7919 + (can_sleep ? 13 : 29));
      testing::spread_and_wait(start, t);
      for (int i = 0; i < iters; ++i) storm_op(st, rng, mode);
      st.done.fetch_add(1);
    }));
  }
  const std::string arm = std::string("storm sleep=") + (can_sleep ? "1" : "0") +
                          " priority=" + to_string(mode);
  monitor(st.lock, st.done, threads, st.progress, arm.c_str());
  for (auto& t : ts) t->join();
  CHECK(st.readers_in.load() == 0 && st.writers_in.load() == 0, "shadow counters unbalanced");
  CHECK(st.guarded == st.writes.load(), "a guarded write was lost");
  CHECK((st.lock.state.load() & ~lock_data_t::kSlowReaders) == 0,
        "state word not idle after the storm");
  CHECK(lock_try_write(&st.lock), "lock not free after the storm");
  lock_done(&st.lock);
  const complex_lock_stats s = lock_stats(&st.lock);
  CHECK(s.upgrades_failed == st.upgrades_failed.load(), "upgrade failures miscounted");
  std::printf(
      "%s ok: reads=%llu writes=%llu upgrades ok/failed=%llu/%llu sleeps=%llu "
      "parked=%llu caught=%llu\n",
      arm.c_str(), static_cast<unsigned long long>(s.read_acquisitions),
      static_cast<unsigned long long>(s.write_acquisitions),
      static_cast<unsigned long long>(s.upgrades_succeeded),
      static_cast<unsigned long long>(s.upgrades_failed),
      static_cast<unsigned long long>(s.sleeps),
      static_cast<unsigned long long>(kmet().sched_blocks.value() - parked0),
      static_cast<unsigned long long>(kmet().sched_blocks_short_circuited.value() - caught0));
}

// Arm 2 — the last fast-path reader out must wake a sleeping (or spinning)
// writer or upgrader. Readers release together so any of them may be last.
void last_reader_wakeup(bool can_sleep, bool upgrade, int readers, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    lock_data_t l;
    lock_init(&l, can_sleep, "stress-last-reader");
    std::atomic<int> held{0};
    std::atomic<bool> release{false};
    std::atomic<int> done{0};
    std::atomic<std::uint64_t> progress{0};
    std::vector<std::unique_ptr<kthread>> ts;
    for (int r = 0; r < readers; ++r) {
      ts.push_back(kthread::spawn("reader", [&] {
        lock_read(&l);
        held.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
        lock_done(&l);
        done.fetch_add(1);
      }));
    }
    while (held.load() < readers) std::this_thread::yield();
    ts.push_back(kthread::spawn("drainer", [&] {
      if (upgrade) {
        lock_read(&l);
        worker_check(!lock_read_to_write(&l), "sole upgrader failed");
      } else {
        lock_write(&l);
      }
      lock_done(&l);
      done.fetch_add(1);
    }));
    // Release once the drainer has waited at least once.
    for (;;) {
      const complex_lock_stats s = lock_stats(&l);
      if (s.sleeps + s.spins > 0) break;
      std::this_thread::yield();
    }
    release.store(true);
    monitor(l, done, readers + 1, progress, upgrade ? "last reader -> upgrader"
                                                    : "last reader -> writer");
    for (auto& t : ts) t->join();
    if (l.state.load() != 0) {
      CHECK(false, "state word not idle after a wakeup round");
      return;
    }
  }
  std::printf("last reader -> %s sleep=%d ok: %d rounds\n", upgrade ? "upgrader" : "writer",
              can_sleep ? 1 : 0, rounds);
}

}  // namespace

int main() {
  const int threads = env_int("MACHLOCK_STRESS_THREADS", 4);
  const int iters = env_int("MACHLOCK_STRESS_ITERS", 20000);
  const int rounds = env_int("MACHLOCK_STRESS_ROUNDS", 200);

  for (bool can_sleep : {true, false}) {
    for (priority_mode mode : {priority_mode::on, priority_mode::off, priority_mode::toggling}) {
      storm(can_sleep, mode, threads, iters);
    }
  }
  for (bool can_sleep : {true, false}) {
    for (bool upgrade : {false, true}) last_reader_wakeup(can_sleep, upgrade, 3, rounds);
  }

  g_failures += g_worker_failures.load();
  if (g_failures != 0) {
    std::printf("FAILURES: %d\n", g_failures);
    return 1;
  }
  std::printf("ALL OK\n");
  return 0;
}
