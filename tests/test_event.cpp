// Tests for the Mach event-wait primitives (paper section 6) and kthread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "base/compiler.h"
#include "metrics/kmetrics.h"
#include "sched/event.h"
#include "sync/simple_lock.h"
#include "tests/test_util.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

int dummy_event_a, dummy_event_b;

// The kmon sched counters, read together so a test can take deltas.
struct sched_counts {
  std::uint64_t blocks, short_circuited, wakeups, no_waiter;
};
sched_counts sched_now() {
  return {kmet().sched_blocks.value(), kmet().sched_blocks_short_circuited.value(),
          kmet().sched_wakeups.value(), kmet().sched_wakeups_no_waiter.value()};
}

TEST(KThread, SpawnRunsAndJoins) {
  std::atomic<int> ran{0};
  auto t = kthread::spawn("worker", [&] { ran.store(1); });
  t->join();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(t->name(), "worker");
  EXPECT_NE(t->token(), nullptr);
}

TEST(KThread, CurrentIsStablePerThread) {
  kthread& a = kthread::current();
  kthread& b = kthread::current();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.token(), current_thread_token());
}

TEST(KThread, SpawnedThreadSeesItselfAsCurrent) {
  const kthread* inside = nullptr;
  auto t = kthread::spawn("self", [&] { inside = &kthread::current(); });
  t->join();
  EXPECT_EQ(inside, t.get());
}

TEST(Event, WakeupBeforeBlockShortCircuits) {
  // The core race the split primitives close: the event occurring between
  // assert_wait and thread_block converts the block into a no-op.
  testing::kmon_scope metrics;
  const sched_counts before = sched_now();
  assert_wait(&dummy_event_a);
  thread_wakeup(&dummy_event_a);
  wait_result r = thread_block();
  EXPECT_EQ(r, wait_result::awakened);
  const sched_counts after = sched_now();
  EXPECT_EQ(after.short_circuited - before.short_circuited, 1u);
  EXPECT_EQ(after.blocks - before.blocks, 0u);
}

TEST(Event, BlockWithoutAssertIsYield) {
  EXPECT_EQ(thread_block(), wait_result::not_waiting);
}

TEST(Event, WakeupWithNoWaiterIsCounted) {
  testing::kmon_scope metrics;
  const std::uint64_t before = kmet().sched_wakeups_no_waiter.value();
  thread_wakeup(&dummy_event_b);
  EXPECT_EQ(kmet().sched_wakeups_no_waiter.value() - before, 1u);
}

TEST(Event, BlockedThreadIsAwakened) {
  std::atomic<bool> entered{false};
  std::atomic<int> result{-1};
  auto t = kthread::spawn("waiter", [&] {
    assert_wait(&dummy_event_a);
    entered.store(true);
    result.store(static_cast<int>(thread_block()));
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);  // give it time to actually suspend
  thread_wakeup(&dummy_event_a);
  t->join();
  EXPECT_EQ(result.load(), static_cast<int>(wait_result::awakened));
}

TEST(Event, WakeupIsEventSpecific) {
  std::atomic<int> woken{0};
  std::atomic<int> asserted{0};
  auto waiter = [&](event_t e) {
    return [&woken, &asserted, e] {
      assert_wait(e);
      asserted.fetch_add(1);
      thread_block();
      woken.fetch_add(1);
    };
  };
  auto ta = kthread::spawn("wa", waiter(&dummy_event_a));
  auto tb = kthread::spawn("wb", waiter(&dummy_event_b));
  while (asserted.load() < 2) std::this_thread::yield();
  thread_wakeup(&dummy_event_a);
  ta->join();
  EXPECT_EQ(woken.load(), 1);  // only the event-a waiter woke
  thread_wakeup(&dummy_event_b);
  tb->join();
  EXPECT_EQ(woken.load(), 2);
}

TEST(Event, WakeupAllWakesEveryWaiter) {
  constexpr int n = 6;
  std::atomic<int> ready{0};
  std::vector<std::unique_ptr<kthread>> threads;
  for (int i = 0; i < n; ++i) {
    std::string wname = "w";
    wname += std::to_string(i);
    threads.push_back(kthread::spawn(std::move(wname), [&] {
      assert_wait(&dummy_event_a);
      ready.fetch_add(1);
      thread_block();
    }));
  }
  while (ready.load() < n) std::this_thread::yield();
  std::this_thread::sleep_for(10ms);
  thread_wakeup(&dummy_event_a);
  for (auto& t : threads) t->join();  // hangs if anyone was missed
}

TEST(Event, WakeupOneWakesExactlyOne) {
  std::atomic<int> ready{0};
  std::atomic<int> woken{0};
  std::vector<std::unique_ptr<kthread>> threads;
  for (int i = 0; i < 3; ++i) {
    threads.push_back(kthread::spawn("w1_" + std::to_string(i), [&] {
      assert_wait(&dummy_event_a);
      ready.fetch_add(1);
      thread_block();
      woken.fetch_add(1);
    }));
  }
  while (ready.load() < 3) std::this_thread::yield();
  std::this_thread::sleep_for(10ms);
  thread_wakeup_one(&dummy_event_a);
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(woken.load(), 1);
  thread_wakeup(&dummy_event_a);  // release the rest
  for (auto& t : threads) t->join();
}

TEST(Event, ClearWaitWakesSpecificThread) {
  std::atomic<bool> ready{false};
  std::atomic<int> result{-1};
  auto t = kthread::spawn("cleared", [&] {
    assert_wait(&dummy_event_a);
    ready.store(true);
    result.store(static_cast<int>(thread_block()));
  });
  while (!ready.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);
  clear_wait(*t, wait_result::cleared);
  t->join();
  EXPECT_EQ(result.load(), static_cast<int>(wait_result::cleared));
}

TEST(Event, ClearWaitOnNonWaitingThreadIsNoop) {
  std::atomic<bool> done{false};
  auto t = kthread::spawn("idle", [&] {
    while (!done.load()) std::this_thread::yield();
  });
  clear_wait(*t);  // must not blow up or corrupt anything
  done.store(true);
  t->join();
}

TEST(Event, TimeoutExpiresAndCancelsAssertion) {
  assert_wait(&dummy_event_a);
  auto start = std::chrono::steady_clock::now();
  wait_result r = thread_block_timeout(30ms);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(r, wait_result::timed_out);
  EXPECT_GE(elapsed, 25ms);
  // The assertion must be gone: a later wakeup finds no waiter.
  testing::kmon_scope metrics;
  const std::uint64_t before = kmet().sched_wakeups_no_waiter.value();
  thread_wakeup(&dummy_event_a);
  EXPECT_EQ(kmet().sched_wakeups_no_waiter.value() - before, 1u);
}

TEST(Event, TimeoutNotTakenWhenWakeupArrives) {
  std::atomic<bool> ready{false};
  std::atomic<int> result{-1};
  auto t = kthread::spawn("timed", [&] {
    assert_wait(&dummy_event_b);
    ready.store(true);
    result.store(static_cast<int>(thread_block_timeout(5s)));
  });
  while (!ready.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);
  thread_wakeup(&dummy_event_b);
  t->join();
  EXPECT_EQ(result.load(), static_cast<int>(wait_result::awakened));
}

TEST(Event, DoubleAssertWaitIsFatal) {
  // "the blocking operations will call assert_wait() a second time (this
  // is fatal)" — paper section 8.
  testing::panic_hook_scope hook;
  assert_wait(&dummy_event_a);
  EXPECT_THROW(assert_wait(&dummy_event_b), panic_error);
  // Clean up the outstanding assertion.
  thread_wakeup(&dummy_event_a);
  thread_block();
}

TEST(Event, BlockWhileHoldingSimpleLockIsFatal) {
  testing::panic_hook_scope hook;
  simple_lock_data_t l;
  simple_lock_init(&l, "held-at-block");
  simple_lock(&l);
  assert_wait(&dummy_event_a);
  EXPECT_THROW(thread_block(), panic_error);
  simple_unlock(&l);
  // Drain the assertion now that the lock is gone.
  thread_wakeup(&dummy_event_a);
  thread_block();
}

TEST(Event, ThreadSleepReleasesLockAndWaits) {
  simple_lock_data_t l;
  simple_lock_init(&l, "sleep-lock");
  std::atomic<bool> ready{false};
  std::atomic<bool> lock_was_free{false};
  auto sleeper = kthread::spawn("sleeper", [&] {
    simple_lock(&l);
    ready.store(true);
    thread_sleep(&dummy_event_a, &l);  // releases l, then blocks
  });
  while (!ready.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);
  // The lock must be free while the sleeper is blocked.
  lock_was_free.store(simple_lock_try(&l));
  if (lock_was_free.load()) simple_unlock(&l);
  thread_wakeup(&dummy_event_a);
  sleeper->join();
  EXPECT_TRUE(lock_was_free.load());
}

// --- thread_block's spin phase ---

void busy_wait(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) cpu_relax();
}

struct block_rounds {
  sched_counts delta{};
  int expected = 0;  // rounds whose block returned the expected result
};

// A waiter blocks on `ev` `warmup` + `rounds` times. Each round, the
// caller waits until the waiter is inside thread_block, then calls
// `wake(waiter)`. The warm-up rounds first wait `warmup_delay` and are not
// counted: parked waits that end within the cap grow the waiter's budget.
template <class Wake>
block_rounds run_block_rounds(event_t ev, int warmup, std::chrono::microseconds warmup_delay,
                              int rounds, wait_result expect, Wake wake) {
  const int total = warmup + rounds;
  std::atomic<int> go{0};
  std::atomic<int> done{0};
  std::atomic<int> expected{0};
  auto waiter = kthread::spawn("spin-waiter", [&] {
    for (int i = 0; i < total; ++i) {
      while (go.load() <= i) std::this_thread::yield();
      assert_wait(ev);
      if (thread_block_timeout(5s) == expect && i >= warmup) expected.fetch_add(1);
      done.store(i + 1);
    }
  });
  sched_counts before{};
  for (int i = 0; i < total; ++i) {
    if (i == warmup) before = sched_now();
    go.store(i + 1);
    EXPECT_TRUE(testing::wait_until_blocked(*waiter)) << "round " << i;
    if (i < warmup) busy_wait(warmup_delay);
    wake(*waiter);
    while (done.load() < i + 1) std::this_thread::yield();
  }
  const sched_counts after = sched_now();
  waiter->join();
  return {{after.blocks - before.blocks, after.short_circuited - before.short_circuited,
           after.wakeups - before.wakeups, after.no_waiter - before.no_waiter},
          expected.load()};
}

// With the gate open, a wakeup that lands while the waiter spins ends the
// block as the paper's non-blocking switch: no park, no futex. The waiter
// is inside thread_block (kprof shows it blocked) when each wakeup is
// sent, so without the spin every round counts a suspension. The warm-up
// rounds grow its budget to ~160 us. A loaded host (ctest -j) still
// delays some wakeups past it, so only a tenth of the rounds must be
// caught; an idle 4-CPU host catches nearly all.
TEST(EventSpin, WakeupWithinBudgetIsCaughtInTheSpin) {
  // The test's main thread and the waiter are runnable; the gate needs a
  // third CPU left idle.
  if (testing::usable_cpus() < 3) GTEST_SKIP() << "the spin gate needs at least 3 usable CPUs here";
  testing::kmon_scope metrics;
  constexpr int rounds = 40;
  const block_rounds r =
      run_block_rounds(&dummy_event_a, 8, 150us, rounds, wait_result::awakened,
                       [](kthread&) { thread_wakeup(&dummy_event_a); });
  EXPECT_EQ(r.expected, rounds);
  EXPECT_EQ(r.delta.blocks + r.delta.short_circuited, static_cast<std::uint64_t>(rounds));
  EXPECT_GE(r.delta.short_circuited, static_cast<std::uint64_t>(rounds / 10));
  EXPECT_EQ(r.delta.wakeups, static_cast<std::uint64_t>(rounds));
}

TEST(EventSpin, ClearWaitReachesASpinningWaiter) {
  if (testing::usable_cpus() < 3) GTEST_SKIP() << "the spin gate needs at least 3 usable CPUs here";
  testing::kmon_scope metrics;
  constexpr int rounds = 40;
  const block_rounds r = run_block_rounds(&dummy_event_b, 8, 150us, rounds,
                                          wait_result::cleared, [](kthread& t) { clear_wait(t); });
  EXPECT_EQ(r.expected, rounds);
  EXPECT_EQ(r.delta.blocks + r.delta.short_circuited, static_cast<std::uint64_t>(rounds));
  EXPECT_GE(r.delta.short_circuited, static_cast<std::uint64_t>(rounds / 10));
}

// As many runnable kthreads as usable CPUs close the gate: the waiter
// parks at once, so even a wakeup sent the moment it blocks finds it
// suspended, though the warm-up rounds have grown its budget. The gate
// counts kthreads that are not parked in thread_block; these ones sleep
// on the host, so the waiter and the test thread still get CPUs and only
// the gate keeps the waiter from catching the wakeup in a spin.
TEST(EventSpin, RunnableKthreadsCloseTheGate) {
  testing::kmon_scope metrics;
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<kthread>> busy;
  for (int i = 0; i < testing::usable_cpus(); ++i) {
    busy.push_back(kthread::spawn("busy" + std::to_string(i), [&] {
      while (!stop.load()) std::this_thread::sleep_for(200us);
    }));
  }
  constexpr int rounds = 10;
  const block_rounds r =
      run_block_rounds(&dummy_event_a, 8, 50us, rounds, wait_result::awakened,
                       [](kthread&) { thread_wakeup(&dummy_event_a); });
  stop.store(true);
  for (auto& t : busy) t->join();
  EXPECT_EQ(r.expected, rounds);
  EXPECT_EQ(r.delta.blocks, static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(r.delta.short_circuited, 0u);
}

TEST(EventSpin, ShortTimeoutCancelsTheWait) {
  testing::kmon_scope metrics;
  for (int i = 0; i < 20; ++i) {
    assert_wait(&dummy_event_b);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(thread_block_timeout(1ms), wait_result::timed_out);
    EXPECT_GE(std::chrono::steady_clock::now() - start, 1ms);
    // Fully cancelled: no waiter left on the queue.
    const std::uint64_t before = kmet().sched_wakeups_no_waiter.value();
    thread_wakeup(&dummy_event_b);
    EXPECT_EQ(kmet().sched_wakeups_no_waiter.value() - before, 1u);
  }
}

TEST(EventSpin, BudgetRule) {
  using ns = std::chrono::nanoseconds;
  // Parked waits that end within the cap double the budget, up to the cap.
  EXPECT_EQ(next_spin_budget(10us, 50us), ns(20us));
  EXPECT_EQ(next_spin_budget(160us, 100us), ns(200us));
  EXPECT_EQ(next_spin_budget(200us, 200us), ns(200us));
  // From zero, a short wait restarts at the start value.
  EXPECT_EQ(next_spin_budget(0us, 50us), spin_budget_start);
  // Longer waits halve it; below the start value it drops to zero.
  EXPECT_EQ(next_spin_budget(200us, 1ms), ns(100us));
  EXPECT_EQ(next_spin_budget(20us, 1ms), ns(10us));
  EXPECT_EQ(next_spin_budget(15us, 1ms), ns(0));
  EXPECT_EQ(next_spin_budget(0us, 20ms), ns(0));
  // A worker idling on 20 ms receive timeouts stops spinning within five.
  ns b = spin_budget_cap;
  for (int i = 0; i < 5; ++i) b = next_spin_budget(b, 20ms);
  EXPECT_EQ(b, ns(0));
}

// Lost-wakeup battery: two kthreads pass a turn back and forth 10^5 times.
// The waker rotates through thread_wakeup_one, thread_wakeup and
// clear_wait; every fourth round the waiter's first wait times out at
// once, racing the wakeup. Every other wait is bounded, so a lost wakeup
// shows as a timeout instead of a hang. (A wakeup may also end a later
// wait early, when the waker was slow and the waiter moved without
// blocking; the waiter re-checks the turn, as Mach's callers must.)
TEST(EventSpin, PingPongLosesNoWakeup) {
  constexpr int rounds = 100'000;
  simple_lock_data_t l;
  simple_lock_init(&l, "ping-pong");
  int turn = 0;  // under l
  int ev[2] = {};
  kthread* players[2] = {};
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> lost{0};
  auto play = [&](int me) {
    const int other = 1 - me;
    while (ready.load() < 2) std::this_thread::yield();
    for (int r = 0; r < rounds; ++r) {
      bool racing = r % 4 == 3;
      for (;;) {
        simple_lock(&l);
        if (turn == me) {
          simple_unlock(&l);
          break;
        }
        assert_wait(&ev[me]);
        simple_unlock(&l);
        const wait_result w = thread_block_timeout(racing ? 0ms : 5s);
        if (w == wait_result::timed_out && !racing) lost.fetch_add(1);
        racing = false;
      }
      simple_lock(&l);
      turn = other;
      simple_unlock(&l);
      switch (r % 4) {
        case 1: thread_wakeup(&ev[other]); break;
        case 2: clear_wait(*players[other]); break;
        default: thread_wakeup_one(&ev[other]); break;
      }
    }
  };
  auto a = kthread::spawn("ping", [&] { play(0); });
  auto b = kthread::spawn("pong", [&] { play(1); });
  players[0] = a.get();
  players[1] = b.get();
  ready.store(2);
  a->join();
  b->join();
  EXPECT_EQ(lost.load(), 0u) << "bounded waits timed out: lost wakeups";
  EXPECT_EQ(turn, 0);
}

// Property sweep: N producers wake N consumers, no lost wakeups, for a
// range of concurrency levels.
class EventStressTest : public ::testing::TestWithParam<int> {};

TEST_P(EventStressTest, NoLostWakeups) {
  const int pairs = GetParam();
  constexpr int rounds = 300;
  std::vector<std::unique_ptr<kthread>> threads;
  std::vector<std::atomic<int>> tokens(static_cast<std::size_t>(pairs));
  for (auto& t : tokens) t.store(0);
  for (int p = 0; p < pairs; ++p) {
    threads.push_back(kthread::spawn("cons" + std::to_string(p), [&, p] {
      for (int r = 0; r < rounds; ++r) {
        assert_wait(&tokens[static_cast<std::size_t>(p)]);
        if (tokens[static_cast<std::size_t>(p)].load() > r) {
          // Already produced; the wakeup may have fired before our
          // assert_wait. Cancel our own wait (the paper's thread-based
          // occurrence) and move on.
          clear_wait(kthread::current());
          thread_block();
          continue;
        }
        thread_block_timeout(std::chrono::seconds(10));
      }
    }));
  }
  for (int p = 0; p < pairs; ++p) {
    threads.push_back(kthread::spawn("prod" + std::to_string(p), [&, p] {
      for (int r = 0; r < rounds; ++r) {
        tokens[static_cast<std::size_t>(p)].fetch_add(1);
        thread_wakeup(&tokens[static_cast<std::size_t>(p)]);
        if (r % 64 == 0) std::this_thread::yield();
      }
    }));
  }
  for (auto& t : threads) t->join();
  for (auto& t : tokens) EXPECT_EQ(t.load(), rounds);
}

INSTANTIATE_TEST_SUITE_P(Concurrency, EventStressTest, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace mach
