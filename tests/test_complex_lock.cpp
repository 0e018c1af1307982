// Tests for complex locks (Appendix B): Multiple protocol with writers'
// priority, Sleep and Recursive options, upgrades/downgrades, try-variants.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "base/stats.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/complex_lock.h"
#include "tests/test_util.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

// Most tests run each lock in both Sleep and spin modes.
class ComplexLockModeTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { lock_init(&l_, /*can_sleep=*/GetParam(), "test-lock"); }
  lock_data_t l_;
};

TEST_P(ComplexLockModeTest, WriteExcludesWriters) {
  constexpr int threads = 4;
  constexpr int iters = 5000;
  long counter = 0;
  std::vector<std::unique_ptr<kthread>> workers;
  for (int t = 0; t < threads; ++t) {
    workers.push_back(kthread::spawn("w" + std::to_string(t), [&] {
      for (int i = 0; i < iters; ++i) {
        lock_write(&l_);
        ++counter;
        lock_done(&l_);
      }
    }));
  }
  for (auto& w : workers) w->join();
  EXPECT_EQ(counter, static_cast<long>(threads) * iters);
  EXPECT_EQ(lock_stats(&l_).write_acquisitions, static_cast<std::uint64_t>(threads) * iters);
}

TEST_P(ComplexLockModeTest, ReadersRunConcurrently) {
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::atomic<bool> go{false};
  constexpr int readers = 4;
  std::vector<std::unique_ptr<kthread>> workers;
  for (int t = 0; t < readers; ++t) {
    workers.push_back(kthread::spawn("r" + std::to_string(t), [&] {
      while (!go.load()) std::this_thread::yield();
      lock_read(&l_);
      int now = inside.fetch_add(1) + 1;
      int prev = max_inside.load();
      while (prev < now && !max_inside.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(20ms);
      inside.fetch_sub(1);
      lock_done(&l_);
    }));
  }
  go.store(true);
  for (auto& w : workers) w->join();
  // All readers overlap inside their 20ms windows.
  EXPECT_GE(max_inside.load(), 2);
}

TEST_P(ComplexLockModeTest, WriterExcludesReaders) {
  std::atomic<bool> writer_in{false};
  std::atomic<bool> violation{false};
  std::atomic<bool> stop{false};
  auto writer = kthread::spawn("writer", [&] {
    for (int i = 0; i < 200; ++i) {
      lock_write(&l_);
      writer_in.store(true);
      for (int s = 0; s < 100; ++s) cpu_relax();
      writer_in.store(false);
      lock_done(&l_);
    }
    stop.store(true);
  });
  auto reader = kthread::spawn("reader", [&] {
    while (!stop.load()) {
      lock_read(&l_);
      if (writer_in.load()) violation.store(true);
      lock_done(&l_);
    }
  });
  writer->join();
  reader->join();
  EXPECT_FALSE(violation.load());
}

TEST_P(ComplexLockModeTest, TryWriteFailsWhenReadHeld) {
  lock_read(&l_);
  std::atomic<bool> got{true};
  auto t = kthread::spawn("tryer", [&] { got.store(lock_try_write(&l_)); });
  t->join();
  EXPECT_FALSE(got.load());
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, TryReadFailsWhenWriteHeld) {
  lock_write(&l_);
  std::atomic<bool> got{true};
  auto t = kthread::spawn("tryer", [&] { got.store(lock_try_read(&l_)); });
  t->join();
  EXPECT_FALSE(got.load());
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, TrySucceedsWhenFree) {
  EXPECT_TRUE(lock_try_read(&l_));
  lock_done(&l_);
  EXPECT_TRUE(lock_try_write(&l_));
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, TryReadSucceedsAlongsideReaders) {
  lock_read(&l_);
  std::atomic<bool> got{false};
  auto t = kthread::spawn("tryer", [&] {
    got.store(lock_try_read(&l_));
    if (got.load()) lock_done(&l_);
  });
  t->join();
  EXPECT_TRUE(got.load());
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, UpgradeSucceedsWhenSoleReader) {
  lock_read(&l_);
  EXPECT_FALSE(lock_read_to_write(&l_));  // FALSE = success (paper semantics)
  // Now held for write: try-read from elsewhere must fail.
  std::atomic<bool> got{true};
  auto t = kthread::spawn("tryer", [&] { got.store(lock_try_read(&l_)); });
  t->join();
  EXPECT_FALSE(got.load());
  lock_done(&l_);
  EXPECT_EQ(lock_stats(&l_).upgrades_succeeded, 1u);
}

TEST_P(ComplexLockModeTest, SecondUpgradeFailsAndDropsReadLock) {
  // Two readers race to upgrade: the paper requires the second to fail
  // *and lose its read hold* so the first can drain.
  std::atomic<int> failures{0};
  std::atomic<int> successes{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::unique_ptr<kthread>> workers;
  for (int t = 0; t < 2; ++t) {
    workers.push_back(kthread::spawn("up" + std::to_string(t), [&] {
      lock_read(&l_);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      if (lock_read_to_write(&l_)) {
        failures.fetch_add(1);  // read lock already released
      } else {
        successes.fetch_add(1);
        lock_done(&l_);
      }
    }));
  }
  while (ready.load() < 2) std::this_thread::yield();
  go.store(true);
  for (auto& w : workers) w->join();
  EXPECT_EQ(successes.load(), 1);
  EXPECT_EQ(failures.load(), 1);
  // Everything was released: a fresh write acquisition must succeed.
  EXPECT_TRUE(lock_try_write(&l_));
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, DowngradeCannotFailAndAdmitsReaders) {
  lock_write(&l_);
  lock_write_to_read(&l_);
  std::atomic<bool> got{false};
  auto t = kthread::spawn("reader", [&] {
    got.store(lock_try_read(&l_));
    if (got.load()) lock_done(&l_);
  });
  t->join();
  EXPECT_TRUE(got.load());
  lock_done(&l_);
  EXPECT_EQ(lock_stats(&l_).downgrades, 1u);
}

TEST_P(ComplexLockModeTest, TryUpgradeKeepsReadLockOnFailure) {
  // lock_try_read_to_write does NOT drop the read lock when the upgrade
  // would deadlock (another upgrade pending) — unlike lock_read_to_write.
  lock_read(&l_);
  std::atomic<bool> other_upgraded{false};
  std::atomic<bool> release_reader{false};
  // A second reader upgrades first and holds the drain.
  auto other = kthread::spawn("other", [&] {
    lock_read(&l_);
    other_upgraded.store(true);
    // This blocks until the main thread's read hold is gone...
    bool failed = lock_read_to_write(&l_);
    EXPECT_FALSE(failed);
    lock_done(&l_);
    release_reader.store(true);
  });
  while (!other_upgraded.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);  // let `other` set want_upgrade
  EXPECT_FALSE(lock_try_read_to_write(&l_));
  // Our read hold survives: release it, letting `other` finish.
  lock_done(&l_);
  other->join();
  EXPECT_TRUE(release_reader.load());
}

TEST_P(ComplexLockModeTest, WriterPriorityHoldsOffNewReaders) {
  // Take a read hold, start a writer (which commits want_write while
  // draining), then check that a new reader cannot enter.
  lock_read(&l_);
  std::atomic<bool> writer_done{false};
  auto writer = kthread::spawn("writer", [&] {
    lock_write(&l_);
    writer_done.store(true);
    lock_done(&l_);
  });
  std::this_thread::sleep_for(10ms);  // writer is now draining us
  EXPECT_FALSE(writer_done.load());
  EXPECT_FALSE(lock_try_read(&l_)) << "reader admitted past a pending writer";
  lock_done(&l_);  // release our read hold; writer proceeds
  writer->join();
  EXPECT_TRUE(writer_done.load());
}

TEST_P(ComplexLockModeTest, NoPriorityVariantAdmitsReaders) {
  lock_set_writer_priority(&l_, false);
  lock_read(&l_);
  auto writer = kthread::spawn("writer", [&] {
    lock_write(&l_);
    lock_done(&l_);
  });
  std::this_thread::sleep_for(10ms);
  // Without writers' priority, a new reader IS admitted while we still
  // hold the lock for reading — the starvation E3 measures.
  EXPECT_TRUE(lock_try_read(&l_));
  lock_done(&l_);
  lock_done(&l_);
  writer->join();
}

TEST_P(ComplexLockModeTest, RecursiveWriteAcquisition) {
  lock_write(&l_);
  lock_set_recursive(&l_);
  lock_write(&l_);  // nested: would deadlock without the Recursive option
  lock_write(&l_);
  lock_done(&l_);
  lock_done(&l_);
  lock_clear_recursive(&l_);
  lock_done(&l_);
  EXPECT_TRUE(lock_try_write(&l_));  // fully released
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, RecursiveReadBypassesPendingWriter) {
  // Paper sec. 4: the recursion holder's requests are not blocked by a
  // pending write request, so it can finish and drop the lock.
  lock_write(&l_);
  lock_set_recursive(&l_);
  lock_write_to_read(&l_);  // downgrade; recursion stays set
  std::atomic<bool> writer_got_it{false};
  auto writer = kthread::spawn("writer", [&] {
    lock_write(&l_);
    writer_got_it.store(true);
    lock_done(&l_);
  });
  std::this_thread::sleep_for(10ms);  // writer commits, drains us
  // An ordinary reader is refused...
  // ...but the recursive holder may still acquire for read:
  lock_read(&l_);
  lock_done(&l_);
  EXPECT_FALSE(writer_got_it.load());
  lock_clear_recursive(&l_);
  lock_done(&l_);  // final release; writer proceeds
  writer->join();
}

TEST_P(ComplexLockModeTest, RecursiveWriteAfterDowngradeIsFatal) {
  testing::panic_hook_scope hook;
  lock_write(&l_);
  lock_set_recursive(&l_);
  lock_write_to_read(&l_);
  EXPECT_THROW(lock_write(&l_), panic_error);
  lock_clear_recursive(&l_);
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, UpgradeOfRecursiveReadIsFatal) {
  testing::panic_hook_scope hook;
  lock_write(&l_);
  lock_set_recursive(&l_);
  lock_write_to_read(&l_);
  EXPECT_THROW((void)lock_read_to_write(&l_), panic_error);
  lock_clear_recursive(&l_);
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, SetRecursiveWithoutWriteHoldIsFatal) {
  testing::panic_hook_scope hook;
  lock_read(&l_);
  EXPECT_THROW(lock_set_recursive(&l_), panic_error);
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, MixedReadWriteStress) {
  constexpr int threads = 4;
  constexpr int iters = 3000;
  long shared = 0;
  std::atomic<long> read_sum{0};
  std::vector<std::unique_ptr<kthread>> workers;
  for (int t = 0; t < threads; ++t) {
    workers.push_back(kthread::spawn("m" + std::to_string(t), [&, t] {
      for (int i = 0; i < iters; ++i) {
        if ((i + t) % 4 == 0) {
          lock_write(&l_);
          ++shared;
          lock_done(&l_);
        } else {
          lock_read(&l_);
          read_sum.fetch_add(shared >= 0 ? 1 : 0);
          lock_done(&l_);
        }
      }
    }));
  }
  for (auto& w : workers) w->join();
  long expected_writes = 0;
  for (int t = 0; t < threads; ++t)
    for (int i = 0; i < iters; ++i)
      if ((i + t) % 4 == 0) ++expected_writes;
  EXPECT_EQ(shared, expected_writes);
}

INSTANTIATE_TEST_SUITE_P(SleepAndSpin, ComplexLockModeTest, ::testing::Values(true, false),
                         [](const auto& info) { return info.param ? "sleep" : "spin"; });

TEST(ComplexLock, SleepableTogglesDynamically) {
  lock_data_t l;
  lock_init(&l, /*can_sleep=*/false, "toggle");
  lock_sleepable(&l, true);
  // A waiter must now block through the event system (observable via the
  // sleeps counter) rather than spin.
  lock_write(&l);
  auto t = kthread::spawn("blocked", [&] {
    lock_read(&l);
    lock_done(&l);
  });
  std::this_thread::sleep_for(10ms);
  lock_done(&l);
  t->join();
  EXPECT_GT(lock_stats(&l).sleeps, 0u);
  EXPECT_EQ(lock_stats(&l).spins, 0u);
}

TEST(ComplexLock, DoneOfUnheldLockIsFatal) {
  testing::panic_hook_scope hook;
  lock_data_t l;
  lock_init(&l, true, "unheld");
  EXPECT_THROW(lock_done(&l), panic_error);
}

TEST(ComplexLock, DowngradeByNonWriterIsFatal) {
  testing::panic_hook_scope hook;
  lock_data_t l;
  lock_init(&l, true, "nonwriter");
  lock_read(&l);
  EXPECT_THROW(lock_write_to_read(&l), panic_error);
  lock_done(&l);
}

TEST(ComplexLock, StatsTrackEverything) {
  lock_data_t l;
  lock_init(&l, true, "stats");
  lock_read(&l);
  lock_done(&l);
  lock_write(&l);
  lock_write_to_read(&l);
  lock_done(&l);
  lock_read(&l);
  EXPECT_FALSE(lock_read_to_write(&l));
  lock_done(&l);
  auto s = lock_stats(&l);
  EXPECT_EQ(s.read_acquisitions, 2u);
  EXPECT_EQ(s.write_acquisitions, 1u);
  EXPECT_EQ(s.downgrades, 1u);
  EXPECT_EQ(s.upgrades_succeeded, 1u);
  EXPECT_EQ(s.upgrades_failed, 0u);
}

// --- read fast path: flag-free readers enter and leave on their own way ---

std::uint64_t interlock_acquisitions(const lock_data_t& l) {
  return l.interlock.stat_acquisitions;  // quiescent reads only
}

// Spin until `pred` holds, up to a bound; false on timeout.
template <class Pred>
bool eventually(Pred pred, std::chrono::milliseconds bound = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + bound;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ComplexLockFastPath, UncontendedReadTakesNoInterlock) {
  lock_data_t l;
  lock_init(&l, true, "fast");
  const std::uint64_t before = interlock_acquisitions(l);
  lock_read(&l);
  lock_done(&l);
  ASSERT_TRUE(lock_try_read(&l));
  lock_read(&l);  // a second concurrent read hold
  lock_done(&l);
  lock_done(&l);
  EXPECT_EQ(interlock_acquisitions(l), before);
  EXPECT_EQ(lock_stats(&l).read_acquisitions, 3u);
}

TEST(ComplexLockFastPath, RecursionTakesInterlockPath) {
  lock_data_t l;
  lock_init(&l, true, "fast-recursive");
  lock_write(&l);
  lock_set_recursive(&l);
  lock_write_to_read(&l);
  std::uint64_t before = interlock_acquisitions(l);
  lock_read(&l);  // recursive read
  EXPECT_GT(interlock_acquisitions(l), before);
  before = interlock_acquisitions(l);
  lock_done(&l);
  EXPECT_GT(interlock_acquisitions(l), before);
  lock_clear_recursive(&l);
  lock_done(&l);
  // Recursion cleared: reads are fast again.
  before = interlock_acquisitions(l);
  lock_read(&l);
  lock_done(&l);
  EXPECT_EQ(interlock_acquisitions(l), before);
}

TEST(ComplexLockFastPath, NoWriterPriorityTakesInterlockPath) {
  lock_data_t l;
  lock_init(&l, true, "fast-nopriority");
  lock_set_writer_priority(&l, false);
  std::uint64_t before = interlock_acquisitions(l);
  lock_read(&l);
  EXPECT_EQ(interlock_acquisitions(l), before + 1);
  lock_done(&l);
  EXPECT_EQ(interlock_acquisitions(l), before + 2);
  ASSERT_TRUE(lock_try_read(&l));
  lock_done(&l);
  EXPECT_EQ(interlock_acquisitions(l), before + 4);
  lock_set_writer_priority(&l, true);
  before = interlock_acquisitions(l);
  lock_read(&l);
  lock_done(&l);
  EXPECT_EQ(interlock_acquisitions(l), before);
}

TEST(ComplexLockFastPath, ReadHoldAcrossOptionChangeReleasesCleanly) {
  // A fast read hold released after kSlowReaders was set leaves through
  // the interlock path, and vice versa; either way the count balances.
  lock_data_t l;
  lock_init(&l, true, "fast-toggle");
  lock_read(&l);                        // fast
  lock_set_writer_priority(&l, false);  // readers now go slow
  lock_done(&l);                        // slow exit of a fast entry
  lock_read(&l);                        // slow
  lock_set_writer_priority(&l, true);
  lock_done(&l);  // fast exit of a slow entry
  EXPECT_TRUE(lock_try_write(&l));
  lock_done(&l);
  EXPECT_EQ(lock_stats(&l).read_acquisitions, 2u);
}

TEST(ComplexLockFastPath, PendingWriterRefusesFastPath) {
  lock_data_t l;
  lock_init(&l, true, "fast-writer");
  lock_read(&l);
  auto writer = kthread::spawn("writer", [&] {
    lock_write(&l);
    lock_done(&l);
  });
  ASSERT_TRUE(eventually([&] { return (l.state.load() & lock_data_t::kWantWrite) != 0; }));
  const std::uint64_t before = interlock_acquisitions(l);
  std::atomic<int> got{-1};
  auto reader = kthread::spawn("reader", [&] { got.store(lock_try_read(&l) ? 1 : 0); });
  reader->join();
  EXPECT_EQ(got.load(), 0) << "reader admitted past a pending writer";
  EXPECT_GT(interlock_acquisitions(l), before);  // decided under the interlock
  lock_done(&l);
  writer->join();
}

TEST(ComplexLockFastPath, PendingUpgradeRefusesFastPath) {
  lock_data_t l;
  lock_init(&l, true, "fast-upgrade");
  lock_read(&l);
  auto upgrader = kthread::spawn("upgrader", [&] {
    lock_read(&l);
    EXPECT_FALSE(lock_read_to_write(&l));
    lock_done(&l);
  });
  ASSERT_TRUE(eventually([&] { return (l.state.load() & lock_data_t::kWantUpgrade) != 0; }));
  const std::uint64_t before = interlock_acquisitions(l);
  std::atomic<int> got{-1};
  auto reader = kthread::spawn("reader", [&] { got.store(lock_try_read(&l) ? 1 : 0); });
  reader->join();
  EXPECT_EQ(got.load(), 0) << "reader admitted past a pending upgrade";
  EXPECT_GT(interlock_acquisitions(l), before);
  lock_done(&l);
  upgrader->join();
}

TEST(ComplexLockFastPath, ReadAcquisitionsCountFastAndSlowExactly) {
  lock_data_t l;
  lock_init(&l, true, "fast-count");
  constexpr int threads = 4;
  constexpr int iters = 20000;
  std::vector<std::unique_ptr<kthread>> workers;
  for (int t = 0; t < threads; ++t) {
    workers.push_back(kthread::spawn("r" + std::to_string(t), [&] {
      for (int i = 0; i < iters; ++i) {
        lock_read(&l);
        lock_done(&l);
      }
    }));
  }
  for (auto& w : workers) w->join();
  // Slow reads: writers' priority off, and a recursive read.
  lock_set_writer_priority(&l, false);
  lock_read(&l);
  lock_done(&l);
  lock_set_writer_priority(&l, true);
  lock_write(&l);
  lock_set_recursive(&l);
  lock_read(&l);
  lock_done(&l);
  lock_clear_recursive(&l);
  lock_done(&l);
  const std::uint64_t reads = static_cast<std::uint64_t>(threads) * iters + 2;
  const complex_lock_stats s = lock_stats(&l);
  EXPECT_EQ(s.read_acquisitions, reads);
  EXPECT_EQ(s.write_acquisitions, 1u);
  bool found = false;
  for (const lock_stat_entry& e : lock_registry::instance().snapshot()) {
    if (e.address == &l && e.is_complex) {
      found = true;
      EXPECT_EQ(e.acquisitions, reads + 1);
    }
  }
  EXPECT_TRUE(found);
}

// Readers count themselves in on their own way's line; the shared state
// word carries only the want/slow flags, so read holds leave it idle.
TEST(ComplexLockFastPath, ReadHoldsLeaveStateWordIdle) {
  constexpr int k = 3;
  lock_data_t l;
  lock_init(&l, true, "fast-idle-word");
  std::atomic<int> held{0};
  std::atomic<bool> release{false};
  std::vector<std::unique_ptr<kthread>> rs;
  for (int r = 0; r < k; ++r) {
    rs.push_back(kthread::spawn("reader", [&] {
      lock_read(&l);
      held.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      lock_done(&l);
    }));
  }
  ASSERT_TRUE(eventually([&] { return held.load() == k; }));
  EXPECT_EQ(l.state.load(), 0u) << "read holds wrote the shared state word";
  EXPECT_EQ(lock_stats(&l).read_acquisitions, static_cast<std::uint64_t>(k));
  release.store(true);
  for (auto& r : rs) r->join();
  EXPECT_TRUE(lock_try_write(&l));
  lock_done(&l);
}

// Wait until a drainer is in its wait loop, then expect it to finish once
// the lock is free; on a lost wakeup, fail and kick it so the test ends.
void expect_drainer_finishes(lock_data_t& l, const std::atomic<bool>& done, const char* what) {
  if (eventually([&] { return done.load(); })) return;
  ADD_FAILURE() << "lost wakeup: " << what;
  while (!done.load()) {
    thread_wakeup(&l);
    std::this_thread::sleep_for(1ms);
  }
}

// A read hold counts in on the way of the thread that takes it and out on
// the way of the thread that drops it: the drainer's sum must still reach
// zero, and the drop must wake the sleeping writer.
TEST(ComplexLockFastPath, ReadHoldDroppedOnAnotherWayWakesSleepingWriter) {
  lock_data_t l;
  lock_init(&l, /*can_sleep=*/true, "cross-way");
  std::atomic<unsigned> taker_way{num_ways};
  std::atomic<bool> dropped{false};
  auto taker = kthread::spawn("taker", [&] {
    lock_read(&l);
    taker_way.store(way_index());
    while (!dropped.load()) std::this_thread::yield();
  });
  ASSERT_TRUE(eventually([&] { return taker_way.load() != num_ways; }));
  std::atomic<bool> wrote{false};
  auto writer = kthread::spawn("writer", [&] {
    lock_write(&l);
    wrote.store(true);
    lock_done(&l);
  });
  ASSERT_TRUE(eventually([&] { return lock_stats(&l).sleeps > 0; }));
  EXPECT_FALSE(wrote.load()) << "writer admitted past a read hold";
  std::atomic<unsigned> dropper_way{num_ways};
  auto dropper = kthread::spawn("dropper", [&] {
    dropper_way.store(way_index());
    lock_done(&l);
  });
  dropper->join();
  dropped.store(true);
  taker->join();
  EXPECT_NE(taker_way.load(), dropper_way.load()) << "hold not dropped on another way";
  expect_drainer_finishes(l, wrote, "writer still asleep after a cross-way drop");
  writer->join();
  EXPECT_EQ(l.state.load(), 0u);
  EXPECT_TRUE(lock_try_write(&l));
  lock_done(&l);
  EXPECT_EQ(lock_stats(&l).read_acquisitions, 1u);
}

// Without writers' priority every fast entry is refused by kSlowReaders
// alone: the reader counts in, sees the flag and backs out. A writer that
// sums the ways in that window counts the reader and sleeps; the reader
// must reload the flags after backing out and wake it. If it decides on
// the load taken before the back-out, the writer sleeps, the reader then
// waits behind the writer's flag, and both sleep for good.
TEST(ComplexLockFastPath, NoPriorityWriterDrainsPastRefusedReaders) {
  constexpr int rounds = 200;
  constexpr int writes = 1000;
  for (int round = 0; round < rounds; ++round) {
    lock_data_t l;
    lock_init(&l, /*can_sleep=*/true, "nopriority-drain");
    lock_set_writer_priority(&l, false);
    std::atomic<bool> wrote{false};
    std::atomic<std::uint64_t> reads{0};
    auto reader = kthread::spawn("reader", [&] {
      while (!wrote.load()) {
        lock_read(&l);
        lock_done(&l);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
    auto writer = kthread::spawn("writer", [&] {
      for (int i = 0; i < writes; ++i) {
        lock_write(&l);
        lock_done(&l);
      }
      wrote.store(true);
    });
    expect_drainer_finishes(l, wrote, "writer asleep behind a refused reader");
    writer->join();
    reader->join();
    EXPECT_EQ(l.state.load(), lock_data_t::kSlowReaders);
    EXPECT_EQ(lock_stats(&l).read_acquisitions, reads.load());
    if (::testing::Test::HasFailure()) return;
  }
}

// The last fast-path reader out must wake a drainer that went to sleep
// (or is spinning) on the lock. Every wait is bounded: on a lost wakeup
// the test fails, then kicks the sleeper with a spurious wakeup so that
// it re-checks its predicate and the test can finish.
class ComplexLockLastReaderTest : public ::testing::TestWithParam<bool> {
 protected:
  void run(bool upgrade) {
    constexpr int rounds = 150;
    constexpr int readers = 3;
    for (int round = 0; round < rounds; ++round) {
      lock_data_t l;
      lock_init(&l, /*can_sleep=*/GetParam(), "last-reader");
      std::atomic<int> held{0};
      std::atomic<bool> release{false};
      std::vector<std::unique_ptr<kthread>> rs;
      for (int r = 0; r < readers; ++r) {
        rs.push_back(kthread::spawn("reader", [&] {
          lock_read(&l);
          held.fetch_add(1);
          while (!release.load()) std::this_thread::yield();
          lock_done(&l);
        }));
      }
      ASSERT_TRUE(eventually([&] { return held.load() == readers; }));
      std::atomic<bool> done{false};
      auto drainer = kthread::spawn("drainer", [&] {
        if (upgrade) {
          lock_read(&l);
          EXPECT_FALSE(lock_read_to_write(&l));
        } else {
          lock_write(&l);
        }
        done.store(true);
        lock_done(&l);
      });
      // Wait until the drainer has gone to wait at least once.
      ASSERT_TRUE(eventually([&] {
        const complex_lock_stats s = lock_stats(&l);
        return s.sleeps + s.spins > 0;
      }));
      release.store(true);
      for (auto& r : rs) r->join();
      if (!eventually([&] { return done.load(); })) {
        ADD_FAILURE() << "lost wakeup: drainer still waiting after the last reader left"
                      << " (round " << round << ")";
        while (!done.load()) {
          thread_wakeup(&l);
          std::this_thread::sleep_for(1ms);
        }
      }
      drainer->join();
      EXPECT_EQ(l.state.load(), 0u);
      if (::testing::Test::HasFailure()) return;
    }
  }
};

TEST_P(ComplexLockLastReaderTest, WakesSleepingWriter) { run(/*upgrade=*/false); }
TEST_P(ComplexLockLastReaderTest, WakesSleepingUpgrader) { run(/*upgrade=*/true); }

INSTANTIATE_TEST_SUITE_P(SleepAndSpin, ComplexLockLastReaderTest, ::testing::Values(true, false),
                         [](const auto& info) { return info.param ? "sleep" : "spin"; });

TEST(ComplexLockGuards, ReadAndWriteGuardsRelease) {
  lock_data_t l;
  lock_init(&l, true, "guards");
  {
    read_lock_guard g(l);
  }
  {
    write_lock_guard g(l);
  }
  EXPECT_TRUE(lock_try_write(&l));
  lock_done(&l);
}

TEST(ComplexLockGuards, EarlyUnlock) {
  lock_data_t l;
  lock_init(&l, true, "guards2");
  write_lock_guard g(l);
  g.unlock();
  EXPECT_TRUE(lock_try_write(&l));
  lock_done(&l);
}

}  // namespace
}  // namespace mach
