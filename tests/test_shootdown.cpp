// Tests for TLB shootdown: the happy path, the pmap special logic, and
// the section 7 three-processor deadlock (inconsistent spl), detected and
// named by the wait graph.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "sched/kthread.h"
#include "sync/deadlock.h"
#include "tests/test_util.h"
#include "vm/shootdown.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

struct shootdown_fixture : ::testing::Test {
  void SetUp() override {
    machine::instance().configure(3);
    tlbs = std::make_unique<tlb_set>(3);
    pmaps = std::make_unique<pmap_system>();
    engine = std::make_unique<shootdown_engine>(*pmaps, *tlbs);
    engine->attach(SPLHIGH);
  }
  void TearDown() override { machine::instance().configure(0); }

  std::unique_ptr<tlb_set> tlbs;
  std::unique_ptr<pmap_system> pmaps;
  std::unique_ptr<shootdown_engine> engine;
};

TEST_F(shootdown_fixture, TlbBasics) {
  tlbs->insert(0, 0x1000, 0xA000);
  EXPECT_EQ(tlbs->lookup(0, 0x1000), 0xA000u);
  EXPECT_FALSE(tlbs->lookup(1, 0x1000).has_value());  // per-CPU
  tlbs->flush_local(0, 0x1000);
  EXPECT_FALSE(tlbs->lookup(0, 0x1000).has_value());
}

TEST_F(shootdown_fixture, PostedInvalidationsApplyOnProcess) {
  tlbs->insert(1, 0x1000, 0xA000);
  tlbs->post_invalidate(1, 0x1000);
  EXPECT_TRUE(tlbs->has_pending(1));
  EXPECT_EQ(tlbs->lookup(1, 0x1000), 0xA000u);  // stale until processed
  EXPECT_EQ(tlbs->process_pending(1), 1);
  EXPECT_FALSE(tlbs->lookup(1, 0x1000).has_value());
}

TEST_F(shootdown_fixture, ShootdownInvalidatesRemoteTlbs) {
  pmap p("victim");
  // CPU 1 and 2 run poll loops (kernel idle); they cache the translation.
  tlbs->insert(1, 0x1000, 0xA000);
  tlbs->insert(2, 0x1000, 0xA000);
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<kthread>> pollers;
  for (int i = 1; i <= 2; ++i) {
    pollers.push_back(kthread::spawn("cpu" + std::to_string(i), [i, &stop] {
      cpu_binding bind(i);
      while (!stop.load()) {
        machine::interrupt_point();
        std::this_thread::yield();
      }
    }));
  }
  cpu_binding bind(0);
  auto st = engine->update_mapping(p, 0x1000, 0xB000, 5s);
  EXPECT_EQ(st, interrupt_barrier::status::ok);
  stop.store(true);
  for (auto& t : pollers) t->join();
  // No CPU retains the stale translation.
  EXPECT_FALSE(tlbs->lookup(1, 0x1000).has_value());
  EXPECT_FALSE(tlbs->lookup(2, 0x1000).has_value());
  // And the pmap has the new mapping.
  spl_t s = p.lock_acquire();
  EXPECT_EQ(p.lookup_locked(0x1000), 0xB000u);
  p.lock_release(s);
}

TEST_F(shootdown_fixture, SpecialLogicExcludesCpuAtPmapLock) {
  // CPU 2's thread holds a pmap lock (spl raised, cannot take the IPI);
  // the special logic drops it from the participant set, so the round
  // completes, and CPU 2 processes the posted update afterwards.
  pmap p("target"), other("other");
  tlbs->insert(2, 0x1000, 0xA000);
  std::atomic<bool> locked{false}, release{false}, stop{false};
  auto cpu2 = kthread::spawn("cpu2", [&] {
    cpu_binding bind(2);
    spl_t s = other.lock_acquire();  // at_pmap_lock set, spl = SPLVM
    locked.store(true);
    while (!release.load()) std::this_thread::yield();
    other.lock_release(s);  // splx lowers → pending IPI delivered here
    while (!stop.load()) {
      machine::interrupt_point();
      std::this_thread::yield();
    }
  });
  auto cpu1 = kthread::spawn("cpu1", [&] {
    cpu_binding bind(1);
    while (!stop.load()) {
      machine::interrupt_point();
      std::this_thread::yield();
    }
  });
  while (!locked.load()) std::this_thread::yield();

  cpu_binding bind(0);
  auto st = engine->update_mapping(p, 0x1000, 0xB000, 2s);
  EXPECT_EQ(st, interrupt_barrier::status::ok) << "round must not wait for the excluded CPU";
  EXPECT_GE(engine->cpus_excluded(), 1u);
  // CPU 2 still has the stale entry (posted, not yet processed)...
  EXPECT_EQ(tlbs->lookup(2, 0x1000), 0xA000u);
  release.store(true);  // CPU 2 drops the pmap lock → takes the IPI
  while (tlbs->lookup(2, 0x1000).has_value()) std::this_thread::yield();
  stop.store(true);
  cpu2->join();
  cpu1->join();
}

TEST_F(shootdown_fixture, WithoutSpecialLogicRoundTimesOut) {
  engine->set_pmap_special_logic(false);
  pmap p("target"), other("other");
  std::atomic<bool> locked{false}, release{false};
  auto cpu2 = kthread::spawn("cpu2", [&] {
    cpu_binding bind(2);
    spl_t s = other.lock_acquire();
    locked.store(true);
    while (!release.load()) std::this_thread::yield();
    other.lock_release(s);
    machine::interrupt_point();
  });
  std::atomic<bool> stop{false};
  auto cpu1 = kthread::spawn("cpu1", [&] {
    cpu_binding bind(1);
    while (!stop.load()) {
      machine::interrupt_point();
      std::this_thread::yield();
    }
  });
  while (!locked.load()) std::this_thread::yield();
  cpu_binding bind(0);
  auto st = engine->update_mapping(p, 0x1000, 0xB000, 100ms);
  EXPECT_EQ(st, interrupt_barrier::status::timed_out);
  release.store(true);
  stop.store(true);
  cpu2->join();
  cpu1->join();
}

// The full section 7 scenario: "Processor 1 has the lock with interrupts
// enabled. Processor 2 has disabled interrupts and is attempting to
// acquire the lock. Processor 3 initiates interrupt barrier
// synchronization. Processor 1 takes the interrupt, processor 2 does not."
TEST_F(shootdown_fixture, Section7ThreeProcessorDeadlockDetected) {
  deadlock_tracing_scope tracing;
  simple_lock_data_t the_lock;
  simple_lock_init(&the_lock, "device-lock");

  std::atomic<bool> p1_has_lock{false}, p2_spinning{false};
  std::atomic<bool> unwound{false};

  // P1: acquires the lock at spl0 (interrupts enabled — the inconsistent
  // acquisition) and polls inside its critical section.
  auto p1 = kthread::spawn("P1", [&] {
    cpu_binding bind(1);
    simple_lock(&the_lock);
    p1_has_lock.store(true);
    while (!unwound.load()) {
      machine::interrupt_point();  // ...and takes the barrier IPI here
      std::this_thread::yield();
    }
    simple_unlock(&the_lock);
  });
  while (!p1_has_lock.load()) std::this_thread::yield();

  // P2: raises spl (disables the barrier interrupt) and spins on the lock.
  auto p2 = kthread::spawn("P2", [&] {
    cpu_binding bind(2);
    spl_t s = splraise(SPLHIGH);
    p2_spinning.store(true);
    simple_lock(&the_lock);  // spins; poll hook delivers nothing at SPLHIGH
    simple_unlock(&the_lock);
    splx(s);
  });
  while (!p2_spinning.load()) std::this_thread::yield();

  // P3: initiates the barrier including CPUs 1 and 2.
  std::atomic<int> round_status{-1};
  auto p3 = kthread::spawn("P3", [&] {
    cpu_binding bind(0);
    auto st = engine->barrier().run(0b110, [] {}, 30s);
    round_status.store(static_cast<int>(st));
  });

  // The deadlock detector names the three-party cycle.
  auto cycle = wait_graph::instance().wait_for_cycle(10000);
  ASSERT_TRUE(cycle.has_value()) << "expected the section 7 deadlock";
  EXPECT_GE(cycle->threads.size(), 3u) << cycle->description;

  // Unwind: abort the barrier round (the watchdog's remedy) and let P3
  // report it before P1 releases the lock. Otherwise P2 could acquire,
  // lower its spl, and take the IPI before P3 sees the abort, completing
  // the round. Then P1 leaves the ISR and releases the lock; P2 acquires
  // and releases.
  engine->barrier().abort_current();
  while (round_status.load() == -1) std::this_thread::yield();
  unwound.store(true);
  p1->join();
  p2->join();
  p3->join();
  EXPECT_EQ(round_status.load(), static_cast<int>(interrupt_barrier::status::aborted));
}

}  // namespace
}  // namespace mach
