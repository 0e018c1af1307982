// Tests for the lockstat registry: Appendix A's "debugging and statistics
// information" as a live, system-wide facility.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>

#include "harness/mini_json.h"
#include "sched/kthread.h"
#include "svc/machcached.h"
#include "sync/complex_lock.h"
#include "sync/lockstat.h"
#include "sync/simple_lock.h"
#include "tests/test_util.h"
#include "trace/ktrace.h"
#include "vm/pmap.h"
#include "vm/vm_map.h"

namespace mach {
namespace {

// A complex lock and its first-member interlock share an address, so the
// lookup must also match the kind.
lock_stat_entry find_entry(const void* addr, bool is_complex = false) {
  for (const auto& e : lock_registry::instance().snapshot()) {
    if (e.address == addr && e.is_complex == is_complex) return e;
  }
  return {nullptr, "missing", false, 0, 0};
}

TEST(Lockstat, LocksRegisterAndUnregister) {
  std::size_t before = lock_registry::instance().live_locks();
  {
    simple_lock_data_t s("reg-simple");
    lock_data_t c;  // note: a complex lock also contains its interlock
    EXPECT_EQ(lock_registry::instance().live_locks(), before + 3);
    EXPECT_STREQ(find_entry(&s).name, "reg-simple");
  }
  EXPECT_EQ(lock_registry::instance().live_locks(), before);
}

TEST(Lockstat, CountsAcquisitions) {
  simple_lock_data_t l("counted");
  for (int i = 0; i < 10; ++i) {
    simple_lock(&l);
    simple_unlock(&l);
  }
  EXPECT_TRUE(simple_lock_try(&l));
  simple_unlock(&l);
  lock_stat_entry e = find_entry(&l);
  EXPECT_EQ(e.acquisitions, 11u);
  EXPECT_EQ(e.contended, 0u);
  EXPECT_FALSE(e.is_complex);
}

TEST(Lockstat, CountsContention) {
  simple_lock_data_t l("contended-stat");
  std::atomic<bool> held{false}, release{false};
  auto holder = kthread::spawn("holder", [&] {
    simple_lock(&l);
    held.store(true);
    while (!release.load()) std::this_thread::yield();
    simple_unlock(&l);
  });
  while (!held.load()) std::this_thread::yield();
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    release.store(true);
  });
  simple_lock(&l);  // contended
  simple_unlock(&l);
  holder->join();
  releaser.join();
  EXPECT_EQ(find_entry(&l).contended, 1u);
}

TEST(Lockstat, ComplexLocksReportCombinedStats) {
  lock_data_t l;
  lock_init(&l, true, "complex-stat");
  lock_read(&l);
  lock_done(&l);
  lock_write(&l);
  lock_done(&l);
  lock_stat_entry e = find_entry(&l, /*is_complex=*/true);
  EXPECT_TRUE(e.is_complex);
  EXPECT_EQ(e.acquisitions, 2u);  // one read + one write
}

TEST(Lockstat, SnapshotSortsMostContendedFirst) {
  auto snap = lock_registry::instance().snapshot();
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_GE(snap[i - 1].contended, snap[i].contended);
  }
}

TEST(Lockstat, SnapshotTieBreaksByNameThenAddress) {
  // Identical counters: order must fall back to name, then address, so
  // repeated snapshots (and print_top output) are stable run to run.
  simple_lock_data_t b("tiebreak-b");
  simple_lock_data_t a("tiebreak-a");
  simple_lock_data_t a2("tiebreak-a");
  auto position = [](const std::vector<lock_stat_entry>& snap, const void* addr) {
    for (std::size_t i = 0; i < snap.size(); ++i) {
      if (snap[i].address == addr) return i;
    }
    return snap.size();
  };
  auto snap = lock_registry::instance().snapshot();
  ASSERT_LT(position(snap, &a), snap.size());
  EXPECT_LT(position(snap, &a), position(snap, &b));  // name breaks the tie
  // Same name: address ordering decides, deterministically within a run.
  const bool a_first = &a < &a2;
  EXPECT_EQ(position(snap, &a) < position(snap, &a2), a_first);

  // The full order is reproducible across snapshots.
  auto snap2 = lock_registry::instance().snapshot();
  ASSERT_EQ(snap.size(), snap2.size());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].address, snap2[i].address) << "row " << i;
  }
}

TEST(Lockstat, PrintTopDoesNotExplode) {
  // Smoke: the report renders with whatever is live (captured by ctest).
  lock_registry::instance().print_top(5);
}

// Locks built while a snapshot loop runs are listed under their own names
// from registration on. A lock_init after the constructor renames a lock
// the registry already lists: a snapshot in between reads the default
// name, and the rename races the snapshot's read (ThreadSanitizer reports
// it). Covers the mc_cache shards, vm_map and the pmap system lock.
TEST(Lockstat, LocksBuiltDuringSnapshotsNeverReadTheDefaultName) {
  std::atomic<bool> stop{false};
  std::atomic<int> snapshots{0};
  std::atomic<int> defaults{0};
  std::thread snapper([&] {
    while (!stop.load()) {
      for (const lock_stat_entry& e : lock_registry::instance().snapshot()) {
        if (std::strcmp(e.name, "complex-lock") == 0 ||
            std::strcmp(e.name, "complex-interlock") == 0) {
          defaults.fetch_add(1);
        }
      }
      snapshots.fetch_add(1);
    }
  });
  while (snapshots.load() < 2) std::this_thread::yield();
  const int before = snapshots.load();
  {
    mc_cache_config cfg;
    cfg.shards = 1024;
    mc_cache cache(cfg);
    EXPECT_EQ(cache.shards(), 1024);
    ref_ptr<vm_map> map = make_object<vm_map>();
    pmap_system pmaps;
    while (snapshots.load() < before + 2) std::this_thread::yield();
    EXPECT_EQ(find_entry(&map->map_lock(), /*is_complex=*/true).name,
              std::string("vm-map-lock"));
    EXPECT_EQ(find_entry(&pmaps.system_lock(), /*is_complex=*/true).name,
              std::string("pmap-system-lock"));
    EXPECT_EQ(find_entry(&pmaps.system_lock()).name, std::string("pmap-system-lock"));
  }
  stop.store(true);
  snapper.join();
  EXPECT_EQ(defaults.load(), 0);
}

// --- lock profiles: allocated on the first timed hold or wait ---

class LockProfile : public ::testing::Test {
 protected:
  void SetUp() override {
    ktrace::disable();
    ktrace::reset();
  }
  void TearDown() override {
    ktrace::disable();
    ktrace::reset();
  }

  // A traced hold of at least `nanos`: the hold histogram's bucket bound
  // is then >= nanos.
  static void timed_hold(simple_lock_data_t& l, std::uint64_t nanos) {
    ktrace::enable();
    simple_lock(&l);
    const std::uint64_t until = now_nanos() + nanos;
    while (now_nanos() < until) cpu_relax();
    simple_unlock(&l);
    ktrace::disable();
  }

  // The JSON object of the lock named `name` (names are unique per test;
  // a complex lock's interlock shares its name, so match the kind too).
  static mini_json::value json_entry(const std::string& name, const char* kind = "simple") {
    mini_json::value root;
    mini_json::parser p(lock_registry::instance().snapshot_json());
    EXPECT_TRUE(p.parse(root)) << p.error();
    for (const mini_json::value& e : root.arr) {
      if (e.find("name")->str == name && e.find("kind")->str == kind) return e;
    }
    ADD_FAILURE() << name << " missing from the JSON snapshot";
    return {};
  }
};

TEST_F(LockProfile, UntracedLocksAllocateNone) {
  simple_lock_data_t s("untraced-simple");
  for (int i = 0; i < 100; ++i) {
    simple_lock(&s);
    simple_unlock(&s);
  }
  lock_data_t c;
  lock_init(&c, true, "untraced-complex");
  lock_read(&c);
  lock_done(&c);
  lock_write(&c);
  lock_done(&c);
  EXPECT_EQ(s.profile.load(), nullptr);
  EXPECT_EQ(c.profile.load(), nullptr);
  for (const lock_stat_entry& e : {find_entry(&s), find_entry(&c, /*is_complex=*/true)}) {
    EXPECT_GE(e.acquisitions, 2u) << e.name;
    EXPECT_EQ(e.hold_samples, 0u) << e.name;
    EXPECT_EQ(e.wait_samples, 0u) << e.name;
  }
  for (const mini_json::value& e :
       {json_entry("untraced-simple"), json_entry("untraced-complex", "complex")}) {
    EXPECT_EQ(e.find("hold"), nullptr);  // never timed -> omitted
    EXPECT_EQ(e.find("wait"), nullptr);
  }
}

TEST_F(LockProfile, TracedSimpleHoldCreatesTheProfile) {
  simple_lock_data_t l("traced-simple-hold");
  timed_hold(l, 2000);
  ASSERT_NE(l.profile.load(), nullptr);
  const lock_stat_entry e = find_entry(&l);
  EXPECT_EQ(e.hold_samples, 1u);
  EXPECT_GE(e.hold_p50_nanos, 2000u);
  EXPECT_GE(e.hold_p99_nanos, e.hold_p50_nanos);
  EXPECT_EQ(e.wait_samples, 0u);
  const mini_json::value j = json_entry("traced-simple-hold");
  ASSERT_NE(j.find("hold"), nullptr);
  EXPECT_EQ(j.find("hold")->find("samples")->num, 1.0);
  EXPECT_EQ(j.find("wait"), nullptr);
}

TEST_F(LockProfile, TracedSimpleWaitIsRecorded) {
  simple_lock_data_t l("traced-simple-wait");
  std::atomic<bool> held{false}, release{false};
  ktrace::enable();
  auto holder = kthread::spawn("holder", [&] {
    simple_lock(&l);
    held.store(true);
    while (!release.load()) cpu_relax();
    simple_unlock(&l);
  });
  while (!held.load()) std::this_thread::yield();
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    release.store(true);
  });
  simple_lock(&l);  // contended, timed
  simple_unlock(&l);
  holder->join();
  releaser.join();
  ktrace::disable();
  const lock_stat_entry e = find_entry(&l);
  EXPECT_EQ(e.contended, 1u);
  EXPECT_EQ(e.wait_samples, 1u);
  EXPECT_GT(e.wait_p50_nanos, 0u);
  EXPECT_EQ(e.hold_samples, 2u);
}

TEST_F(LockProfile, TracedComplexHoldAndWaitCreateTheProfile) {
  lock_data_t l;
  lock_init(&l, /*can_sleep=*/true, "traced-complex");
  ktrace::enable();
  lock_read(&l);
  auto writer = kthread::spawn("writer", [&] {
    lock_write(&l);  // waits for the read hold: a timed write wait
    lock_done(&l);   // a timed write hold
  });
  EXPECT_TRUE(testing::wait_until_blocked(*writer, kprof::activity::lock_waiting));
  lock_done(&l);
  writer->join();
  ktrace::disable();
  ASSERT_NE(l.profile.load(), nullptr);
  const lock_stat_entry e = find_entry(&l, /*is_complex=*/true);
  EXPECT_EQ(e.hold_samples, 1u);
  EXPECT_EQ(e.wait_samples, 1u);
  EXPECT_GT(e.wait_p50_nanos, 0u);
  EXPECT_GE(e.wait_p99_nanos, e.wait_p50_nanos);
  const mini_json::value j = json_entry("traced-complex", "complex");
  EXPECT_NE(j.find("hold"), nullptr);
  EXPECT_NE(j.find("wait"), nullptr);
}

TEST_F(LockProfile, InitClearsTheSamples) {
  simple_lock_data_t s("init-simple");
  timed_hold(s, 0);
  lock_profile* const sp = s.profile.load();
  ASSERT_NE(sp, nullptr);
  simple_lock_init(&s, "init-simple");
  EXPECT_EQ(s.profile.load(), sp);  // kept, zeroed
  EXPECT_EQ(find_entry(&s).hold_samples, 0u);

  lock_data_t c;
  lock_init(&c, true, "init-complex");
  ktrace::enable();
  lock_write(&c);
  lock_done(&c);
  ktrace::disable();
  ASSERT_EQ(find_entry(&c, /*is_complex=*/true).hold_samples, 1u);
  lock_init(&c, true, "init-complex");
  EXPECT_EQ(find_entry(&c, /*is_complex=*/true).hold_samples, 0u);
  EXPECT_EQ(json_entry("init-complex", "complex").find("hold"), nullptr);
}

}  // namespace
}  // namespace mach
