// Tests for kernel objects: reference counting, deactivation, ref_ptr
// (paper sections 8 and 9). The refcount policy suites run against every
// policy in kern/refcount.h (locked / atomic / striped), and the
// kobject/ref_ptr lifecycle suites are parameterized over the same set so
// the object protocol is exercised through each count implementation.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "kern/object.h"
#include "kern/refcount.h"
#include "sync/complex_lock.h"
#include "tests/test_util.h"
#include "trace/ktrace.h"

namespace mach {
namespace {

// --- refcount policies ---

template <typename Policy>
class RefcountPolicyTest : public ::testing::Test {};

using Policies = ::testing::Types<locked_refcount, atomic_refcount, striped_refcount>;
TYPED_TEST_SUITE(RefcountPolicyTest, Policies);

TYPED_TEST(RefcountPolicyTest, StartsAtInitial) {
  TypeParam c(1);
  EXPECT_EQ(c.value(), 1);
}

TYPED_TEST(RefcountPolicyTest, AcquireReleaseBalance) {
  TypeParam c(1);
  c.acquire();
  c.acquire();
  EXPECT_EQ(c.value(), 3);
  EXPECT_FALSE(c.release());
  EXPECT_FALSE(c.release());
  EXPECT_TRUE(c.release());  // last one
}

TYPED_TEST(RefcountPolicyTest, OverReleaseIsFatal) {
  testing::panic_hook_scope hook;
  TypeParam c(1);
  EXPECT_TRUE(c.release());
  EXPECT_THROW((void)c.release(), panic_error);
}

TYPED_TEST(RefcountPolicyTest, CloneFromDeadIsFatal) {
  testing::panic_hook_scope hook;
  TypeParam c(1);
  EXPECT_TRUE(c.release());
  EXPECT_THROW(c.acquire(), panic_error);
}

TYPED_TEST(RefcountPolicyTest, ConcurrentCloneReleaseIsExact) {
  TypeParam c(1);
  constexpr int threads = 4;
  constexpr int iters = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < iters; ++i) {
        c.acquire();
        EXPECT_FALSE(c.release());
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), 1);
}

// The kobject default is the paper's "portion containing its reference
// count" in its lock-free form: E7 measures it ahead of the locked count at
// every thread count, and no other policy is chosen without a caller
// asking for it.
TEST(RefcountDefault, KobjectsDefaultToAtomic) {
  EXPECT_EQ(default_refcount_policy(), refcount_policy::atomic);
  struct plain : kobject {
    plain() : kobject("plain") {}
  };
  auto o = make_object<plain>();
  EXPECT_EQ(o->ref_policy(), refcount_policy::atomic);
}

// Footprint bounds. A simple lock is the paper's C integer plus a few
// words of statistics (its latency profile is allocated only once traced),
// and the count union is sized by the locked policy, not by the striped
// slots, so every kobject fits in a few cache lines.
TEST(Footprint, LocksAndObjectsStaySmall) {
  EXPECT_LE(sizeof(simple_lock_data_t), 64u);
  EXPECT_LE(sizeof(lock_data_t), 384u);
  EXPECT_LE(sizeof(krefcount), 80u);
  EXPECT_LE(sizeof(kobject), 256u);
  EXPECT_EQ(alignof(kobject), cacheline_size);
}

// Cross-thread release: references acquired on one thread (slot) and
// released on others must still produce exactly one release()==true —
// the striped reconcile path, not the per-slot fast path.
TEST(StripedRefcount, CrossThreadReleasesAreExact) {
  striped_refcount c(1);
  constexpr int extra = 64;
  for (int i = 0; i < extra; ++i) c.acquire();  // all on this thread's slot
  std::atomic<int> last_seen{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < extra / 4; ++i) {
        if (c.release()) last_seen.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(last_seen.load(), 0);  // the creation reference survives
  EXPECT_EQ(c.value(), 1);
  EXPECT_TRUE(c.release());
}

// Clone and release from two threads until a clone's cmpxchg meets the
// other thread's write and inflates the count. Bounded; on one CPU the
// interleaving comes from preemption, so it can take a few time slices.
bool inflate_by_contention(striped_refcount& c) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto body = [&](std::uint64_t seed) {
    xorshift64 rng(seed);
    while (!c.inflated() && std::chrono::steady_clock::now() < deadline) {
      c.acquire();
      testing::jitter(rng);
      c.release();
    }
  };
  std::thread a(body, 1), b(body, 2);
  a.join();
  b.join();
  return c.inflated();
}

// A count nobody contends stays one word: no slot array is allocated, by
// construction or by any number of single-threaded clones and releases.
TEST(StripedRefcount, UncontendedCountAllocatesNoSlots) {
  const std::size_t heap0 = mallinfo2().uordblks;
  striped_refcount c(1);
  for (int i = 0; i < 1000; ++i) {
    c.acquire();
    EXPECT_FALSE(c.release());
  }
  c.acquire();
  c.acquire();
  const std::size_t heap1 = mallinfo2().uordblks;
  EXPECT_LT(heap1 > heap0 ? heap1 - heap0 : 0, sizeof(lockref64) * striped_refcount::kSlots);
  EXPECT_FALSE(c.inflated());
  EXPECT_EQ(c.value(), 3);
  EXPECT_FALSE(c.release());
  EXPECT_FALSE(c.release());
  EXPECT_TRUE(c.release());
}

// As CrossThreadReleasesAreExact, on an inflated count: the releases that
// drain another way's slot go through the reconcile.
TEST(StripedRefcount, InflatedCrossThreadReleasesAreExact) {
  striped_refcount c(1);
  ASSERT_TRUE(inflate_by_contention(c));
  constexpr int extra = 64;
  for (int i = 0; i < extra; ++i) c.acquire();  // all on this thread's slot
  std::atomic<int> last_seen{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < extra / 4; ++i) {
        if (c.release()) last_seen.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(last_seen.load(), 0);  // the creation reference survives
  EXPECT_EQ(c.value(), 1);
  EXPECT_TRUE(c.inflated());
  EXPECT_TRUE(c.release());
  EXPECT_EQ(c.value(), 0);
}

// References taken before inflation (on the central word) are released
// from other threads while contended clones inflate the count: whichever
// path each release takes — central cmpxchg, slot cmpxchg or
// reconcile — exactly one of them is the last.
TEST(StripedRefcount, InflationRacingReleasesDestroysOnce) {
  constexpr int kRounds = 100;
  constexpr int kCloners = 2;
  constexpr int kReleasers = 2;
  constexpr int kRefsPerReleaser = 64;
  int inflated_rounds = 0;
  for (int round = 0; round < kRounds; ++round) {
    striped_refcount c(1);
    // One reference per cloner, the rest (and the creation one) split
    // between the releasers; every thread drops all of its own.
    const int refs = kCloners + kReleasers * kRefsPerReleaser;
    for (int i = 1; i < refs; ++i) c.acquire();
    std::atomic<int> lasts{0};
    std::latch start(kCloners + kReleasers);
    std::vector<std::thread> ts;
    for (int t = 0; t < kCloners; ++t) {
      ts.emplace_back([&, t] {
        xorshift64 rng(static_cast<std::uint64_t>(round * 4 + t + 1));
        testing::spread_and_wait(start, t);
        for (int i = 0; i < 20000 && !c.inflated(); ++i) {
          c.acquire();
          testing::jitter(rng);
          if (c.release()) lasts.fetch_add(1);
        }
        for (int i = 0; i < 16; ++i) {  // a few on the slots too
          c.acquire();
          if (c.release()) lasts.fetch_add(1);
        }
        if (c.release()) lasts.fetch_add(1);
      });
    }
    for (int t = 0; t < kReleasers; ++t) {
      ts.emplace_back([&, t] {
        xorshift64 rng(static_cast<std::uint64_t>(round * 4 + kCloners + t + 1));
        testing::spread_and_wait(start, kCloners + t);
        for (int i = 0; i < kRefsPerReleaser; ++i) {
          if (c.release()) lasts.fetch_add(1);
          testing::jitter(rng);
        }
      });
    }
    for (auto& t : ts) t.join();
    ASSERT_EQ(lasts.load(), 1) << "round " << round;
    EXPECT_EQ(c.value(), 0) << "round " << round;
    if (c.inflated()) ++inflated_rounds;
  }
  RecordProperty("inflated_rounds", inflated_rounds);
  if (testing::usable_cpus() >= 2) {
    EXPECT_GT(inflated_rounds, 0);
  }
}

// --- trace regression (the locked policy's ordering guarantee) ---
//
// locked_refcount::release once emitted its trace record AFTER dropping
// the lock, with an inexact arg2 (`last ? 0 : 1`): a delayed non-final
// release could then sequence its record after the destruction record,
// and intermediate counts were unobservable. The fix emits the exact
// remaining count while the lock is still held; these tests pin both the
// exact counts and the ordering down.

class refcount_trace_fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ktrace::disable();
    ktrace::reset();
  }
  void TearDown() override {
    ktrace::disable();
    ktrace::reset();
  }

  static std::vector<std::uint64_t> release_args_for(std::uint64_t addr) {
    std::vector<std::uint64_t> args;
    for (const auto& e : ktrace::collect().events) {
      if (e.rec.kind == trace_kind::ref_release && e.rec.arg1 == addr) {
        args.push_back(e.rec.arg2);
      }
    }
    return args;
  }
};

TEST_F(refcount_trace_fixture, LockedReleaseEmitsExactRemainingCount) {
  locked_refcount c(3);
  ktrace::enable();
  EXPECT_FALSE(c.release());
  EXPECT_FALSE(c.release());
  EXPECT_TRUE(c.release());
  ktrace::disable();
  // The pre-fix code emitted {1, 1, 0}: only last-ness, not the count.
  std::vector<std::uint64_t> expected{2, 1, 0};
  EXPECT_EQ(release_args_for(reinterpret_cast<std::uint64_t>(&c)), expected);
}

TEST_F(refcount_trace_fixture, LockedDestroyRecordIsSequencedLast) {
  constexpr int threads = 4;
  constexpr int per_thread = 50;
  locked_refcount c(threads * per_thread);  // main owns every reference
  ktrace::enable();
  std::atomic<int> lasts{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < per_thread; ++i) {
        if (c.release()) lasts.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  ktrace::disable();
  EXPECT_EQ(lasts.load(), 1);
  // collect() merges rings time-ordered; each record was stamped inside
  // the critical section, so record order must equal count order: a full
  // descending sequence ending in the (unique) destruction record.
  auto args = release_args_for(reinterpret_cast<std::uint64_t>(&c));
  ASSERT_EQ(args.size(), static_cast<std::size_t>(threads * per_thread));
  for (std::size_t i = 0; i < args.size(); ++i) {
    EXPECT_EQ(args[i], args.size() - 1 - i) << "record " << i << " out of order";
  }
  EXPECT_EQ(args.back(), 0u);
}

// Every policy, driven through kobject: destruction must emit exactly one
// ref_release record with arg2 == 0 (the "destroyed" marker), and no
// record for the object may follow it. (Records carry the count word's
// address, which kobject does not expose; the per-iteration reset makes
// this object's records the only ones in the rings.)
TEST_F(refcount_trace_fixture, EveryPolicyEmitsDestroyMarkerExactlyOnce) {
  for (refcount_policy p : kRefcountPolicies) {
    ktrace::reset();
    struct traced : kobject {
      explicit traced(refcount_policy pol) : kobject("traced", pol) {}
    };
    ktrace::enable();
    auto o = make_object<traced>(p);
    o->ref_clone();
    o->ref_release();
    o.reset();  // destroys
    ktrace::disable();
    std::vector<std::uint64_t> args;
    for (const auto& e : ktrace::collect().events) {
      if (e.rec.kind == trace_kind::ref_release) args.push_back(e.rec.arg2);
    }
    ASSERT_GE(args.size(), 2u) << refcount_policy_name(p);
    EXPECT_EQ(args.back(), 0u) << refcount_policy_name(p);
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
      EXPECT_NE(args[i], 0u) << refcount_policy_name(p) << " record " << i;
    }
  }
}

// --- kobject (parameterized over every count policy) ---

struct test_object : kobject {
  explicit test_object(refcount_policy p = default_refcount_policy(),
                       std::atomic<int>* destroyed = nullptr)
      : kobject("test-object", p), destroyed_flag(destroyed) {}
  ~test_object() override {
    if (destroyed_flag != nullptr) destroyed_flag->fetch_add(1);
  }
  std::atomic<int>* destroyed_flag;
  int payload = 42;
};

class KObjectPolicy : public ::testing::TestWithParam<refcount_policy> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, KObjectPolicy, ::testing::ValuesIn(kRefcountPolicies),
                         [](const ::testing::TestParamInfo<refcount_policy>& info) {
                           return refcount_policy_name(info.param);
                         });

TEST_P(KObjectPolicy, CreationReferenceAndDestruction) {
  std::atomic<int> destroyed{0};
  auto* o = new test_object(GetParam(), &destroyed);
  EXPECT_EQ(o->ref_policy(), GetParam());
  EXPECT_EQ(o->ref_count(), 1);
  o->ref_release();
  EXPECT_EQ(destroyed.load(), 1);
}

TEST_P(KObjectPolicy, CloneKeepsAlive) {
  std::atomic<int> destroyed{0};
  auto* o = new test_object(GetParam(), &destroyed);
  o->ref_clone();
  o->ref_release();
  EXPECT_EQ(destroyed.load(), 0);
  o->ref_release();
  EXPECT_EQ(destroyed.load(), 1);
}

TEST_P(KObjectPolicy, CloneLockedRequiresLock) {
  testing::panic_hook_scope hook;
  auto* o = new test_object(GetParam());
  EXPECT_THROW(o->ref_clone_locked(), panic_error);
  o->lock();
  o->ref_clone_locked();
  o->unlock();
  o->ref_release();
  o->ref_release();
}

TEST_P(KObjectPolicy, ReleaseWhileHoldingSimpleLockIsFatalOnlyForLast) {
  testing::panic_hook_scope hook;
  auto* o = new test_object(GetParam());
  o->ref_clone();
  simple_lock_data_t l;
  simple_lock_init(&l, "held");
  simple_lock(&l);
  // Non-final release is fine (no destruction → no blocking).
  EXPECT_NO_THROW(o->ref_release());
  // Final release would destroy (may block): fatal under a simple lock.
  EXPECT_THROW(o->ref_release(), panic_error);
  simple_unlock(&l);
  // The count already dropped before the panic fired; recreate cleanly.
  // (In production the panic halts the kernel, so no recovery is defined;
  // here we just stop touching the object.)
}

TEST_P(KObjectPolicy, DeactivationProtocol) {
  auto o = make_object<test_object>(GetParam());
  o->lock();
  EXPECT_TRUE(o->active());
  o->unlock();
  EXPECT_TRUE(o->deactivate());   // we did it
  EXPECT_FALSE(o->deactivate());  // idempotent: already dead
  o->lock();
  EXPECT_FALSE(o->active());
  o->unlock();
  // Data structure survives deactivation while references exist.
  EXPECT_EQ(o->payload, 42);
}

// Sticky references (section 8): a deactivated object's count keeps
// working — clones of still-held references succeed on every policy, and
// destruction happens only when the count reaches zero.
TEST_P(KObjectPolicy, StickyReferencesSurviveDeactivation) {
  std::atomic<int> destroyed{0};
  auto o = make_object<test_object>(GetParam(), &destroyed);
  EXPECT_TRUE(o->deactivate());
  o->ref_clone();  // clone of a held reference on a DEAD object: legal
  EXPECT_EQ(o->ref_count(), 2);
  o->ref_release();
  EXPECT_EQ(destroyed.load(), 0);
  o.reset();
  EXPECT_EQ(destroyed.load(), 1);
}

TEST_P(KObjectPolicy, ActiveCheckWithoutLockIsFatal) {
  testing::panic_hook_scope hook;
  auto o = make_object<test_object>(GetParam());
  EXPECT_THROW((void)o->active(), panic_error);
}

TEST_P(KObjectPolicy, LiveObjectCounter) {
  std::uint64_t base = kobject::live_objects();
  {
    auto a = make_object<test_object>(GetParam());
    auto b = make_object<test_object>(GetParam());
    EXPECT_EQ(kobject::live_objects(), base + 2);
  }
  EXPECT_EQ(kobject::live_objects(), base);
}

TEST_P(KObjectPolicy, OnLastReferenceHookRuns) {
  struct hooked : kobject {
    hooked(refcount_policy p, std::atomic<int>* c) : kobject("hooked", p), counter(c) {}
    void on_last_reference() override { counter->fetch_add(1); }
    std::atomic<int>* counter;
  };
  std::atomic<int> hook_runs{0};
  auto o = make_object<hooked>(GetParam(), &hook_runs);
  o.reset();
  EXPECT_EQ(hook_runs.load(), 1);
}

// --- ref_ptr (parameterized over every count policy) ---

class RefPtrPolicy : public ::testing::TestWithParam<refcount_policy> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, RefPtrPolicy, ::testing::ValuesIn(kRefcountPolicies),
                         [](const ::testing::TestParamInfo<refcount_policy>& info) {
                           return refcount_policy_name(info.param);
                         });

TEST_P(RefPtrPolicy, AdoptDoesNotClone) {
  auto* raw = new test_object(GetParam());
  auto p = ref_ptr<test_object>::adopt(raw);
  EXPECT_EQ(p->ref_count(), 1);
}

TEST_P(RefPtrPolicy, CopyClones) {
  std::atomic<int> destroyed{0};
  {
    auto a = make_object<test_object>(GetParam(), &destroyed);
    {
      ref_ptr<test_object> b = a;
      EXPECT_EQ(a->ref_count(), 2);
    }
    EXPECT_EQ(a->ref_count(), 1);
  }
  EXPECT_EQ(destroyed.load(), 1);
}

TEST_P(RefPtrPolicy, MoveSteals) {
  auto a = make_object<test_object>(GetParam());
  test_object* raw = a.get();
  ref_ptr<test_object> b = std::move(a);
  EXPECT_EQ(b.get(), raw);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): testing moved-from state
  EXPECT_EQ(b->ref_count(), 1);
}

TEST_P(RefPtrPolicy, AssignmentReleasesOld) {
  std::atomic<int> d1{0}, d2{0};
  auto a = make_object<test_object>(GetParam(), &d1);
  auto b = make_object<test_object>(GetParam(), &d2);
  a = b;
  EXPECT_EQ(d1.load(), 1);
  EXPECT_EQ(b->ref_count(), 2);
}

TEST_P(RefPtrPolicy, SelfAssignmentSafe) {
  auto a = make_object<test_object>(GetParam());
  auto& alias = a;
  a = alias;
  EXPECT_TRUE(a);
  EXPECT_EQ(a->ref_count(), 1);
}

TEST_P(RefPtrPolicy, CloneFromRaw) {
  auto a = make_object<test_object>(GetParam());
  auto b = ref_ptr<test_object>::clone_from(a.get());
  EXPECT_EQ(a->ref_count(), 2);
}

TEST_P(RefPtrPolicy, ReleaseToCallerHandsOffReference) {
  std::atomic<int> destroyed{0};
  auto a = make_object<test_object>(GetParam(), &destroyed);
  test_object* raw = a.release_to_caller();
  EXPECT_FALSE(a);
  EXPECT_EQ(destroyed.load(), 0);
  raw->ref_release();
  EXPECT_EQ(destroyed.load(), 1);
}

TEST_P(RefPtrPolicy, ConcurrentCopiesAreSafe) {
  auto a = make_object<test_object>(GetParam());
  constexpr int threads = 4;
  constexpr int iters = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < iters; ++i) {
        ref_ptr<test_object> local = a;  // clone
        EXPECT_EQ(local->payload, 42);
      }  // release
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(a->ref_count(), 1);
}

}  // namespace
}  // namespace mach
