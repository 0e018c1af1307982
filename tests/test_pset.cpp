// Tests for processor sets: the processor-allocation subsystem built on
// the locking/reference primitives, including the section 5 conventions
// (type ordering, address ordering for same-type locks).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "kern/pset.h"
#include "sched/kthread.h"
#include "tests/test_util.h"

namespace mach {
namespace {

TEST(ProcessorSet, AssignRemoveProcessors) {
  auto ps = make_object<processor_set>();
  EXPECT_EQ(ps->assign_processor(0), KERN_SUCCESS);
  EXPECT_EQ(ps->assign_processor(1), KERN_SUCCESS);
  EXPECT_EQ(ps->assign_processor(0), KERN_FAILURE);  // duplicate
  EXPECT_EQ(ps->processor_count(), 2u);
  EXPECT_EQ(ps->remove_processor(0), KERN_SUCCESS);
  EXPECT_EQ(ps->remove_processor(0), KERN_FAILURE);
  EXPECT_EQ(ps->processors(), std::vector<int>{1});
}

TEST(ProcessorSet, AssignTaskHoldsReference) {
  auto ps = make_object<processor_set>();
  auto t = make_object<task>();
  EXPECT_EQ(ps->assign_task(t), KERN_SUCCESS);
  EXPECT_EQ(t->ref_count(), 2);  // ours + the set's
  EXPECT_TRUE(ps->contains_task(t.get()));
  EXPECT_EQ(ps->assign_task(t), KERN_FAILURE);  // already here
  EXPECT_EQ(ps->remove_task(t.get()), KERN_SUCCESS);
  EXPECT_EQ(t->ref_count(), 1);
  EXPECT_EQ(ps->remove_task(t.get()), KERN_FAILURE);
}

TEST(ProcessorSet, DeactivatedSetRejectsAssignment) {
  auto ps = make_object<processor_set>();
  ps->deactivate();
  EXPECT_EQ(ps->assign_processor(0), KERN_TERMINATED);
  EXPECT_EQ(ps->assign_task(make_object<task>()), KERN_TERMINATED);
}

TEST(ProcessorSet, MoveTaskBetweenSets) {
  auto a = make_object<processor_set>("pset-a");
  auto b = make_object<processor_set>("pset-b");
  auto t = make_object<task>();
  ASSERT_EQ(a->assign_task(t), KERN_SUCCESS);
  EXPECT_EQ(processor_set::move_task(*a, *b, t.get()), KERN_SUCCESS);
  EXPECT_FALSE(a->contains_task(t.get()));
  EXPECT_TRUE(b->contains_task(t.get()));
  EXPECT_EQ(t->ref_count(), 2);  // the reference moved, not duplicated
  // Moving a task that is not in `from` fails.
  EXPECT_EQ(processor_set::move_task(*a, *b, t.get()), KERN_FAILURE);
}

TEST(ProcessorSet, MoveToDeadSetFailsAndKeepsTask) {
  auto a = make_object<processor_set>("pset-a");
  auto b = make_object<processor_set>("pset-b");
  auto t = make_object<task>();
  a->assign_task(t);
  b->deactivate();
  EXPECT_EQ(processor_set::move_task(*a, *b, t.get()), KERN_TERMINATED);
  EXPECT_TRUE(a->contains_task(t.get()));
}

TEST(ProcessorSet, MoveTaskRespectsAddressOrderConvention) {
  // With the validator armed, the address-ordered double acquisition in
  // move_task must be clean in both call directions.
  lock_order_validator::instance().set_enabled(true);
  lock_order_validator::instance().take_violations();
  auto a = make_object<processor_set>("pset-a");
  auto b = make_object<processor_set>("pset-b");
  auto t = make_object<task>();
  a->assign_task(t);
  EXPECT_EQ(processor_set::move_task(*a, *b, t.get()), KERN_SUCCESS);
  EXPECT_EQ(processor_set::move_task(*b, *a, t.get()), KERN_SUCCESS);
  EXPECT_TRUE(lock_order_validator::instance().take_violations().empty());
  lock_order_validator::instance().set_enabled(false);
}

TEST(ProcessorSet, ShutdownDropsEverything) {
  auto ps = make_object<processor_set>();
  auto t = make_object<task>();
  ps->assign_processor(3);
  ps->assign_task(t);
  ps->deactivate();
  ps->shutdown_body();
  EXPECT_EQ(ps->task_count(), 0u);
  EXPECT_EQ(ps->processor_count(), 0u);
  EXPECT_EQ(t->ref_count(), 1);  // the set's reference was released
}

// A pset's striped count keeps its slots out of line: a clone/release
// storm from more threads than slots keeps the count exact, and the last
// release destroys the set exactly once.
TEST(ProcessorSet, StripedCountSurvivesACloneReleaseStorm) {
  const std::uint64_t live_before = kobject::live_objects();
  auto ps = make_object<processor_set>("pset-storm");
  ASSERT_EQ(ps->ref_policy(), refcount_policy::striped);
  constexpr int threads = 12;
  constexpr int iters = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<ref_ptr<processor_set>> held;
      for (int i = 0; i < iters; ++i) {
        held.push_back(ps);  // clone
        if (held.size() > static_cast<std::size_t>(t % 4)) held.clear();  // release
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(ps->ref_count(), 1);
  EXPECT_EQ(kobject::live_objects(), live_before + 1);
  ps.reset();  // the last reference
  EXPECT_EQ(kobject::live_objects(), live_before);
}

// Property: a storm of concurrent moves between two sets never loses or
// duplicates a task.
class PsetMoveStormTest : public ::testing::TestWithParam<int> {};

TEST_P(PsetMoveStormTest, TasksConserved) {
  const int movers = GetParam();
  auto a = make_object<processor_set>("pset-a");
  auto b = make_object<processor_set>("pset-b");
  constexpr int num_tasks = 8;
  std::vector<ref_ptr<task>> tasks;
  for (int i = 0; i < num_tasks; ++i) {
    tasks.push_back(make_object<task>());
    ASSERT_EQ(a->assign_task(tasks.back()), KERN_SUCCESS);
  }
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<kthread>> threads;
  for (int m = 0; m < movers; ++m) {
    threads.push_back(kthread::spawn("mover" + std::to_string(m), [&, m] {
      int i = m;
      while (!stop.load()) {
        task* t = tasks[static_cast<std::size_t>(i) % num_tasks].get();
        // Try both directions; exactly one can succeed per location.
        if (processor_set::move_task(*a, *b, t) != KERN_SUCCESS) {
          processor_set::move_task(*b, *a, t);
        }
        ++i;
      }
    }));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& t : threads) t->join();
  // Conservation: every task is in exactly one set.
  EXPECT_EQ(a->task_count() + b->task_count(), static_cast<std::size_t>(num_tasks));
  for (auto& t : tasks) {
    int homes = (a->contains_task(t.get()) ? 1 : 0) + (b->contains_task(t.get()) ? 1 : 0);
    EXPECT_EQ(homes, 1);
    EXPECT_EQ(t->ref_count(), 2);  // ours + exactly one set's
  }
}

INSTANTIATE_TEST_SUITE_P(Movers, PsetMoveStormTest, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace mach
