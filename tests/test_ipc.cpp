// Tests for ports (messaging + translation) and IPC spaces.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ipc/port.h"
#include "ipc/space.h"
#include "ipc/stubs.h"
#include "metrics/kmetrics.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "tests/test_util.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

TEST(Port, SendReceiveRoundTrip) {
  auto p = make_object<port>();
  message m(7, {1, 2, 3});
  EXPECT_EQ(p->send(std::move(m)), KERN_SUCCESS);
  EXPECT_EQ(p->queued(), 1u);
  auto r = p->receive(100ms);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->op, 7u);
  EXPECT_EQ(r->data, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(p->queued(), 0u);
}

TEST(Port, MessagesAreFifo) {
  auto p = make_object<port>();
  for (std::uint32_t i = 0; i < 5; ++i) p->send(message(i));
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto r = p->try_receive();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->op, i);
  }
}

TEST(Port, TryReceiveEmptyIsNull) {
  auto p = make_object<port>();
  EXPECT_FALSE(p->try_receive().has_value());
}

TEST(Port, ReceiveTimesOut) {
  auto p = make_object<port>();
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(p->receive(30ms).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, 25ms);
}

TEST(Port, ReceiverBlocksUntilSend) {
  auto p = make_object<port>();
  std::atomic<bool> got{false};
  auto rx = kthread::spawn("rx", [&] {
    auto r = p->receive(5s);
    got.store(r.has_value() && r->op == 9);
  });
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(got.load());
  p->send(message(9));
  rx->join();
  EXPECT_TRUE(got.load());
}

TEST(Port, OneReceiverPerMessage) {
  auto p = make_object<port>();
  constexpr int n = 200;
  std::atomic<int> received{0};
  std::vector<std::unique_ptr<kthread>> rxs;
  for (int i = 0; i < 3; ++i) {
    rxs.push_back(kthread::spawn("rx" + std::to_string(i), [&] {
      while (received.load() < n) {
        auto r = p->receive(50ms);
        if (r.has_value()) received.fetch_add(1);
      }
    }));
  }
  for (int i = 0; i < n; ++i) p->send(message(static_cast<std::uint32_t>(i)));
  for (auto& r : rxs) r->join();
  EXPECT_EQ(received.load(), n);  // every message delivered exactly once
}

TEST(Port, QueueLimitRejectsWithNoSpace) {
  auto p = make_object<port>();
  p->set_queue_limit(2);
  EXPECT_EQ(p->send(message(1)), KERN_SUCCESS);
  EXPECT_EQ(p->send(message(2)), KERN_SUCCESS);
  EXPECT_EQ(p->send(message(3)), KERN_NO_SPACE);
  EXPECT_EQ(p->sends_failed(), 1u);
}

TEST(Port, SendToDeadPortFails) {
  auto p = make_object<port>();
  p->destroy_port();
  EXPECT_EQ(p->send(message(1)), KERN_TERMINATED);
}

TEST(Port, DestroyWakesBlockedReceiver) {
  auto p = make_object<port>();
  std::atomic<bool> woke_empty{false};
  auto rx = kthread::spawn("rx", [&] {
    auto r = p->receive(5s);
    woke_empty.store(!r.has_value());
  });
  std::this_thread::sleep_for(10ms);
  p->destroy_port();
  rx->join();
  EXPECT_TRUE(woke_empty.load());
}

TEST(Port, DestroyDropsQueuedMessagesAndTheirRefs) {
  auto reply = make_object<port>("reply");
  auto p = make_object<port>();
  message m(1);
  m.reply_to = reply;
  p->send(std::move(m));
  EXPECT_EQ(reply->ref_count(), 2);  // ours + queued message's
  p->destroy_port();
  EXPECT_EQ(reply->ref_count(), 1);  // message's right released
}

TEST(Port, MessageCarriesReplyPortReference) {
  auto reply = make_object<port>("reply");
  auto p = make_object<port>();
  message m(1);
  m.reply_to = reply;
  p->send(std::move(m));
  auto r = p->receive(100ms);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->reply_to.get(), reply.get());
  EXPECT_EQ(reply->ref_count(), 2);
  r.reset();  // releases the carried right
  EXPECT_EQ(reply->ref_count(), 1);
}

TEST(Port, TranslationClonesReference) {
  auto obj = make_object<counter_object>();
  auto p = make_object<port>();
  p->set_translation(obj);  // port takes its own reference
  EXPECT_EQ(obj->ref_count(), 2);
  {
    auto t = p->translate();
    ASSERT_TRUE(t);
    EXPECT_EQ(t.get(), obj.get());
    EXPECT_EQ(obj->ref_count(), 3);
  }
  EXPECT_EQ(obj->ref_count(), 2);
}

TEST(Port, ClearTranslationDisablesAndReturnsRef) {
  auto obj = make_object<counter_object>();
  auto p = make_object<port>();
  p->set_translation(obj);
  auto removed = p->clear_translation();
  EXPECT_EQ(removed.get(), obj.get());
  EXPECT_FALSE(p->translate());
  EXPECT_FALSE(p->has_translation());
}

TEST(Port, TranslateOnDeadPortFails) {
  auto obj = make_object<counter_object>();
  auto p = make_object<port>();
  p->set_translation(obj);
  p->destroy_port();
  EXPECT_FALSE(p->translate());
}

TEST(Port, ObjectSurvivesPortDeath) {
  // "it is possible for an object to be terminated, but its data structure
  // to remain while pointers to it exist."
  auto obj = make_object<counter_object>();
  {
    auto p = make_object<port>();
    p->set_translation(obj);
    p->destroy_port();
  }  // port's data structure dies with its last reference
  std::uint64_t v = 0;
  EXPECT_EQ(obj->read(v), KERN_SUCCESS);  // object untouched
}

// --- send wakes a receiver only when one is blocked ---

std::uint64_t wakeup_calls() {
  return kmet().sched_wakeups.value() + kmet().sched_wakeups_no_waiter.value();
}

TEST(PortWakeup, SendWithNoReceiverMakesNoWakeupCall) {
  testing::kmon_scope metrics;
  auto p = make_object<port>();
  const std::uint64_t before = wakeup_calls();
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(p->send(message(i)), KERN_SUCCESS);
  EXPECT_EQ(wakeup_calls(), before);
  EXPECT_EQ(p->queued(), 10u);
}

// Block a receiver on `p`, send once it is inside thread_block, and check
// it gets the message.
void expect_blocked_receiver_woken(port& p) {
  std::atomic<bool> got{false};
  auto rx = kthread::spawn("rx", [&] { got.store(p.receive(10s).has_value()); });
  EXPECT_TRUE(testing::wait_until_blocked(*rx));
  const std::uint64_t woken = kmet().sched_wakeups.value();
  EXPECT_EQ(p.send(message(1)), KERN_SUCCESS);
  rx->join();
  EXPECT_TRUE(got.load());
  EXPECT_EQ(kmet().sched_wakeups.value() - woken, 1u);
}

TEST(PortWakeup, BlockedReceiverIsWoken) {
  testing::kmon_scope metrics;
  auto p = make_object<port>();
  expect_blocked_receiver_woken(*p);
}

TEST(PortWakeup, ReceiverAfterATimedOutReceiveIsWoken) {
  testing::kmon_scope metrics;
  auto p = make_object<port>();
  EXPECT_FALSE(p->receive(1ms).has_value());
  // The timed-out receiver no longer counts: a send makes no wakeup call...
  const std::uint64_t before = wakeup_calls();
  EXPECT_EQ(p->send(message(0)), KERN_SUCCESS);
  EXPECT_EQ(wakeup_calls(), before);
  ASSERT_TRUE(p->try_receive().has_value());
  // ...and the next blocked receiver still counts.
  expect_blocked_receiver_woken(*p);
}

// --- receive polls the port's depth word before it waits ---

void busy_wait(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) cpu_relax();
}

// A kthread that makes one receive(5s) per round on the port the test
// hands it. It starts on a CPU of its own (spread_and_wait): a thread
// spawned from the test thread can stay on its CPU, and a receiver
// polling there would hold off the send it waits for.
class round_receiver {
 public:
  round_receiver() : rx_(kthread::spawn("poll-rx", [this] {
                       testing::spread_and_wait(spread_, 1);
                       loop();
                     })) {
    testing::spread_and_wait(spread_, 0);
  }
  ~round_receiver() { stop(); }

  // Hand the receiver `p`; returns once it is about to call p.receive.
  void begin(port& p) {
    target_.store(&p);
    while (target_.load() != nullptr) std::this_thread::yield();
  }
  // Wait for that receive to return; whether it got a message.
  bool end() {
    while (!returned_.exchange(false)) std::this_thread::yield();
    return got_.load();
  }
  kthread& thread() { return *rx_; }
  // Join the receiver; its spin budget when it left.
  std::chrono::nanoseconds stop() {
    if (!stopped_) {
      stop_.store(true);
      rx_->join();
      stopped_ = true;
    }
    return budget_;
  }

 private:
  void loop() {
    for (;;) {
      port* p = nullptr;
      while ((p = target_.load()) == nullptr) {
        if (stop_.load()) {
          budget_ = kthread::current().spin_budget();
          return;
        }
        std::this_thread::yield();
      }
      target_.store(nullptr);
      got_.store(p->receive(5s).has_value());
      returned_.store(true);
    }
  }

  std::latch spread_{2};
  std::atomic<port*> target_{nullptr};
  std::atomic<bool> got_{false};
  std::atomic<bool> returned_{false};
  std::atomic<bool> stop_{false};
  bool stopped_ = false;
  std::chrono::nanoseconds budget_{};
  std::unique_ptr<kthread> rx_;
};

// Grow the receiver's spin budget: parked waits that a send ends 50 us
// after the receiver blocks end within the cap, so each doubles the
// budget until the spin in thread_block outlasts the delay (80 us with
// the gate open; the cap with it shut, since then nothing spins).
void warm_up(round_receiver& rx, port& p) {
  for (int i = 0; i < 6; ++i) {
    rx.begin(p);
    EXPECT_TRUE(testing::wait_until_blocked(rx.thread()));
    busy_wait(50us);
    EXPECT_EQ(p.send(message(0)), KERN_SUCCESS);
    EXPECT_TRUE(rx.end());
  }
}

// Rounds in which the test sends 20 us after the receiver calls receive,
// well inside its warmed budget. Returns how many sends made a wakeup
// call; every message must arrive.
int sends_that_woke(round_receiver& rx, port& p, int rounds) {
  int woke = 0;
  for (int i = 0; i < rounds; ++i) {
    rx.begin(p);
    busy_wait(20us);
    const std::uint64_t before = wakeup_calls();
    EXPECT_EQ(p.send(message(static_cast<std::uint32_t>(i))), KERN_SUCCESS);
    if (wakeup_calls() != before) ++woke;
    EXPECT_TRUE(rx.end()) << "round " << i;
  }
  return woke;
}

std::string gate_state(std::chrono::nanoseconds budget) {
  const spin_gate_view g = spin_gate();
  return "receiver spin budget " + std::to_string(budget.count()) + " ns, runnable kthreads " +
         std::to_string(g.runnable) + ", usable CPUs " + std::to_string(g.usable_cpus);
}

// A receiver still polling the depth word takes the message itself: the
// send finds no asserted wait and makes no wakeup call (the sender skips
// the bucket lock, the waiter scan and the waiter's mutex). A receiver
// that asserts its wait as soon as it finds the queue empty makes every
// one of these sends call thread_wakeup_one. A loaded host can still
// delay a send past the poll, so half the rounds must be wakeup-free; an
// idle 4-CPU host has all of them.
TEST(PortWakeup, PollingReceiverTakesASendWithoutAWakeup) {
  // The test thread and the receiver are runnable; the gate needs a third
  // CPU left idle.
  if (testing::usable_cpus() < 3) GTEST_SKIP() << "the spin gate needs at least 3 usable CPUs here";
  testing::kmon_scope metrics;
  auto p = make_object<port>();
  round_receiver rx;
  warm_up(rx, *p);
  constexpr int rounds = 20;
  const int woke = sends_that_woke(rx, *p, rounds);
  const std::chrono::nanoseconds budget = rx.stop();
  EXPECT_LE(woke, rounds / 2) << woke << " " << gate_state(budget);
}

// With the spin gate shut (as many runnable kthreads as usable CPUs, as
// in EventSpin.RunnableKthreadsCloseTheGate), receive does not poll even
// with a warm budget: it asserts its wait at once and parks, and the send
// wakes it.
TEST(PortWakeup, ClosedGateReceiverParks) {
  testing::kmon_scope metrics;
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<kthread>> busy;
  for (int i = 0; i < testing::usable_cpus(); ++i) {
    busy.push_back(kthread::spawn("busy" + std::to_string(i), [&] {
      while (!stop.load()) std::this_thread::sleep_for(200us);
    }));
  }
  auto p = make_object<port>();
  round_receiver rx;
  warm_up(rx, *p);
  constexpr int rounds = 20;
  const std::uint64_t blocks = kmet().sched_blocks.value();
  const int woke = sends_that_woke(rx, *p, rounds);
  const std::uint64_t parked = kmet().sched_blocks.value() - blocks;
  const std::chrono::nanoseconds budget = rx.stop();
  stop.store(true);
  for (auto& t : busy) t->join();
  EXPECT_GE(woke, rounds / 2) << gate_state(budget);
  EXPECT_GE(parked, static_cast<std::uint64_t>(woke)) << gate_state(budget);
}

TEST(Port, TryReceiveOnEmptyPortTakesNoLock) {
  auto p = make_object<port>();
  const std::uint64_t before = p->lock_addr()->stat_acquisitions;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(p->try_receive().has_value());
  EXPECT_EQ(p->lock_addr()->stat_acquisitions - before, 0u);
  // A message makes the word non-zero: the next call locks and takes it.
  EXPECT_EQ(p->send(message(3)), KERN_SUCCESS);
  EXPECT_TRUE(p->try_receive().has_value());
}

// --- the port-receive / teardown races fixed in this PR ---

TEST(PortRace, TimedOutReceiverRechecksQueueUnderPortLock) {
  // Regression test for the receive-timeout race: a bounded receive whose
  // thread_block_timeout reported timed_out used to return nullopt without
  // re-taking the port lock, so a send landing at the timeout boundary
  // (its thread_wakeup_one finding no waiter — the receiver had already
  // been dequeued) was stranded until some LATER receive, which on an RPC
  // reply port means the next call collects the previous call's reply.
  //
  // The fixed path must re-lock and drain before giving up. That gives a
  // deterministic pre/post-fix discriminator: force the timeout by hand
  // (clear_wait with timed_out) while the test HOLDS the port lock — a
  // fixed receiver cannot return until the lock is released, the broken
  // one returns immediately.
  auto p = make_object<port>();
  std::atomic<bool> returned{false};
  std::atomic<bool> got{false};
  testing::kmon_scope metrics;
  const std::uint64_t blocked_before = kmet().sched_blocks.value();
  auto rx = kthread::spawn("rx", [&] {
    auto r = p->receive(10s);  // long bound: only clear_wait can "time it out"
    got.store(r.has_value());
    returned.store(true);
  });
  while (kmet().sched_blocks.value() == blocked_before) std::this_thread::yield();
  std::this_thread::sleep_for(20ms);  // let the receiver reach its cv wait
  p->lock();
  clear_wait(*rx, wait_result::timed_out);  // fire the timeout by hand
  std::this_thread::sleep_for(50ms);
  // Pre-fix this is already true: the receiver returned without ever
  // touching the port lock we hold.
  EXPECT_FALSE(returned.load());
  p->unlock();
  // Race the rescue drain against a boundary send: whichever order the
  // scheduler picks, the message must not be lost.
  EXPECT_EQ(p->send(message(42)), KERN_SUCCESS);
  rx->join();
  EXPECT_TRUE(returned.load());
  EXPECT_TRUE(got.load() || p->queued() == 1) << "boundary message was lost";
}

TEST(PortRace, DestroyDeactivatesAndDrainsInOneCriticalSection) {
  // Regression test for the destroy_port race: teardown used to drain the
  // queue under one lock hold and only then call deactivate(), which took
  // the lock again — two separate critical sections. A send landing
  // between them passes the active() check and enqueues into an
  // already-drained, dying port, stranding the message (and any carried
  // port right) in the dead queue forever. The unprotected gap is a few
  // instructions wide, far too narrow to hit reliably from another thread
  // (especially on small hosts), so pin the fix structurally instead:
  // "every send that returned KERN_SUCCESS is in the queue the drain
  // collects" holds exactly when deactivation and drain share ONE
  // critical section — i.e. teardown acquires the port lock exactly once.
  // The pre-fix code acquires it twice and fails this assertion.
  auto p = make_object<port>();
  EXPECT_EQ(p->send(message(7)), KERN_SUCCESS);  // non-empty: the drain is real
  const std::uint64_t before = p->lock_addr()->stat_acquisitions;
  p->destroy_port();
  const std::uint64_t taken = p->lock_addr()->stat_acquisitions - before;
  EXPECT_EQ(taken, 1u)
      << "destroy_port took the port lock " << taken
      << " times; deactivate+drain must happen under a single hold, or a "
         "concurrent send can enqueue into the drained, dying queue";
  EXPECT_EQ(p->queued(), 0u);
}

TEST(PortRace, DestroyVsConcurrentSendNeverStrandsMessages) {
  // End-to-end shape of the same property under real concurrency: senders
  // hammer a port while it is torn down. Whatever interleaving the
  // scheduler picks, once destroy_port returns no message may remain
  // queued and every carried reply right must be released. (The
  // deterministic pin for the pre-fix two-critical-section bug is the
  // test above; this one guards the full teardown path, and gives TSan
  // a real destroy-vs-send race to chew on.)
  using namespace std::chrono_literals;
  constexpr int iters = 50;
  int stranded = 0;
  std::uint64_t leaked = 0;
  for (int i = 0; i < iters; ++i) {
    auto p = make_object<port>();
    auto carried = make_object<port>("carried");
    // Park a hammering sender AND the destroyer on the port lock we hold,
    // then release it: both contend for every handoff inside the destroy
    // sequence instead of depending on scheduler luck to collide.
    p->lock();
    auto tx = kthread::spawn("tx", [&] {
      for (int k = 0; k < 20000; ++k) {
        message m(static_cast<std::uint32_t>(k));
        m.reply_to = carried;
        const kern_return_t kr = p->send(std::move(m));
        if (kr == KERN_TERMINATED) break;
      }
    });
    auto destroyer = kthread::spawn("destroyer", [&] { p->destroy_port(); });
    std::this_thread::sleep_for(1ms);  // both threads now spin on the lock
    p->unlock();
    tx->join();
    destroyer->join();
    stranded += p->queued() != 0 ? 1 : 0;
    leaked += static_cast<std::uint64_t>(carried->ref_count()) - 1;
  }
  EXPECT_EQ(stranded, 0) << "messages stranded in dead ports";
  EXPECT_EQ(leaked, 0u) << "carried rights leaked through teardown";
}

// destroy_port marks the depth word dead, so a receiver polling it leaves
// at once, not when its budget runs out, and does not wait on a dead port.
TEST(PortRace, DestroyEndsAPollingReceiver) {
  round_receiver rx;
  {
    auto warm = make_object<port>("warm");
    warm_up(rx, *warm);
  }
  for (int i = 0; i < 10; ++i) {
    auto p = make_object<port>();
    rx.begin(*p);
    busy_wait(20us);
    const auto start = std::chrono::steady_clock::now();
    p->destroy_port();
    EXPECT_FALSE(rx.end()) << "round " << i;
    EXPECT_LT(std::chrono::steady_clock::now() - start, 50ms) << "round " << i;
  }
}

// --- IPC space ---

TEST(IpcSpace, InsertLookupRemove) {
  ipc_space s;
  auto p = make_object<port>();
  port_name_t name = s.insert(p);
  EXPECT_EQ(p->ref_count(), 2);  // ours + table's
  auto found = s.lookup(name);
  EXPECT_EQ(found.get(), p.get());
  EXPECT_EQ(p->ref_count(), 3);
  found.reset();
  EXPECT_TRUE(s.remove(name));
  EXPECT_EQ(p->ref_count(), 1);
  EXPECT_FALSE(s.remove(name));
  EXPECT_FALSE(s.lookup(name));
}

TEST(IpcSpace, NamesAreUnique) {
  ipc_space s;
  auto a = s.insert(make_object<port>());
  auto b = s.insert(make_object<port>());
  EXPECT_NE(a, b);
  EXPECT_EQ(s.size(), 2u);
}

TEST(IpcSpace, LookupOfUnknownNameIsNull) {
  ipc_space s;
  EXPECT_FALSE(s.lookup(12345));
}

TEST(IpcSpace, TableHoldsPortAlive) {
  ipc_space s;
  port* raw = nullptr;
  port_name_t name;
  {
    auto p = make_object<port>();
    raw = p.get();
    name = s.insert(std::move(p));
  }
  // Only the table's reference remains; the port must still be usable.
  auto found = s.lookup(name);
  ASSERT_TRUE(found);
  EXPECT_EQ(found.get(), raw);
  EXPECT_EQ(found->send(message(1)), KERN_SUCCESS);
}

TEST(IpcSpace, SharedExternalLockConfiguration) {
  simple_lock_data_t external;
  simple_lock_init(&external, "shared");
  ipc_space s(&external);
  auto name = s.insert(make_object<port>());
  EXPECT_TRUE(s.lookup(name));
  // While we hold the external lock, a concurrent lookup must block —
  // probe via a thread that signals completion.
  simple_lock(&external);
  std::atomic<bool> done{false};
  auto t = kthread::spawn("lookup", [&] {
    s.lookup(name);
    done.store(true);
  });
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(done.load());
  simple_unlock(&external);
  t->join();
  EXPECT_TRUE(done.load());
}

}  // namespace
}  // namespace mach
