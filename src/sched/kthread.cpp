#include "sched/kthread.h"

#include <future>

#include "base/panic.h"
#include "metrics/kmetrics.h"
#include "prof/kprof.h"
#include "sync/deadlock.h"
#include "trace/ktrace.h"

namespace mach {
namespace {

thread_local kthread* tl_current = nullptr;

}  // namespace

kthread::kthread(std::string name) : name_(std::move(name)) {}

kthread::~kthread() {
  MACH_ASSERT(!host_.joinable(), "kthread '" + name_ + "' destroyed without join");
  // A waker may still be inside wait_cv_.notify_all() (sched/event.cpp).
  while (notifiers_.load(std::memory_order_acquire) != 0) std::this_thread::yield();
  // An adopted wrapper dies with its host thread.
  if (adopted_) runnable_.fetch_sub(1, std::memory_order_relaxed);
  if (tl_current == this) tl_current = nullptr;
}

kthread& kthread::current() {
  if (tl_current != nullptr) return *tl_current;
  // Adopt the host thread (e.g. main). The adopted wrapper lives for the
  // host thread's lifetime.
  thread_local std::unique_ptr<kthread> adopted;
  adopted.reset(new kthread("adopted"));
  adopted->token_ = current_thread_token();
  adopted->adopted_ = true;
  runnable_.fetch_add(1, std::memory_order_relaxed);
  tl_current = adopted.get();
  kprof::publish(kprof::activity::running, nullptr);  // claim a sampler slot
  return *tl_current;
}

std::unique_ptr<kthread> kthread::spawn(std::string name, std::function<void()> fn) {
  std::unique_ptr<kthread> t(new kthread(std::move(name)));
  kthread* raw = t.get();
  std::promise<void> started;
  std::future<void> started_f = started.get_future();
  raw->host_ = std::thread([raw, fn = std::move(fn), &started]() mutable {
    raw->token_ = current_thread_token();
    tl_current = raw;
    wait_graph::instance().name_thread(raw->token_, raw->name_);
    ktrace::set_thread_name(raw->name_);  // label this thread's trace ring
    kprof::publish(kprof::activity::running, nullptr);  // claim a sampler slot
    kmet().sched_threads_live.add(1);
    runnable_.fetch_add(1, std::memory_order_relaxed);
    started.set_value();
    fn();
    runnable_.fetch_sub(1, std::memory_order_relaxed);
    kmet().sched_threads_live.sub(1);
    tl_current = nullptr;
  });
  started_f.wait();  // token_ is valid once we return
  return t;
}

void kthread::join() {
  MACH_ASSERT(host_.joinable(), "join of non-spawned or already-joined kthread '" + name_ + "'");
  host_.join();
}

}  // namespace mach
