#include "ipc/port.h"

#include "metrics/kmetrics.h"
#include "sched/event.h"
#include "trace/kspan.h"

namespace mach {

namespace {

// kspan-enabled slow path: stamp the sender's active context into the
// message (a pre-stamped context — e.g. a forwarded request — wins) and
// record the enqueue time so the dequeue side can attribute queue wait.
void span_stamp_send(message& m, const port& p) {
  if (m.span_ctx == 0) m.span_ctx = kspan::current();
  if (m.span_ctx == 0) return;
  m.span_sent_nanos = now_nanos();
  ktrace::emit(trace_kind::span_send, p.type_name(), m.span_ctx,
               reinterpret_cast<std::uint64_t>(&p));
}

// Dequeue half: emit the flow-step record and feed the queue-wait
// histogram. Runs outside the port lock.
void span_note_recv(const message& m, const port& p) {
  if (m.span_ctx == 0 || !kspan::enabled()) return;
  const std::uint64_t now = now_nanos();
  const std::uint64_t waited =
      m.span_sent_nanos != 0 && now > m.span_sent_nanos ? now - m.span_sent_nanos : 0;
  ktrace::emit(trace_kind::span_recv, p.type_name(), m.span_ctx, waited);
  kmet().span_queue_nanos.record(waited);
}

}  // namespace

const char* to_string(kern_return_t kr) noexcept {
  switch (kr) {
    case KERN_SUCCESS: return "KERN_SUCCESS";
    case KERN_FAILURE: return "KERN_FAILURE";
    case KERN_INVALID_NAME: return "KERN_INVALID_NAME";
    case KERN_TERMINATED: return "KERN_TERMINATED";
    case KERN_INVALID_OP: return "KERN_INVALID_OP";
    case KERN_NO_SPACE: return "KERN_NO_SPACE";
    case KERN_RESOURCE_SHORTAGE: return "KERN_RESOURCE_SHORTAGE";
    case KERN_TIMED_OUT: return "KERN_TIMED_OUT";
    case KERN_ABORTED: return "KERN_ABORTED";
  }
  return "KERN_?";
}

port::port(const char* name) : kobject(name) {}

port::~port() = default;

void port::set_translation(ref_ptr<kobject> obj) {
  // Drop the old reference outside the port lock (release may destroy).
  ref_ptr<kobject> old;
  lock();
  old = std::move(translation_);
  translation_ = std::move(obj);
  unlock();
}

ref_ptr<kobject> port::translate() {
  lock();
  if (!active() || !translation_) {
    unlock();
    return {};
  }
  // Cloning under the port lock is safe: acquiring a reference never
  // blocks (paper section 8).
  ref_ptr<kobject> r = translation_;
  unlock();
  return r;
}

ref_ptr<kobject> port::clear_translation() {
  lock();
  ref_ptr<kobject> r = std::move(translation_);
  unlock();
  return r;
}

bool port::has_translation() {
  lock();
  bool h = static_cast<bool>(translation_);
  unlock();
  return h;
}

kern_return_t port::send(message m) {
  lock();
  if (!active()) {
    unlock();
    sends_failed_.fetch_add(1, std::memory_order_relaxed);
    return KERN_TERMINATED;
  }
  if (queue_.size() >= queue_limit_) {
    unlock();
    sends_failed_.fetch_add(1, std::memory_order_relaxed);
    return KERN_NO_SPACE;
  }
  if (kspan::enabled()) [[unlikely]] span_stamp_send(m, *this);
  queue_.push_back(std::move(m));
  depth_.store(queue_.size(), std::memory_order_release);
  const bool wake = receivers_waiting_ != 0;
  unlock();
  sends_ok_.fetch_add(1, std::memory_order_relaxed);
  kmet().ipc_messages.inc();
  if (wake) thread_wakeup_one(&queue_);
  return KERN_SUCCESS;
}

message port::pop_locked() {
  message m = std::move(queue_.front());
  queue_.pop_front();
  depth_.store(queue_.size(), std::memory_order_release);
  return m;
}

std::optional<message> port::receive(std::chrono::milliseconds timeout) {
  const bool bounded = timeout != std::chrono::milliseconds::max();
  const std::chrono::nanoseconds poll_limit =
      bounded ? std::chrono::nanoseconds(timeout) : std::chrono::nanoseconds::max();
  // Poll before locking: a send that lands in the poll makes no wakeup
  // call. A receiver that saw the word go non-zero but finds the queue
  // empty under the lock lost that message to another receiver; it polls
  // again. Only a poll that runs out (or a shut gate) leads to the wait.
  bool polling = true;
  for (;;) {
    if (polling && depth_.load(std::memory_order_acquire) == 0) {
      polling = spin_while_zero(depth_, poll_limit);
    }
    lock();
    if (!polling || !queue_.empty() || !active()) break;
    unlock();
  }
  for (;;) {
    if (!queue_.empty()) {
      message m = pop_locked();
      unlock();
      span_note_recv(m, *this);
      return m;
    }
    if (!active()) {
      unlock();
      return std::nullopt;
    }
    // assert_wait-then-unlock: atomic with respect to send()'s wakeup.
    assert_wait(&queue_);
    ++receivers_waiting_;
    unlock();
    wait_result r = bounded ? thread_block_timeout(timeout) : thread_block();
    lock();
    --receivers_waiting_;
    if (r == wait_result::timed_out) {
      // A send can land between the timeout firing and this return: the
      // sender's thread_wakeup_one finds no waiter (we already left the
      // wait queue), so nothing re-delivers the message until the next
      // receive — for a single-receiver pattern (an RPC reply port) that
      // message would be silently delayed and mis-delivered to the NEXT
      // call. Drain once under the lock before giving up.
      if (!queue_.empty()) {
        message m = pop_locked();
        // If more messages slipped in, their wakeups may also have been
        // consumed against no waiter; re-signal so a blocked receiver
        // picks them up instead of stranding them.
        bool more = !queue_.empty() && receivers_waiting_ != 0;
        unlock();
        if (more) thread_wakeup_one(&queue_);
        span_note_recv(m, *this);
        return m;
      }
      unlock();
      return std::nullopt;
    }
  }
}

std::optional<message> port::try_receive() {
  if (depth_.load(std::memory_order_acquire) == 0) return std::nullopt;
  lock();
  if (queue_.empty()) {
    unlock();
    return std::nullopt;
  }
  message m = pop_locked();
  unlock();
  span_note_recv(m, *this);
  return m;
}

void port::destroy_port() {
  std::deque<message> drained;
  lock();
  // Deactivate and drain under ONE lock hold. Deactivating after the
  // drain (the old order) left a window where a concurrent send could
  // pass the active() check and enqueue between the two, leaking the
  // message (and any port references it carries) until the port itself
  // died. With the flag flipped first, every send that succeeded is in
  // the queue we drain, and every later send fails KERN_TERMINATED.
  deactivate_locked();
  drained.swap(queue_);
  // A polling receiver leaves its poll at once.
  depth_.store(kDeadBit, std::memory_order_release);
  unlock();
  // Dropped messages release their carried port references here, outside
  // any lock.
  drained.clear();
  // Blocked receivers re-check active() and leave.
  thread_wakeup(&queue_);
}

std::size_t port::queued() {
  lock();
  std::size_t n = queue_.size();
  unlock();
  return n;
}

void port::set_queue_limit(std::size_t limit) {
  lock();
  queue_limit_ = limit;
  unlock();
}

}  // namespace mach
