// Ports: protected communication channels with exactly one receiver and
// one or more senders (paper section 3), and the port→object translation
// that backs every kernel operation (section 10).
//
// The port is itself a kernel object: it has a lock, a reference count and
// a deactivation flag, and it *holds one reference* to the object it
// represents ("if the abstraction is not a port, then the port data
// structure contains a pointer to the actual object"). Clearing that
// pointer — shutdown step 2 — is what disables port-to-object translation
// while outstanding references keep both data structures alive.
//
// Receiving polls, then waits. The port keeps one atomic depth word: the
// queue length, written under the port lock at every enqueue, dequeue and
// drain, with kDeadBit set by destroy_port. It is read without the lock.
// try_receive on an empty port returns at once and takes no lock.
// receive looks at the word before it locks; while it reads 0, the
// receiver polls it (spin_while_zero, sched/event.h: the calling thread's
// spin budget, and only while the spin gate is open). It takes the lock
// when the word goes non-zero (a message, or a dead port) or the poll
// runs out. A receiver that finds the queue empty under the lock after
// the word went non-zero lost that message to another receiver, and
// polls again. Once the poll runs out, it re-checks the queue and
// active() under the lock, and only then asserts its wait. send wakes
// only receivers that asserted a wait, so a send that lands in a poll
// makes no wakeup call, and the lost-wakeup argument is the one the
// locked path always had.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>

#include "ipc/message.h"
#include "kern/object.h"

namespace mach {

class port final : public kobject {
 public:
  explicit port(const char* name = "port");
  ~port() override;

  // --- translation ---
  // Install/replace the represented object (consumes the passed reference).
  void set_translation(ref_ptr<kobject> obj);
  // Translate port → object, cloning a reference under the port lock
  // ("this effectively clones the object reference held by the name
  // translation data structures"). Null if translation was cleared or the
  // port is dead.
  ref_ptr<kobject> translate();
  // Shutdown step 2: "Lock the corresponding port, remove the object
  // pointer and reference from the port, and unlock the port." Returns the
  // removed reference so the caller controls when it dies.
  ref_ptr<kobject> clear_translation();
  bool has_translation();

  // --- messaging ---
  // Enqueue; fails with KERN_TERMINATED on a dead port, KERN_NO_SPACE when
  // the queue limit is reached.
  kern_return_t send(message m);
  // Blocking receive; nullopt on timeout or if the port dies while waiting.
  std::optional<message> receive(
      std::chrono::milliseconds timeout = std::chrono::milliseconds::max());
  std::optional<message> try_receive();

  // Deactivate the port: senders get KERN_TERMINATED, blocked receivers
  // wake empty-handed, queued messages are dropped (their carried
  // references released).
  void destroy_port();

  std::size_t queued();
  void set_queue_limit(std::size_t limit);

  std::uint64_t sends_ok() const { return sends_ok_.load(std::memory_order_relaxed); }
  std::uint64_t sends_failed() const { return sends_failed_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::uint64_t kDeadBit = std::uint64_t{1} << 63;

  // Under the lock: pop the head and publish the new depth.
  message pop_locked();

  std::deque<message> queue_;
  // queue_.size(), or kDeadBit once destroyed (see the header comment).
  std::atomic<std::uint64_t> depth_{0};
  std::size_t queue_limit_ = 1024;
  // Receivers between assert_wait and re-locking after their block (under
  // the port lock). send() wakes one only when this is non-zero: any other
  // receiver checks the queue under the lock before it waits.
  std::size_t receivers_waiting_ = 0;
  ref_ptr<kobject> translation_;
  std::atomic<std::uint64_t> sends_ok_{0};
  std::atomic<std::uint64_t> sends_failed_{0};
};

}  // namespace mach
