#include "kern/pset.h"

#include <algorithm>

namespace mach {

// Processor sets live for the kernel's lifetime and every task/thread
// operation clones their reference: the striped count moves that traffic
// onto per-way cache lines once clones contend (kern/refcount.h).
processor_set::processor_set(const char* name) : kobject(name, refcount_policy::striped) {}

processor_set::~processor_set() = default;

kern_return_t processor_set::assign_processor(int cpu_id) {
  lock();
  ordered_hold order(lock_addr(), pset_lock_class);
  if (!active()) {
    unlock();
    return KERN_TERMINATED;
  }
  if (std::find(cpus_.begin(), cpus_.end(), cpu_id) != cpus_.end()) {
    unlock();
    return KERN_FAILURE;  // already assigned here
  }
  cpus_.push_back(cpu_id);
  unlock();
  return KERN_SUCCESS;
}

kern_return_t processor_set::remove_processor(int cpu_id) {
  lock();
  auto it = std::find(cpus_.begin(), cpus_.end(), cpu_id);
  if (it == cpus_.end()) {
    unlock();
    return KERN_FAILURE;
  }
  cpus_.erase(it);
  unlock();
  return KERN_SUCCESS;
}

std::vector<int> processor_set::processors() {
  lock();
  std::vector<int> copy = cpus_;
  unlock();
  return copy;
}

std::size_t processor_set::processor_count() {
  lock();
  std::size_t n = cpus_.size();
  unlock();
  return n;
}

std::vector<ref_ptr<task>>::iterator processor_set::find_task_locked(task* t) {
  return std::find_if(tasks_.begin(), tasks_.end(),
                      [t](const ref_ptr<task>& r) { return r.get() == t; });
}

kern_return_t processor_set::assign_task(ref_ptr<task> t) {
  if (!t) return KERN_FAILURE;
  lock();
  ordered_hold order(lock_addr(), pset_lock_class);
  if (!active()) {
    unlock();
    return KERN_TERMINATED;
  }
  if (find_task_locked(t.get()) != tasks_.end()) {
    unlock();
    return KERN_FAILURE;
  }
  tasks_.push_back(std::move(t));
  unlock();
  return KERN_SUCCESS;
}

kern_return_t processor_set::remove_task(task* t) {
  ref_ptr<task> doomed;  // released outside the lock
  lock();
  auto it = find_task_locked(t);
  if (it == tasks_.end()) {
    unlock();
    return KERN_FAILURE;
  }
  doomed = std::move(*it);
  tasks_.erase(it);
  unlock();
  return KERN_SUCCESS;
}

bool processor_set::contains_task(task* t) {
  lock();
  bool found = find_task_locked(t) != tasks_.end();
  unlock();
  return found;
}

std::size_t processor_set::task_count() {
  lock();
  std::size_t n = tasks_.size();
  unlock();
  return n;
}

kern_return_t processor_set::move_task(processor_set& from, processor_set& to, task* t) {
  if (&from == &to) return KERN_FAILURE;
  // Section 5: "If two objects of the same type must be locked, the
  // acquisitions can be ordered by address."
  processor_set* first = &from < &to ? &from : &to;
  processor_set* second = &from < &to ? &to : &from;
  first->lock();
  ordered_hold order1(first->lock_addr(), pset_lock_class);
  second->lock();
  ordered_hold order2(second->lock_addr(), pset_lock_class);

  kern_return_t kr;
  auto it = from.find_task_locked(t);
  if (it == from.tasks_.end()) {
    kr = KERN_FAILURE;
  } else if (!to.active()) {
    kr = KERN_TERMINATED;
  } else {
    to.tasks_.push_back(std::move(*it));
    from.tasks_.erase(it);
    kr = KERN_SUCCESS;
  }
  second->unlock();
  first->unlock();
  return kr;
}

void processor_set::shutdown_body() {
  std::vector<ref_ptr<task>> doomed;
  lock();
  doomed.swap(tasks_);
  cpus_.clear();
  unlock();
  doomed.clear();
}

}  // namespace mach
