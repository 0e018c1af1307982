#include "vm/vm_map.h"

#include <algorithm>

namespace mach {

kern_return_t vm_map::enter(ref_ptr<memory_object> obj, std::uint64_t obj_offset,
                            std::uint64_t size, std::uint64_t* out_addr) {
  if (size == 0 || (size & (vm_page_size - 1)) != 0 ||
      (obj_offset & (vm_page_size - 1)) != 0) {
    return KERN_FAILURE;
  }
  write_lock_guard g(lock_data_);
  ordered_hold order(&lock_data_, vm_map_lock_class);
  lock();
  bool alive = active();
  unlock();
  if (!alive) return KERN_TERMINATED;
  std::uint64_t start = next_alloc_;
  next_alloc_ += size + vm_page_size;  // guard page between entries
  entries_.push_back(vm_map_entry{start, start + size, std::move(obj), obj_offset, false});
  std::sort(entries_.begin(), entries_.end(),
            [](const vm_map_entry& a, const vm_map_entry& b) { return a.start < b.start; });
  *out_addr = start;
  return KERN_SUCCESS;
}

kern_return_t vm_map::remove(std::uint64_t start, std::uint64_t size) {
  ref_ptr<memory_object> doomed;  // object ref released after the lock drops
  {
    write_lock_guard g(lock_data_);
    auto it = std::find_if(entries_.begin(), entries_.end(), [&](const vm_map_entry& e) {
      return e.start == start && e.size() == size;
    });
    if (it == entries_.end()) return KERN_FAILURE;
    if (it->wired) return KERN_FAILURE;  // unwire first
    doomed = std::move(it->object);
    entries_.erase(it);
  }
  return KERN_SUCCESS;
}

vm_map_entry* vm_map::lookup_locked(std::uint64_t va) {
  // Entries are sorted; binary search on start.
  auto it = std::upper_bound(entries_.begin(), entries_.end(), va,
                             [](std::uint64_t v, const vm_map_entry& e) { return v < e.start; });
  if (it == entries_.begin()) return nullptr;
  --it;
  return (va >= it->start && va < it->end) ? &*it : nullptr;
}

std::size_t vm_map::entry_count() {
  read_lock_guard g(lock_data_);
  return entries_.size();
}

std::vector<vm_map_entry> vm_map::entries_snapshot() {
  read_lock_guard g(lock_data_);
  return entries_;  // clones the object references
}

namespace {

kern_return_t fault_common(vm_map& map, std::uint64_t va, bool wire, std::uint64_t* out_pa) {
  va &= ~(vm_page_size - 1);
  // Read lock held across the whole fault, including the possibly-blocking
  // page_request — legal because the map lock has the Sleep option. The
  // legacy vm_map_pageable path reaches here with the lock held
  // recursively, which is exactly the paper's section 7.1 scenario.
  lock_read(&map.map_lock());
  ordered_hold order(&map.map_lock(), vm_map_lock_class);
  vm_map_entry* e = map.lookup_locked(va);
  if (e == nullptr) {
    lock_done(&map.map_lock());
    return KERN_FAILURE;
  }
  // Clone the object reference: the entry could be unmapped by others the
  // moment we drop the map lock (not here, but page_request blocks).
  ref_ptr<memory_object> obj = e->object;
  const std::uint64_t offset = e->offset + (va - e->start);

  vm_page* page = nullptr;
  kern_return_t kr = obj->page_request(offset, &page);
  if (kr == KERN_SUCCESS && wire) obj->wire_page(page);
  lock_done(&map.map_lock());
  if (kr != KERN_SUCCESS) return kr;
  if (out_pa != nullptr) *out_pa = page->pa();
  if (map.on_mapping_installed) map.on_mapping_installed(va, page->pa());
  return KERN_SUCCESS;
}

}  // namespace

kern_return_t vm_fault(vm_map& map, std::uint64_t va, std::uint64_t* out_pa) {
  return fault_common(map, va, /*wire=*/false, out_pa);
}

kern_return_t vm_fault_wire(vm_map& map, std::uint64_t va) {
  return fault_common(map, va, /*wire=*/true, nullptr);
}

}  // namespace mach
