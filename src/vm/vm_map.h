// Memory maps: the address-space data structure behind a task (paper
// section 3), protected by a *sleepable complex lock* — "Most complex
// locks use the sleep option, including the lock on a memory map data
// structure."
//
// The map is itself a kernel object (reference counted, deactivatable);
// its entries hold counted references to memory objects, following the
// section 5 ordering convention: memory map before memory object.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sync/complex_lock.h"
#include "sync/lock_order.h"
#include "vm/memory_object.h"

namespace mach {

// Section 5 lock classes for the VM subsystem: map (rank 0) before
// object (rank 1).
inline constexpr lock_class vm_map_lock_class{"vm", "vm-map-lock", 0};
inline constexpr lock_class vm_object_lock_class{"vm", "vm-object-lock", 1};

struct vm_map_entry {
  std::uint64_t start = 0;  // page aligned, inclusive
  std::uint64_t end = 0;    // page aligned, exclusive
  ref_ptr<memory_object> object;
  std::uint64_t offset = 0;  // object offset corresponding to `start`
  bool wired = false;

  std::uint64_t size() const { return end - start; }
};

class vm_map final : public kobject {
 public:
  explicit vm_map(const char* name = "vm-map") : kobject(name) {}

  // The map's complex lock (Sleep option on). Exposed because the VM
  // routines of the paper manipulate it directly (read faults, write
  // mutations, the vm_map_pageable recursion).
  lock_data_t& map_lock() { return lock_data_; }

  // Allocate `size` bytes backed by `obj` at `obj_offset`; the chosen
  // address is returned through `out_addr`. Takes the map write lock.
  kern_return_t enter(ref_ptr<memory_object> obj, std::uint64_t obj_offset, std::uint64_t size,
                      std::uint64_t* out_addr);
  // Remove the entry containing [start, start+size). Write lock.
  kern_return_t remove(std::uint64_t start, std::uint64_t size);

  // Entry lookup; caller holds the map lock (read or write).
  vm_map_entry* lookup_locked(std::uint64_t va);

  std::size_t entry_count();
  // Snapshot under a read lock.
  std::vector<vm_map_entry> entries_snapshot();

  // Optional hook invoked (without the map lock) after a successful fault
  // installs a page — integration point for the pmap layer.
  std::function<void(std::uint64_t va, std::uint64_t pa)> on_mapping_installed;

 private:
  friend kern_return_t vm_map_reclaim(vm_map& map, zone& page_zone, std::size_t target_pages);
  friend kern_return_t vm_map_pageable_legacy(vm_map&, std::uint64_t, std::uint64_t, bool);
  friend kern_return_t vm_map_pageable(vm_map&, std::uint64_t, std::uint64_t, bool);

  lock_data_t lock_data_{"vm-map-lock"};
  std::vector<vm_map_entry> entries_;  // sorted by start, non-overlapping
  std::uint64_t next_alloc_ = vm_page_size;
};

// Handle a fault at `va`: look the address up under a map read lock, page
// the backing offset in (possibly blocking with the read lock held — the
// Sleep option at work), and report the resident page's physical address.
kern_return_t vm_fault(vm_map& map, std::uint64_t va, std::uint64_t* out_pa = nullptr);

// As vm_fault, but also wires the page. Used by vm_map_pageable; takes the
// map read lock itself (the legacy caller relies on recursive bypass).
kern_return_t vm_fault_wire(vm_map& map, std::uint64_t va);

}  // namespace mach
