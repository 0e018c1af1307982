// Physical maps and physical-to-virtual lists (paper section 5).
//
// "These modules manage two classes of data structures, the physical maps
// (pmaps), and physical to virtual lists (pv lists). ... Both data
// structures have locks, and the pmap modules contain routines that need
// to acquire these locks in both orders (pmap then pv list, and pv list
// then pmap). To resolve this conflict, a third lock (the pmap system
// lock) is used to arbitrate between the orders in which these locks may
// be acquired. In some systems this is a readers/writers lock, so that any
// procedure with a write lock on this lock can assume exclusive access to
// the pv lists. ... A final alternative is to use a backout protocol when
// acquiring two locks in the reverse of the usual order."
//
// pmap_system implements BOTH resolutions so experiment E9 can compare:
//   * enter-direction ops (pmap → pv): system lock held for READ;
//   * pv-direction ops, arbitrated: system lock held for WRITE, which
//     excludes all enters and thereby grants exclusive pv access;
//   * pv-direction ops, backout: no system lock; pv lock first, then a
//     single simple_lock_try per pmap, releasing and retrying the whole
//     operation on failure.
//
// All pmap lock acquisitions run at SPLVM (section 7: every lock is
// acquired at one consistent interrupt priority level) and set the
// current CPU's at_pmap_lock flag for the shootdown special logic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "smp/spl.h"
#include "sync/complex_lock.h"
#include "sync/lock_order.h"
#include "sync/simple_lock.h"

namespace mach {

inline constexpr lock_class pmap_lock_class{"pmap", "pmap-lock", 0};
inline constexpr lock_class pv_lock_class{"pmap", "pv-lock", 1};

// One task's machine-dependent address translation map.
class pmap {
 public:
  explicit pmap(const char* name = "pmap");
  pmap(const pmap&) = delete;
  pmap& operator=(const pmap&) = delete;

  // Lock helpers: raise to SPLVM, flag the CPU, acquire. Exposed because
  // the shootdown initiator holds the pmap lock across the barrier.
  spl_t lock_acquire();
  // Single attempt; flags the CPU during it (the paper's "attempting to
  // acquire" case). On success release with lock_release(*saved); on
  // failure call lock_release_try_failed(*saved).
  bool lock_try(spl_t* saved);
  void lock_release(spl_t saved);
  void lock_release_try_failed(spl_t saved);

  // Translation table ops; caller holds the pmap lock.
  void enter_locked(std::uint64_t va, std::uint64_t pa);
  void remove_locked(std::uint64_t va);
  std::optional<std::uint64_t> lookup_locked(std::uint64_t va) const;
  std::size_t size_locked() const { return translations_.size(); }

  const char* name() const { return name_; }

 private:
  mutable simple_lock_data_t lock_;
  const char* name_;
  std::unordered_map<std::uint64_t, std::uint64_t> translations_;  // vpn → pa
};

// Inverted mappings: which (pmap, va) pairs map each physical frame.
class pv_table {
 public:
  explicit pv_table(std::size_t buckets = 256);

  struct pv_entry {
    pmap* map;
    std::uint64_t va;
  };

  struct bucket {
    simple_lock_data_t lock{"pv-lock"};
    std::vector<pv_entry> entries;
  };

  bucket& bucket_for(std::uint64_t pa);

 private:
  std::vector<std::unique_ptr<bucket>> buckets_;
  std::size_t mask_;
};

struct pmap_op_stats {
  std::uint64_t enters = 0;
  std::uint64_t removes = 0;
  std::uint64_t protects = 0;
  std::uint64_t backout_retries = 0;  // reverse-order attempts that had to back out
};

// The pmap module: pmaps + pv table + system lock, with both
// order-conflict resolutions.
class pmap_system {
 public:
  // pmap → pv direction (the usual order): install va→pa in `map` and
  // record the inverted mapping. System lock for read.
  void pmap_enter(pmap& map, std::uint64_t va, std::uint64_t pa);
  void pmap_remove(pmap& map, std::uint64_t va);
  std::optional<std::uint64_t> pmap_lookup(pmap& map, std::uint64_t va);

  // pv → pmap direction: strip every mapping of frame `pa` (the classic
  // pmap_page_protect(VM_PROT_NONE)). Returns mappings removed.
  //   arbitrated: takes the system lock for WRITE (exclusive pv access).
  int page_protect_arbitrated(std::uint64_t pa);
  //   backout: reverse-order acquisition with try-lock and full retry.
  int page_protect_backout(std::uint64_t pa);

  pmap_op_stats stats();
  lock_data_t& system_lock() { return system_lock_; }
  pv_table& pv() { return pv_; }

 private:
  // Readers/writers, in spin mode: pmap code runs at raised spl and may be
  // reached from the fault path; it never blocks.
  lock_data_t system_lock_{"pmap-system-lock", /*sleep=*/false};
  pv_table pv_;
  simple_lock_data_t stats_lock_{"pmap-stats", /*track=*/false};
  pmap_op_stats stats_;
};

}  // namespace mach
