#include "vm/pmap.h"

#include <algorithm>

#include "base/backoff.h"
#include "metrics/kmetrics.h"
#include "smp/processor.h"
#include "sync/lock_order.h"
#include "vm/memory_object.h"  // vm_page_size

namespace mach {
namespace {

void flag_cpu(bool v) {
  if (virtual_cpu* c = machine::current_cpu()) c->set_at_pmap_lock(v);
}

std::uint64_t vpn(std::uint64_t va) { return va >> vm_page_shift; }

}  // namespace

pmap::pmap(const char* name) : lock_(name), name_(name) {}

spl_t pmap::lock_acquire() {
  // Consistent interrupt priority for this lock class (section 7), raised
  // BEFORE acquiring so the hold is entirely at SPLVM.
  spl_t saved = splraise(SPLVM);
  flag_cpu(true);
  simple_lock(&lock_);
  lock_order_validator::instance().on_acquire(&lock_, pmap_lock_class);
  return saved;
}

bool pmap::lock_try(spl_t* saved) {
  *saved = splraise(SPLVM);
  flag_cpu(true);
  if (simple_lock_try(&lock_)) {
    lock_order_validator::instance().on_acquire(&lock_, pmap_lock_class);
    return true;
  }
  return false;
}

void pmap::lock_release(spl_t saved) {
  lock_order_validator::instance().on_release(&lock_);
  simple_unlock(&lock_);
  flag_cpu(false);
  splx(saved);
}

void pmap::lock_release_try_failed(spl_t saved) {
  flag_cpu(false);
  splx(saved);
}

void pmap::enter_locked(std::uint64_t va, std::uint64_t pa) {
  MACH_ASSERT(simple_lock_held(&lock_), "pmap enter without the pmap lock");
  translations_[vpn(va)] = pa;
  kmet().vm_pmap_enters.inc();
}

void pmap::remove_locked(std::uint64_t va) {
  MACH_ASSERT(simple_lock_held(&lock_), "pmap remove without the pmap lock");
  translations_.erase(vpn(va));
  kmet().vm_pmap_removes.inc();
}

std::optional<std::uint64_t> pmap::lookup_locked(std::uint64_t va) const {
  MACH_ASSERT(simple_lock_held(&lock_), "pmap lookup without the pmap lock");
  auto it = translations_.find(vpn(va));
  return it == translations_.end() ? std::nullopt : std::optional<std::uint64_t>(it->second);
}

pv_table::pv_table(std::size_t buckets) {
  std::size_t n = 1;
  while (n < buckets) n <<= 1;
  mask_ = n - 1;
  buckets_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) buckets_.push_back(std::make_unique<bucket>());
}

pv_table::bucket& pv_table::bucket_for(std::uint64_t pa) {
  return *buckets_[(pa >> vm_page_shift) & mask_];
}

void pmap_system::pmap_enter(pmap& map, std::uint64_t va, std::uint64_t pa) {
  // Usual order: system(read) → pmap → pv.
  lock_read(&system_lock_);
  spl_t s = map.lock_acquire();
  map.enter_locked(va, pa);
  pv_table::bucket& b = pv_.bucket_for(pa);
  simple_lock(&b.lock);
  lock_order_validator::instance().on_acquire(&b.lock, pv_lock_class);
  b.entries.push_back({&map, va});
  lock_order_validator::instance().on_release(&b.lock);
  simple_unlock(&b.lock);
  kmet().vm_pv_operations.inc();
  map.lock_release(s);
  lock_done(&system_lock_);
  simple_lock(&stats_lock_);
  ++stats_.enters;
  simple_unlock(&stats_lock_);
}

void pmap_system::pmap_remove(pmap& map, std::uint64_t va) {
  lock_read(&system_lock_);
  spl_t s = map.lock_acquire();
  std::optional<std::uint64_t> pa = map.lookup_locked(va);
  map.remove_locked(va);
  if (pa.has_value()) {
    pv_table::bucket& b = pv_.bucket_for(*pa);
    simple_lock(&b.lock);
    std::erase_if(b.entries, [&](const pv_table::pv_entry& e) {
      return e.map == &map && e.va == va;
    });
    simple_unlock(&b.lock);
    kmet().vm_pv_operations.inc();
  }
  map.lock_release(s);
  lock_done(&system_lock_);
  simple_lock(&stats_lock_);
  ++stats_.removes;
  simple_unlock(&stats_lock_);
}

std::optional<std::uint64_t> pmap_system::pmap_lookup(pmap& map, std::uint64_t va) {
  lock_read(&system_lock_);
  spl_t s = map.lock_acquire();
  std::optional<std::uint64_t> pa = map.lookup_locked(va);
  map.lock_release(s);
  lock_done(&system_lock_);
  return pa;
}

int pmap_system::page_protect_arbitrated(std::uint64_t pa) {
  // Reverse order made safe by arbitration: the system WRITE lock excludes
  // every enter/remove (which hold it for read), so we have exclusive
  // access to the pv lists and may take pmap locks in pv→pmap order
  // without meeting an opposing pmap→pv holder.
  spl_guard at_splvm(SPLVM);  // pv locks are SPLVM locks, consistently
  lock_write(&system_lock_);
  pv_table::bucket& b = pv_.bucket_for(pa);
  simple_lock(&b.lock);
  int removed = 0;
  for (const pv_table::pv_entry& e : b.entries) {
    spl_t s = e.map->lock_acquire();
    e.map->remove_locked(e.va);
    e.map->lock_release(s);
    ++removed;
  }
  b.entries.clear();
  simple_unlock(&b.lock);
  kmet().vm_pv_operations.inc(static_cast<std::uint64_t>(removed));
  lock_done(&system_lock_);
  simple_lock(&stats_lock_);
  ++stats_.protects;
  simple_unlock(&stats_lock_);
  return removed;
}

int pmap_system::page_protect_backout(std::uint64_t pa) {
  // "a single attempt is made for the second lock, with failure causing
  // the first one to be released and reacquired later."
  spl_guard at_splvm(SPLVM);
  backoff bo;
  for (;;) {
    pv_table::bucket& b = pv_.bucket_for(pa);
    simple_lock(&b.lock);
    bool backed_out = false;
    int removed = 0;
    for (std::size_t i = 0; i < b.entries.size();) {
      pmap* m = b.entries[i].map;
      spl_t s = SPL0;
      if (!m->lock_try(&s)) {
        m->lock_release_try_failed(s);
        backed_out = true;
        break;
      }
      m->remove_locked(b.entries[i].va);
      m->lock_release(s);
      b.entries.erase(b.entries.begin() + static_cast<std::ptrdiff_t>(i));
      ++removed;
    }
    simple_unlock(&b.lock);
    kmet().vm_pv_operations.inc(static_cast<std::uint64_t>(removed));
    if (!backed_out) {
      simple_lock(&stats_lock_);
      ++stats_.protects;
      simple_unlock(&stats_lock_);
      return removed;
    }
    simple_lock(&stats_lock_);
    ++stats_.backout_retries;
    simple_unlock(&stats_lock_);
    bo.pause();  // reacquire "later"
  }
}

pmap_op_stats pmap_system::stats() {
  simple_lock(&stats_lock_);
  pmap_op_stats s = stats_;
  simple_unlock(&stats_lock_);
  return s;
}

}  // namespace mach
