#include "sync/lockstat.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>

#include "harness/table.h"
#include "sync/complex_lock.h"
#include "sync/simple_lock.h"
#include "trace/trace_export.h"

namespace mach {

struct lock_registry::impl {
  mutable std::mutex m;
  std::set<simple_lock_data_t*> simple;
  std::set<lock_data_t*> complex;
};

lock_registry& lock_registry::instance() noexcept {
  // Intentionally leaked: locks with static storage duration unregister
  // during shutdown, possibly after any registry with a destructor would
  // already be gone.
  static lock_registry* r = new lock_registry;
  return *r;
}

lock_registry::impl& lock_registry::self() const {
  static impl* i = new impl;
  return *i;
}

void lock_registry::add(simple_lock_data_t* l) {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  s.simple.insert(l);
}

void lock_registry::remove(simple_lock_data_t* l) {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  s.simple.erase(l);
}

void lock_registry::add(lock_data_t* l) {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  s.complex.insert(l);
}

void lock_registry::remove(lock_data_t* l) {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  s.complex.erase(l);
}

std::size_t lock_registry::live_locks() const {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  return s.simple.size() + s.complex.size();
}

lock_profile& lock_profile_of(std::atomic<lock_profile*>& slot) {
  lock_profile* p = slot.load(std::memory_order_relaxed);
  if (p == nullptr) {
    p = new lock_profile;
    slot.store(p, std::memory_order_release);
  }
  return *p;
}

namespace {

void fill_quantiles(const lock_profile::histogram& h, std::uint64_t& samples,
                    std::uint64_t& p50, std::uint64_t& p99) {
  std::uint64_t buckets[latency_histogram::num_buckets];
  samples = h.copy(buckets);
  p50 = latency_histogram::quantile_of(buckets, samples, 0.5);
  p99 = latency_histogram::quantile_of(buckets, samples, 0.99);
}

// A lock without a profile was never timed: its entry keeps 0 samples.
void fill_latency(lock_stat_entry& e, const std::atomic<lock_profile*>& slot) {
  const lock_profile* p = slot.load(std::memory_order_acquire);
  if (p == nullptr) return;
  fill_quantiles(p->hold, e.hold_samples, e.hold_p50_nanos, e.hold_p99_nanos);
  fill_quantiles(p->wait, e.wait_samples, e.wait_p50_nanos, e.wait_p99_nanos);
}

}  // namespace

std::vector<lock_stat_entry> lock_registry::snapshot() const {
  impl& s = self();
  std::vector<lock_stat_entry> out;
  {
    std::lock_guard<std::mutex> g(s.m);
    out.reserve(s.simple.size() + s.complex.size());
    for (simple_lock_data_t* l : s.simple) {
      lock_stat_entry e{l, l->name, false, counter_value(l->stat_acquisitions),
                        counter_value(l->stat_contended)};
      fill_latency(e, l->profile);
      out.push_back(e);
    }
    for (lock_data_t* l : s.complex) {
      // Racy (possibly one op stale) reads of the interlock-protected
      // counters: fine for diagnostics.
      lock_stat_entry e{l, l->name, true,
                        l->read_enters() + counter_value(l->stats.write_acquisitions),
                        counter_value(l->stats.sleeps) + counter_value(l->stats.spins)};
      fill_latency(e, l->profile);
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(), [](const lock_stat_entry& a, const lock_stat_entry& b) {
    if (a.contended != b.contended) return a.contended > b.contended;
    if (a.acquisitions != b.acquisitions) return a.acquisitions > b.acquisitions;
    // Deterministic tie-breaks so output is stable across runs: name,
    // then address (addresses differ between runs but make the order
    // total within one).
    const int byname = std::strcmp(a.name, b.name);
    if (byname != 0) return byname < 0;
    return a.address < b.address;
  });
  return out;
}

namespace {

// "12.3us" style cell; "-" when the histogram never sampled (profiling is
// ktrace-gated, so zero samples is the common disabled case).
std::string ns_cell(std::uint64_t samples, std::uint64_t nanos) {
  if (samples == 0) return "-";
  if (nanos < 10'000) return table::num(nanos) + "ns";
  if (nanos < 10'000'000) return table::num(static_cast<double>(nanos) / 1e3, 1) + "us";
  return table::num(static_cast<double>(nanos) / 1e6, 1) + "ms";
}

}  // namespace

void lock_registry::print_top(std::size_t max_rows) const {
  std::vector<lock_stat_entry> snap = snapshot();
  table t("lockstat: most contended live locks (" + std::to_string(snap.size()) + " registered)");
  t.columns({"lock", "kind", "acquisitions", "contended", "hold p50", "hold p99", "wait p50",
             "wait p99"});
  std::size_t rows = 0;
  for (const lock_stat_entry& e : snap) {
    if (rows++ >= max_rows) break;
    t.row({e.name, e.is_complex ? "complex" : "simple", table::num(e.acquisitions),
           table::num(e.contended), ns_cell(e.hold_samples, e.hold_p50_nanos),
           ns_cell(e.hold_samples, e.hold_p99_nanos), ns_cell(e.wait_samples, e.wait_p50_nanos),
           ns_cell(e.wait_samples, e.wait_p99_nanos)});
  }
  t.print();
}

std::string lock_registry::snapshot_json() const {
  std::vector<lock_stat_entry> snap = snapshot();
  std::string out = "[";
  bool first = true;
  for (const lock_stat_entry& e : snap) {
    if (!first) out += ",";
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\n{\"name\":\"%s\",\"kind\":\"%s\",\"acquisitions\":%llu,\"contended\":%llu,",
                  json_escape(e.name).c_str(), e.is_complex ? "complex" : "simple",
                  static_cast<unsigned long long>(e.acquisitions),
                  static_cast<unsigned long long>(e.contended));
    out += buf;
    // Hold/wait profiling is ktrace-gated; a lock that was never timed has
    // zero samples, and emitting p50/p99 "0" for it would read as a
    // measured zero-latency lock. Omit the objects entirely instead (the
    // print_top table renders the same case as "-").
    if (e.hold_samples != 0) {
      std::snprintf(buf, sizeof(buf),
                    "\"hold\":{\"samples\":%llu,\"p50_ns\":%llu,\"p99_ns\":%llu},",
                    static_cast<unsigned long long>(e.hold_samples),
                    static_cast<unsigned long long>(e.hold_p50_nanos),
                    static_cast<unsigned long long>(e.hold_p99_nanos));
      out += buf;
    }
    if (e.wait_samples != 0) {
      std::snprintf(buf, sizeof(buf),
                    "\"wait\":{\"samples\":%llu,\"p50_ns\":%llu,\"p99_ns\":%llu},",
                    static_cast<unsigned long long>(e.wait_samples),
                    static_cast<unsigned long long>(e.wait_p50_nanos),
                    static_cast<unsigned long long>(e.wait_p99_nanos));
      out += buf;
    }
    out.pop_back();  // trailing comma from the last emitted field
    out += "}";
  }
  out += "\n]";
  return out;
}

}  // namespace mach
