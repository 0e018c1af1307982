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

namespace {

void fill_latency(lock_stat_entry& e, const latency_histogram& hold,
                  const latency_histogram& wait) {
  e.hold_samples = hold.count();
  e.hold_p50_nanos = hold.quantile_nanos(0.5);
  e.hold_p99_nanos = hold.quantile_nanos(0.99);
  e.wait_samples = wait.count();
  e.wait_p50_nanos = wait.quantile_nanos(0.5);
  e.wait_p99_nanos = wait.quantile_nanos(0.99);
}

}  // namespace

std::vector<lock_stat_entry> lock_registry::snapshot() const {
  impl& s = self();
  std::vector<lock_stat_entry> out;
  {
    std::lock_guard<std::mutex> g(s.m);
    out.reserve(s.simple.size() + s.complex.size());
    for (simple_lock_data_t* l : s.simple) {
      lock_stat_entry e{l, l->name, false, l->stat_acquisitions, l->stat_contended};
      fill_latency(e, l->hold_hist, l->wait_hist);
      out.push_back(e);
    }
    for (lock_data_t* l : s.complex) {
      // Racy reads of the interlock-protected stats: fine for diagnostics.
      lock_stat_entry e{l, l->name, true,
                        l->stats.read_acquisitions + l->stats.write_acquisitions +
                            l->fast_reads.load(std::memory_order_relaxed),
                        l->stats.sleeps + l->stats.spins};
      fill_latency(e, l->hold_hist, l->wait_hist);
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
