// E17 — machcached: a traffic-serving macro-benchmark on the kernel
// substrate (ROADMAP item 1; docs/MACHCACHED.md).
//
// The micro-benches E1–E16 measure one primitive at a time. E17 composes
// them the way the paper's kernel composes them — IPC ports in front,
// worker kthreads on virtual processors, a complex-locked (optionally
// striped) item table, kobject reference counting on every item, and
// zalloc backpressure — and measures what a *service* built on those
// primitives serves:
//
//   E17a  connections × workers × read/write mix sweep: ops/s and
//         round-trip p50/p99 (gated: ops/s higher, p99 lower).
//   E17b  item-table stripe sweep at a write-heavy mix: the sec. 2 lock
//         granularity trade-off, measured in served traffic rather than
//         raw lock throughput.
//   E17c  the lockstat contention top table for a dedicated burst: where
//         a traffic-serving kernel actually spends its contention.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/table.h"
#include "smp/processor.h"
#include "svc/machcached.h"
#include "trace/trace_session.h"

namespace {

using namespace mach;
using dir = mach::metric_dir;

mc_load_spec base_spec(int duration_ms) {
  mc_load_spec s;
  s.duration_ms = duration_ms;
  s.window = 8;
  s.keyspace = 512;
  s.del_every = 8;
  s.bind_vcpus = true;  // one worker per virtual CPU (machine::configure in main)
  s.cache.shards = 4;
  // Headroom over the keyspace: an overwrite holds old + new blocks
  // briefly, so a zone sized exactly to the keyspace would refuse every
  // steady-state SET (see mc_cache::set).
  s.cache.max_items = 2 * s.keyspace;
  s.cache.value_words = 8;
  return s;
}

std::string us(std::uint64_t nanos) { return table::num(static_cast<double>(nanos) / 1e3, 1); }

}  // namespace

int main() {
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  const int duration = mach::bench_duration_ms(300);
  machine::instance().configure(8);

  // E17a: the service under a conns × workers × mix sweep.
  table ta("E17a: machcached served throughput and latency (conns x workers x mix)");
  ta.columns({"conns", "workers", "read%", "ops/s", "p50 us", "p99 us", "hit%", "backpressure"});
  // Only ops/s gates: the latency quantiles come from log2-bucket
  // histograms, so one bucket shift reads as ±100% — far past any
  // CoV-derived threshold — and would make the perf gate flake on
  // scheduler noise. They stay in the table as descriptive stats.
  ta.dirs({dir::info, dir::info, dir::info, dir::higher, dir::stat, dir::stat, dir::stat,
           dir::stat});
  for (int conns : {4, 16}) {
    for (int workers : {2, 4}) {
      for (int read_pct : {95, 50}) {
        mc_load_spec s = base_spec(duration);
        s.connections = conns;
        s.workers = workers;
        s.read_pct = read_pct;
        mc_load_result r = run_mc_load(s);
        ta.row({table::num(static_cast<std::uint64_t>(conns)),
                table::num(static_cast<std::uint64_t>(workers)),
                table::num(static_cast<std::uint64_t>(read_pct)),
                table::num(static_cast<std::uint64_t>(r.ops_per_second())),
                us(r.latency.quantile_nanos(0.50)), us(r.latency.quantile_nanos(0.99)),
                table::num(100.0 * r.hit_rate(), 1), table::num(r.send_backpressure)});
      }
    }
  }
  ta.print();

  // E17b: stripe the item table (sec. 2's granularity trade) under a
  // write-heavy mix, where the single table lock is the bottleneck.
  table tb("E17b: machcached item-table stripes under a write-heavy mix (sec. 2)");
  tb.columns({"shards", "ops/s", "p99 us", "set fails"});
  tb.dirs({dir::info, dir::higher, dir::stat, dir::stat});  // p99: see E17a note
  for (int shards : {1, 4, 16}) {
    mc_load_spec s = base_spec(duration);
    s.connections = 16;
    s.workers = 4;
    s.read_pct = 50;
    s.cache.shards = shards;
    mc_load_result r = run_mc_load(s);
    tb.row({table::num(static_cast<std::uint64_t>(shards)),
            table::num(static_cast<std::uint64_t>(r.ops_per_second())),
            us(r.latency.quantile_nanos(0.99)), table::num(r.cache_stats.set_failures)});
  }
  tb.print();

  // E17c: where the burst's lock contention actually lands. Aggregated by
  // lock name (all stripes of the item table share "mc-shard"); counters
  // are cumulative over this process, so the table is diagnostic
  // (info/stat), never gated.
  mc_load_spec s = base_spec(duration);
  s.connections = 16;
  s.workers = 4;
  s.read_pct = 80;
  mc_load_result burst = run_mc_load(s);

  struct name_agg {
    bool is_complex = false;
    std::uint64_t acquisitions = 0;
    std::uint64_t contended = 0;
  };
  std::map<std::string, name_agg> by_name;
  for (const lock_stat_entry& e : burst.lock_top) {
    name_agg& a = by_name[e.name];
    a.is_complex = e.is_complex;
    a.acquisitions += e.acquisitions;
    a.contended += e.contended;
  }
  std::vector<std::pair<std::string, name_agg>> ranked(by_name.begin(), by_name.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    if (x.second.contended != y.second.contended) return x.second.contended > y.second.contended;
    if (x.second.acquisitions != y.second.acquisitions)
      return x.second.acquisitions > y.second.acquisitions;
    return x.first < y.first;
  });

  table tc("E17c: machcached burst contention top table (by lock name, cumulative)");
  tc.columns({"lock", "kind", "acquisitions", "contended", "contended %"});
  tc.dirs({dir::info, dir::info, dir::stat, dir::stat, dir::stat});
  std::size_t rows = 0;
  for (const auto& [name, a] : ranked) {
    if (a.acquisitions == 0 || rows == 8) break;
    const double pct =
        100.0 * static_cast<double>(a.contended) / static_cast<double>(a.acquisitions);
    tc.row({name, a.is_complex ? "complex" : "simple", table::num(a.acquisitions),
            table::num(a.contended), table::num(pct, 2)});
    ++rows;
  }
  tc.print();

  std::printf(
      "\n  expected shape: ops/s grows with workers (more vcpu service contexts) and with\n"
      "  the read share (read holds on the item table admit concurrent GETs). Striping\n"
      "  (E17b) only pays once the item table is the bottleneck: at this scale the\n"
      "  request path is IPC-dominated (the contention table puts the service/reply\n"
      "  port locks far above mc-shard), so the shard sweep is expected to be flat —\n"
      "  sec. 2's granularity argument cuts both ways: finer locks buy nothing where\n"
      "  there is no contention to split.\n");
  return 0;
}
