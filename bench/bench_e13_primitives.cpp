// E13 — Primitive operation costs (Appendices A and B).
//
// google-benchmark microbenchmarks of every locking primitive the paper's
// appendices document, uncontended (plus a shared-lock read row and a
// shared-object clone/release row at 1, 2 and 4 threads, a two-thread
// wakeup/park round trip, a two-thread port request/reply round trip,
// and two bare-atomic floor rows): the baseline costs every design discussion in the paper
// builds on (e.g. why the simple lock is "a C integer", and what a complex
// lock's read side costs with and without the interlock).
#include <benchmark/benchmark.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/bench_json.h"
#include "trace/trace_session.h"
#include "ipc/stubs.h"
#include "kern/object.h"
#include "sched/event.h"
#include "sync/complex_lock.h"
#include "sync/simple_lock.h"

namespace {

using namespace mach;

void BM_SimpleLockUnlock(benchmark::State& state) {
  simple_lock_data_t l;
  simple_lock_init(&l, "bm", true, static_cast<spin_policy>(state.range(0)));
  for (auto _ : state) {
    simple_lock(&l);
    simple_unlock(&l);
  }
}
BENCHMARK(BM_SimpleLockUnlock)
    ->Arg(static_cast<int>(spin_policy::tas))
    ->Arg(static_cast<int>(spin_policy::ttas))
    ->Arg(static_cast<int>(spin_policy::tas_then_ttas))
    ->Arg(static_cast<int>(spin_policy::ttas_backoff));

// Hardware floors: the bare atomics each primitive is built on, so its
// row reads as a multiple of the floor. A simple lock/unlock is an
// exchange plus a release store; a reference clone/release is a fetch_add
// pair on the count.
void BM_BareXchgStore(benchmark::State& state) {
  std::atomic<int> word{0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(word.exchange(1, std::memory_order_acquire));
    word.store(0, std::memory_order_release);
  }
}
BENCHMARK(BM_BareXchgStore);

void BM_BareFetchAddPair(benchmark::State& state) {
  std::atomic<int> count{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(count.fetch_add(1, std::memory_order_relaxed));
    benchmark::DoNotOptimize(count.fetch_sub(1, std::memory_order_acq_rel));
  }
}
BENCHMARK(BM_BareFetchAddPair);

void BM_SimpleLockTry(benchmark::State& state) {
  simple_lock_data_t l;
  simple_lock_init(&l, "bm-try");
  for (auto _ : state) {
    benchmark::DoNotOptimize(simple_lock_try(&l));
    simple_unlock(&l);
  }
}
BENCHMARK(BM_SimpleLockTry);

void BM_ComplexRead(benchmark::State& state) {
  lock_data_t l;
  lock_init(&l, state.range(0) != 0, "bm-read");
  for (auto _ : state) {
    lock_read(&l);
    lock_done(&l);
  }
}
BENCHMARK(BM_ComplexRead)->Arg(0)->Arg(1);  // spin / sleep option

// The read side under concurrency: every benchmark thread reads one shared
// lock. A flag-free reader enters and leaves by one fetch_add on its own
// reader way's line and only loads the shared state word, so CPU per op at
// 4 threads should stay near 1 thread's.
void BM_ComplexReadShared(benchmark::State& state) {
  static lock_data_t l;
  // Threads start the timed loop together, after thread 0's init.
  if (state.thread_index() == 0) lock_init(&l, /*can_sleep=*/true, "bm-read-shared");
  for (auto _ : state) {
    lock_read(&l);
    lock_done(&l);
  }
}
BENCHMARK(BM_ComplexReadShared)->Threads(1)->Threads(2)->Threads(4);

void BM_ComplexWrite(benchmark::State& state) {
  lock_data_t l;
  lock_init(&l, state.range(0) != 0, "bm-write");
  for (auto _ : state) {
    lock_write(&l);
    lock_done(&l);
  }
}
BENCHMARK(BM_ComplexWrite)->Arg(0)->Arg(1);

void BM_ComplexUpgradeDowngrade(benchmark::State& state) {
  lock_data_t l;
  lock_init(&l, true, "bm-upg");
  for (auto _ : state) {
    lock_read(&l);
    benchmark::DoNotOptimize(lock_read_to_write(&l));
    lock_write_to_read(&l);
    lock_done(&l);
  }
}
BENCHMARK(BM_ComplexUpgradeDowngrade);

void BM_RecursiveWrite(benchmark::State& state) {
  lock_data_t l;
  lock_init(&l, true, "bm-rec");
  lock_write(&l);
  lock_set_recursive(&l);
  for (auto _ : state) {
    lock_write(&l);  // recursive acquisition
    lock_done(&l);
  }
  lock_clear_recursive(&l);
  lock_done(&l);
}
BENCHMARK(BM_RecursiveWrite);

void BM_RefCloneRelease(benchmark::State& state) {
  struct plain : kobject {
    plain() : kobject("bm") {}
  };
  auto obj = make_object<plain>();
  for (auto _ : state) {
    obj->ref_clone();
    obj->ref_release();
  }
}
BENCHMARK(BM_RefCloneRelease);

// The refcount under concurrency: every benchmark thread clones and
// releases one shared kobject, as kcache-hot's GETs do on a hot item. The
// atomic row is one count word, so it tracks that line moving between
// cores; the striped row is what an mc_item's count does: one word until a
// clone contends, then a slot per way.
void BM_RefCloneReleaseShared(benchmark::State& state, refcount_policy policy) {
  struct plain : kobject {
    explicit plain(refcount_policy p) : kobject("bm-shared", p) {}
  };
  static plain* obj = nullptr;
  // Threads start the timed loop together, after thread 0's setup, and
  // thread 0 releases the object after they all leave it.
  if (state.thread_index() == 0) obj = new plain(policy);
  for (auto _ : state) {
    obj->ref_clone();
    obj->ref_release();
  }
  if (state.thread_index() == 0) obj->ref_release();
}
BENCHMARK_CAPTURE(BM_RefCloneReleaseShared, atomic, refcount_policy::atomic)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4);
BENCHMARK_CAPTURE(BM_RefCloneReleaseShared, striped, refcount_policy::striped)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4);

void BM_EventShortCircuit(benchmark::State& state) {
  int event = 0;
  for (auto _ : state) {
    assert_wait(&event);
    thread_wakeup(&event);
    benchmark::DoNotOptimize(thread_block());
  }
}
BENCHMARK(BM_EventShortCircuit);

// The wakeup/park hop: the benchmark thread and a kthread pass a turn back
// and forth with thread_sleep / thread_wakeup_one; one iteration is a
// round trip (two wakeups). With spare CPUs thread_block catches each
// wakeup in its spin phase; on one CPU every wait parks on the condvar.
void BM_WakeupHandoff(benchmark::State& state) {
  simple_lock_data_t l;
  simple_lock_init(&l, "bm-handoff");
  int turn = 0;  // under l: whose move it is; -1 stops the partner
  int ev[2];
  auto wait_turn = [&](int me) {
    simple_lock(&l);
    while (turn != me && turn != -1) {
      thread_sleep(&ev[me], &l);
      simple_lock(&l);
    }
    const bool go = turn == me;
    simple_unlock(&l);
    return go;
  };
  auto pass = [&](int to) {
    simple_lock(&l);
    turn = to;
    simple_unlock(&l);
    thread_wakeup_one(&ev[to == -1 ? 1 : to]);
  };
  auto partner = kthread::spawn("bm-handoff", [&] {
    while (wait_turn(1)) pass(0);
  });
  for (auto _ : state) {
    pass(1);
    wait_turn(0);
  }
  pass(-1);
  partner->join();
}
BENCHMARK(BM_WakeupHandoff)->UseRealTime();

// Move the calling thread onto a CPU of its affinity mask other than
// `avoid`, then take the mask back: the thread stays where it was moved.
// A thread spawned in a burst can stay on its spawner's CPU for tens of
// ms, and a partner that spins or polls there holds off the very thread
// it waits for. No-op with one usable CPU.
void move_off_cpu(int avoid) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  if (pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved) != 0 ||
      CPU_COUNT(&saved) < 2) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (cpu == avoid || !CPU_ISSET(cpu, &saved)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) != 0) return;
    while (sched_getcpu() != cpu) std::this_thread::yield();
    pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
    return;
  }
}

// The IPC hop of mc-read: the benchmark thread sends a request to a
// partner kthread blocked in port::receive, which sends it back on a
// second port; one iteration is a round trip. A receive polls its port's
// depth word before it waits, so with spare CPUs neither send makes a
// wakeup call; on one CPU the gate is shut and both receivers park.
void BM_PortHandoff(benchmark::State& state) {
  auto request = make_object<port>("bm-request");
  auto reply = make_object<port>("bm-reply");
  const int home = sched_getcpu();
  std::atomic<bool> ready{false};
  auto partner = kthread::spawn("bm-port-partner", [&] {
    move_off_cpu(home);
    ready.store(true);
    while (std::optional<message> m = request->receive()) reply->send(std::move(*m));
  });
  while (!ready.load()) std::this_thread::yield();
  for (auto _ : state) {
    request->send(message(1));
    benchmark::DoNotOptimize(reply->receive());
  }
  request->destroy_port();
  partner->join();
}
BENCHMARK(BM_PortHandoff)->UseRealTime();

void BM_PortSendReceive(benchmark::State& state) {
  auto p = make_object<port>("bm-port");
  for (auto _ : state) {
    p->send(message(1));
    benchmark::DoNotOptimize(p->try_receive());
  }
}
BENCHMARK(BM_PortSendReceive);

void BM_MsgRpcCounterAdd(benchmark::State& state) {
  ipc_space space;
  auto obj = make_object<counter_object>();
  auto p = make_object<port>("bm-rpc");
  p->set_translation(obj);
  port_name_t name = space.insert(p);
  message reply;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        msg_rpc(space, name, message(OP_COUNTER_ADD, {1}), reply, standard_router()));
  }
}
BENCHMARK(BM_MsgRpcCounterAdd);

}  // namespace

// Expanded BENCHMARK_MAIN() so a trace_session wraps the benchmark run:
// MACHLOCK_TRACE / MACHLOCK_LOCKSTAT / MACHLOCK_METRICS work here like in
// every other bench. MACHLOCK_BENCH_JSON gets google-benchmark's own JSON
// reporter instead of the harness-table collector (this bench prints no
// harness tables); note_external_output keeps trace_session's flush from
// overwriting it with an empty table list.
int main(int argc, char** argv) {
  mach::trace_session trace;
  // Under MACHLOCK_BENCH_JSON, google-benchmark writes its own JSON to
  // the BENCH_<name>.json path via the flags it expects; marking the file
  // external keeps the table-based flush from clobbering it. bench_all
  // later normalizes that file into the common table schema.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag;
  std::string min_time_flag;
  // MACHLOCK_BENCH_MS shortens every other bench; map it onto
  // google-benchmark's per-benchmark min time so CI smoke and bench_all
  // repetitions control this binary's runtime the same way. An explicit
  // --benchmark_min_time on the command line wins.
  bool explicit_min_time = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_min_time", 0) == 0) explicit_min_time = true;
  }
  if (const char* ms = std::getenv("MACHLOCK_BENCH_MS"); ms != nullptr && !explicit_min_time) {
    const int v = std::atoi(ms);
    if (v > 0) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "--benchmark_min_time=%.3f", v / 1000.0);
      min_time_flag = buf;
      args.push_back(min_time_flag.data());
    }
  }
  if (mach::bench_json::active()) {
    const std::string path = mach::bench_json::output_path();
    mach::bench_json::note_external_output(path);
    out_flag = "--benchmark_out=";
    out_flag += path;
    fmt_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
