// mcbench — the repository benchmark.
//
// Drives machcached traffic through the public svc / ipc APIs and reports
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
// mcbench/README.md documents the workloads, every metric, and the phase
// each one comes from. run.py builds this program and is the entry point:
//
//   python3 mcbench/run.py --workload mc-read --seed 1 --seconds 30 --trace 0
//
// The program refuses to run when any MACHLOCK_* variable is set, checks
// every reply against the generator's own model of the cache, and exits
// non-zero on any correctness violation. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/compiler.h"
#include "base/rng.h"
#include "base/stats.h"
#include "ipc/port.h"
#include "kern/object.h"
#include "metrics/kmetrics.h"
#include "metrics/kmon.h"
#include "sched/kthread.h"
#include "svc/machcached.h"
#include "sync/lockstat.h"
#include "trace/ktrace.h"

#ifndef MCBENCH_BUILD_TYPE
#define MCBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

using namespace mach;

namespace {

// --- fixed workload shape ---

constexpr std::uint64_t kKeys = 4096;     // keyspace, prefilled once
constexpr std::size_t kValueWords = 8;    // words per value
constexpr int kWindow = 16;               // closed loop: requests in flight
constexpr int kSetupReps = 15;            // setup_s is the median of these
constexpr int kWindows = 50;              // rates and quantiles: median over windows
constexpr int kHotThreads = 3;            // kcache-hot callers
constexpr std::uint64_t kHotKeys = 16;    // kcache-hot hot set
constexpr std::uint64_t kHotPct = 90;     // share of draws from the hot set
constexpr std::uint64_t kHotSampleMask = 15;  // untraced: time 1 call in 16
constexpr std::size_t kSpanCap = std::size_t{1} << 20;  // spans kept per log
constexpr std::uint64_t kReplyTimeoutNs = 2'000'000'000;

struct workload {
  const char* name;
  const char* why;
  bool ipc;
  std::uint64_t read_pct;  // GET share; writes split SET 7 : DEL 1
  double open_rate;        // open-loop offered rate, ops/s
};

constexpr workload kWorkloads[] = {
    {"mc-read",
     "95% GET over IPC: time goes to port send/receive, worker wakeup/park and dispatch",
     true, 95, 50000.0},
    {"mc-write",
     "50% GET / 50% writes over IPC: adds write holds, zalloc and kobject create/destroy",
     true, 50, 30000.0},
    {"kcache-hot",
     "3 threads call mc_cache::get on 16 hot keys: read holds and refcounts only, no IPC",
     false, 100, 0.0},
};

// --- options and host ---

struct options {
  const workload* wl = nullptr;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string src_hash = "unknown";
};

bool parse_args(int argc, char** argv, options& o) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      for (const workload& w : kWorkloads) {
        if (v == w.name) o.wl = &w;
      }
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--out-dir") {
      o.out_dir = v;
    } else if (k == "--git-sha") {
      o.git_sha = v;
    } else if (k == "--src-hash") {
      o.src_hash = v;
    } else {
      return false;
    }
  }
  return o.wl != nullptr && o.seconds >= 1.0 && o.seconds <= 120.0;
}

// The first MACHLOCK_* variable in the environment, or empty. Those knobs
// (refcount policy, shard count, trace planes) change the program being
// measured, so a run refuses them.
std::string machlock_env_var() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MACHLOCK_", 9) == 0) {
      const char* eq = std::strchr(*e, '=');
      return eq == nullptr ? std::string(*e) : std::string(*e, static_cast<std::size_t>(eq - *e));
    }
  }
  return {};
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

// Whole-machine CPU ticks from /proc/stat, to report the share the
// hypervisor took (steal) while a run measured. On a shared virtual
// machine that share moves every timing this benchmark reports.
struct cpu_ticks {
  double steal = 0.0;
  double total = 0.0;
};

cpu_ticks read_cpu_ticks() {
  cpu_ticks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.steal = static_cast<double>(v[7]);
    for (unsigned long long x : v) t.total += static_cast<double>(x);
  }
  std::fclose(f);
  return t;
}

// --- statistics over raw samples ---

// Nearest-rank quantile of raw samples, with how many samples lie beyond
// it. A percentile is reportable only with at least ten beyond it.
struct quantile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

quantile exact_quantile(std::vector<std::uint32_t>& v, double q) {
  quantile r;
  r.n = v.size();
  if (v.empty()) return r;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  r.value = v[rank - 1];
  r.beyond = v.size() - rank;
  return r;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

// A quantile reported as the median of per-window quantiles, so a few
// disturbed windows (the hypervisor descheduling a virtual CPU) do not set
// it. min_beyond shows that each window has ten samples beyond its quantile.
struct windowed_quantile {
  double value = 0.0;
  std::size_t n = 0;           // samples across all windows
  std::size_t min_beyond = 0;  // fewest samples beyond it in any window
  int windows = 0;
};

windowed_quantile windowed(std::vector<std::vector<std::uint32_t>>& wins, double q) {
  windowed_quantile r;
  std::vector<double> vals;
  for (auto& w : wins) {
    if (w.empty()) continue;
    const quantile x = exact_quantile(w, q);
    vals.push_back(x.value);
    r.n += x.n;
    r.min_beyond = vals.size() == 1 ? x.beyond : std::min(r.min_beyond, x.beyond);
  }
  r.value = median(vals);
  r.windows = static_cast<int>(vals.size());
  return r;
}

double frac(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint32_t clamp32(std::uint64_t v) {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(v, UINT32_MAX));
}

// --- failures ---

struct failures {
  std::uint64_t count = 0;
  std::string first;

  void add(const std::string& why) {
    if (count++ == 0) first = why;
  }
};

// --- values: a pure function of (key, version), so any reply can be checked ---

std::uint64_t value_word(std::uint64_t key, std::uint32_t version, std::size_t i) {
  return ((key << 32) | version) * 0x9e3779b97f4a7c15ull + i * 0xd6e8feb86659fd93ull;
}

void fill_value(std::uint64_t key, std::uint32_t version, std::uint64_t* out) {
  for (std::size_t i = 0; i < kValueWords; ++i) out[i] = value_word(key, version, i);
}

bool value_matches(std::uint64_t key, std::uint32_t version, const std::uint64_t* words,
                   std::size_t len) {
  if (len != kValueWords) return false;
  for (std::size_t i = 0; i < kValueWords; ++i) {
    if (words[i] != value_word(key, version, i)) return false;
  }
  return true;
}

// --- the benchmark's own spans around its calls into svc / ipc ---

struct span {
  std::uint64_t start_ns;
  std::uint32_t dur_ns;
  std::uint32_t req;  // request sequence number (the key in the final sweep; 0: none)
};

// Spans are kept in memory (up to kSpanCap per log, counting the rest as
// dropped) and written out when the run ends.
class span_log {
 public:
  span_log(std::string name, std::size_t reserve = kSpanCap) : name_(std::move(name)) {
    spans_.reserve(reserve);
  }
  void add(std::uint64_t start, std::uint64_t end, std::uint64_t req) {
    if (spans_.size() == kSpanCap) {
      ++dropped_;
      return;
    }
    spans_.push_back({start, clamp32(end - start), static_cast<std::uint32_t>(req)});
  }
  const std::string& name() const noexcept { return name_; }
  const std::vector<span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::vector<std::uint32_t> durations() const {
    std::vector<std::uint32_t> d;
    d.reserve(spans_.size());
    for (const span& s : spans_) d.push_back(s.dur_ns);
    return d;
  }

 private:
  std::string name_;
  std::vector<span> spans_;
  std::uint64_t dropped_ = 0;
};

// Spans file: one JSON header line naming each log, then the logs' raw
// span records ({u64 start_ns, u32 dur_ns, u32 req}, native byte order)
// in header order.
void write_spans(const std::string& path, const std::vector<const span_log*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  bool ok = f != nullptr;
  if (ok) {
    std::string hdr = "{\"format\":\"mcbench-spans-v1\",\"record_bytes\":16,\"logs\":[";
    for (std::size_t i = 0; i < logs.size(); ++i) {
      hdr += (i ? "," : "");
      hdr += "{\"name\":\"" + logs[i]->name() + "\",\"count\":" +
             std::to_string(logs[i]->spans().size()) +
             ",\"dropped\":" + std::to_string(logs[i]->dropped()) + "}";
    }
    hdr += "]}\n";
    ok = std::fwrite(hdr.data(), 1, hdr.size(), f) == hdr.size();
    for (const span_log* l : logs) {
      const auto& s = l->spans();
      ok = ok && std::fwrite(s.data(), sizeof(span), s.size(), f) == s.size();
    }
    ok = std::fclose(f) == 0 && ok;
  }
  std::printf("spans: %s %s\n", ok ? "wrote" : "FAILED to write", path.c_str());
}

// --- the served world: cache (+ server), prefilled ---

struct world {
  std::unique_ptr<mc_cache> cache;
  std::unique_ptr<machcached_server> server;
  std::vector<std::uint32_t> version;  // the generator's model; 0 = absent
};

struct setup_sample {
  double seconds = 0.0;
  double bytes_per_item = 0.0;
};

// Cache construction, prefill and server start, up to the first request.
// Every config field except the zone size stays at the library default.
setup_sample build_world(world& w, bool with_server) {
  setup_sample s;
  const std::uint64_t t0 = now_nanos();
  mc_cache_config cfg;
  cfg.max_items = 2 * kKeys;  // an overwrite briefly holds two blocks
  cfg.value_words = kValueWords;
  w.cache = std::make_unique<mc_cache>(cfg);
  w.version.assign(kKeys, 1);
  const std::size_t heap0 = mallinfo2().uordblks;
  std::uint64_t value[kValueWords];
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    fill_value(k, 1, value);
    if (w.cache->set(k, value, kValueWords) != KERN_SUCCESS) w.version[k] = 0;
  }
  const std::size_t heap1 = mallinfo2().uordblks;
  if (with_server) w.server = std::make_unique<machcached_server>(*w.cache);
  s.seconds = static_cast<double>(now_nanos() - t0) / 1e9;
  s.bytes_per_item =
      static_cast<double>(heap1 > heap0 ? heap1 - heap0 : 0) / static_cast<double>(kKeys);
  return s;
}

void destroy_world(world& w) {
  if (w.server) w.server->stop();
  w.server.reset();
  w.cache.reset();
}

// Every key must read back as the model says, through a direct
// mc_cache::get (timed into `log` when tracing).
void verify_cache(world& w, failures& fail, span_log* log) {
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint64_t t0 = now_nanos();
    ref_ptr<mc_item> it = w.cache->get(k);
    if (log != nullptr) log->add(t0, now_nanos(), k);
    if (w.version[k] == 0) {
      if (it) fail.add("final sweep: key " + std::to_string(k) + " present, model says absent");
    } else if (!it || !value_matches(k, w.version[k], it->value(), it->size())) {
      fail.add("final sweep: key " + std::to_string(k) + " missing or wrong value");
    }
  }
}

// --- the seeded request stream (inputs depend on the seed alone) ---

struct request {
  std::uint64_t key = 0;
  std::uint32_t op = MC_GET;
};

class request_stream {
 public:
  request_stream(std::uint64_t seed, std::uint64_t read_pct) : rng_(seed), read_pct_(read_pct) {}
  request next() {
    request r;
    r.key = rng_.next_below(kKeys);
    if (rng_.next_below(100) < read_pct_) {
      r.op = MC_GET;
    } else {
      r.op = rng_.next_below(8) == 0 ? MC_DEL : MC_SET;
    }
    return r;
  }

 private:
  xorshift64 rng_;
  std::uint64_t read_pct_;
};

// --- the IPC client: one generator thread, one reply port ---

struct phase_result {
  std::uint64_t ops = 0;  // verified completions inside the phase
  std::vector<std::uint64_t> window_ops;               // closed loop
  double window_seconds = 0.0;
  double rtt_sum_ns = 0.0;                             // closed loop
  std::vector<std::vector<std::uint32_t>> window_lat;  // open loop, from due time
  std::vector<std::uint32_t> late;                     // open loop, send lateness
  std::uint64_t sends = 0;
  std::uint64_t refused = 0;

  double rate_median() const {
    std::vector<double> r;
    for (std::uint64_t c : window_ops) r.push_back(static_cast<double>(c) / window_seconds);
    return median(r);
  }
};

class ipc_client {
 public:
  ipc_client(world& w, std::uint64_t seed, std::uint64_t read_pct, failures& fail)
      : w_(w),
        service_(w.server->service()),
        reply_(make_object<port>("mcbench-reply")),
        stream_(seed, read_pct),
        fail_(fail),
        slots_(kSlots),
        inflight_reads_(kKeys, 0),
        inflight_write_(kKeys, 0) {}

  // Where the next phases record their port::send and reply-wait spans
  // (null: not recorded).
  void trace_into(span_log* send, span_log* wait) {
    send_log_ = send;
    wait_log_ = wait;
  }

  // Closed loop: keep kWindow requests in flight for `dur_ns`.
  void closed_loop(phase_result& r, std::uint64_t dur_ns) {
    begin(r, false, dur_ns);
    r.window_ops.assign(kWindows, 0);
    while (!broken_ && now_nanos() < end_) {
      while (in_flight_ < kWindow && !broken_ && can_send(peek())) send(take(), now_nanos());
      if (in_flight_ > 0) wait_one();
    }
    finish();
  }

  // Open loop: one send every 1/rate seconds on a fixed schedule; replies
  // are drained with try_receive between sends, and every request is
  // timed from when it was due.
  void open_loop(phase_result& r, std::uint64_t dur_ns, double rate) {
    const double period = 1e9 / rate;
    open_n_ = static_cast<std::uint64_t>(static_cast<double>(dur_ns) / period);
    begin(r, true, dur_ns);
    r.window_lat.assign(kWindows, {});
    r.late.reserve(open_n_);
    for (open_index_ = 0; open_index_ < open_n_ && !broken_; ++open_index_) {
      const std::uint64_t due =
          t0_ + static_cast<std::uint64_t>(static_cast<double>(open_index_) * period);
      while (now_nanos() < due) poll();
      while (!can_send(peek()) && !broken_) poll();
      r.late.push_back(clamp32(send(take(), due) - due));
    }
    finish();
  }

  std::uint64_t sent() const noexcept { return sent_; }
  std::uint64_t replied() const noexcept { return replied_; }
  std::uint64_t attempted() const noexcept { return attempted_; }

 private:
  static constexpr std::size_t kSlots = std::size_t{1} << 16;

  struct slot {
    std::uint64_t seq = 0;
    std::uint64_t t0 = 0;      // send time (closed) or due time (open)
    std::uint64_t window = 0;  // open loop: latency window of the due time
    std::uint64_t key = 0;
    std::uint32_t op = 0;
    std::uint32_t expect = 0;  // model version at send (0 = absent)
    bool busy = false;
  };

  void begin(phase_result& r, bool open, std::uint64_t dur_ns) {
    ph_ = &r;
    open_ = open;
    t0_ = now_nanos();
    end_ = t0_ + dur_ns;
    win_ns_ = std::max<std::uint64_t>(dur_ns / kWindows, 1);
    first_seq_ = next_seq_;
    r.window_seconds = static_cast<double>(win_ns_) / 1e9;
  }

  // Wait out every request of the phase, then stop attributing replies.
  void finish() {
    while (in_flight_ > 0 && !broken_) wait_one();
    ph_ = nullptr;
  }

  const request& peek() {
    if (!pending_) pending_ = stream_.next();
    return *pending_;
  }
  request take() {
    request r = peek();
    pending_.reset();
    return r;
  }

  // A request may not overlap an in-flight write to its key (nor a write
  // an in-flight read), so the model predicts every reply exactly.
  bool can_send(const request& q) const {
    if (slots_[next_seq_ & (kSlots - 1)].busy) return false;
    if (inflight_write_[q.key] != 0) return false;
    return q.op == MC_GET || inflight_reads_[q.key] == 0;
  }

  // Returns the time the send returned.
  std::uint64_t send(const request& q, std::uint64_t t0) {
    const std::uint64_t seq = next_seq_++;
    slot& s = slots_[seq & (kSlots - 1)];
    s.seq = seq;
    s.t0 = t0;
    s.window = open_ ? open_index_ * kWindows / std::max<std::uint64_t>(open_n_, 1) : 0;
    s.key = q.key;
    s.op = q.op;
    s.expect = w_.version[q.key];
    message m(q.op);
    if (q.op == MC_SET) {
      m.data.resize(2 + kValueWords);
      m.data[0] = q.key;
      m.data[1] = seq;
      fill_value(q.key, next_version_, m.data.data() + 2);
    } else {
      m.data = {q.key, seq};
    }
    m.reply_to = reply_;
    ++attempted_;
    if (ph_ != nullptr) ++ph_->sends;
    const std::uint64_t ts = now_nanos();
    const kern_return_t kr = service_.send(std::move(m));
    const std::uint64_t te = now_nanos();
    if (send_log_ != nullptr) send_log_->add(ts, te, seq);
    if (kr != KERN_SUCCESS) {
      if (ph_ != nullptr) ++ph_->refused;
      fail_.add(std::string("send refused: ") + to_string(kr));
      if (kr == KERN_TERMINATED) broken_ = true;
      return te;
    }
    s.busy = true;
    ++sent_;
    ++in_flight_;
    if (q.op == MC_GET) {
      ++inflight_reads_[q.key];
    } else {
      inflight_write_[q.key] = 1;
      w_.version[q.key] = q.op == MC_SET ? next_version_++ : 0;
    }
    return te;
  }

  void poll() {
    std::optional<message> m = reply_->try_receive();
    if (m) absorb(*m, now_nanos());
  }

  // The generator polls its reply port rather than blocking in receive, so
  // its own CPU never idles and the client's wakeup is not part of what is
  // measured; a reply missing for kReplyTimeoutNs fails the run.
  void wait_one() {
    const std::uint64_t ts = now_nanos();
    std::optional<message> m;
    while (!(m = reply_->try_receive())) {
      if (now_nanos() - ts > kReplyTimeoutNs) {
        fail_.add("reply timeout with " + std::to_string(in_flight_) + " in flight");
        broken_ = true;
        return;
      }
      cpu_relax();
    }
    const std::uint64_t te = now_nanos();
    if (wait_log_ != nullptr) wait_log_->add(ts, te, m->data.empty() ? 0 : m->data[0]);
    absorb(*m, te);
  }

  void absorb(const message& m, std::uint64_t now) {
    if (m.data.empty()) {
      fail_.add("reply without a stamp");
      return;
    }
    const std::uint64_t seq = m.data[0];
    slot& s = slots_[seq & (kSlots - 1)];
    if (!s.busy || s.seq != seq) {
      fail_.add("reply for request " + std::to_string(seq) + " that is not in flight");
      return;
    }
    s.busy = false;
    --in_flight_;
    ++replied_;
    if (s.op == MC_GET) {
      --inflight_reads_[s.key];
    } else {
      inflight_write_[s.key] = 0;
    }
    if (!reply_ok(m, s)) {
      fail_.add("wrong reply to op " + std::to_string(s.op) + " key " + std::to_string(s.key) +
                ": ret " + to_string(m.ret) + ", " + std::to_string(m.data.size()) + " words");
      return;
    }
    if (ph_ == nullptr || seq < first_seq_) return;
    if (open_) {
      ph_->window_lat[s.window].push_back(clamp32(now - s.t0));
      ++ph_->ops;
    } else if (now < end_) {
      ++ph_->window_ops[std::min<std::uint64_t>((now - t0_) / win_ns_, kWindows - 1)];
      ph_->rtt_sum_ns += static_cast<double>(now - s.t0);
      ++ph_->ops;
    }
  }

  static bool reply_ok(const message& m, const slot& s) {
    if (m.op != s.op) return false;
    switch (s.op) {
      case MC_GET:
        if (s.expect == 0) return m.ret == KERN_INVALID_NAME && m.data.size() == 1;
        return m.ret == KERN_SUCCESS && m.data.size() == 1 + kValueWords &&
               value_matches(s.key, s.expect, m.data.data() + 1, kValueWords);
      case MC_SET:
        return m.ret == KERN_SUCCESS && m.data.size() == 1;
      case MC_DEL:
        return m.ret == (s.expect != 0 ? KERN_SUCCESS : KERN_INVALID_NAME) && m.data.size() == 1;
      default:
        return false;
    }
  }

  world& w_;
  port& service_;
  ref_ptr<port> reply_;
  request_stream stream_;
  std::optional<request> pending_;
  failures& fail_;
  std::vector<slot> slots_;
  std::vector<std::uint32_t> inflight_reads_;
  std::vector<std::uint8_t> inflight_write_;
  span_log* send_log_ = nullptr;
  span_log* wait_log_ = nullptr;

  std::uint64_t next_seq_ = 1;
  std::uint32_t next_version_ = 2;  // prefill wrote version 1
  int in_flight_ = 0;
  std::uint64_t attempted_ = 0, sent_ = 0, replied_ = 0;
  bool broken_ = false;

  // the current phase
  phase_result* ph_ = nullptr;
  bool open_ = false;
  std::uint64_t t0_ = 0, end_ = 0, win_ns_ = 1, first_seq_ = 0;
  std::uint64_t open_index_ = 0, open_n_ = 0;
};

// --- kcache-hot: direct mc_cache::get callers ---

struct alignas(64) hot_caller {
  std::atomic<std::uint64_t> ops{0};
  failures fail;
  std::vector<std::vector<std::uint32_t>> lat;  // per window
  std::unique_ptr<span_log> gets;
};

struct hot_result {
  std::vector<double> window_rate;
  std::vector<std::vector<std::uint32_t>> window_lat;
  std::uint64_t ops = 0;
  std::vector<std::unique_ptr<span_log>> spans;  // one per caller, traced only
};

// kHotThreads callers draw 90% of keys from a seeded hot set of 16 and 10%
// from the whole keyspace and check every value. Untraced, one call in 16
// is timed into per-window samples; traced, every call is kept as a span.
hot_result hot_phase(world& w, std::uint64_t seed, std::uint64_t dur_ns, bool trace,
                     failures& fail) {
  xorshift64 pick(seed ^ 0x486f744b657973ull);
  std::vector<std::uint64_t> hot;
  while (hot.size() < kHotKeys) {
    const std::uint64_t k = pick.next_below(kKeys);
    if (std::find(hot.begin(), hot.end(), k) == hot.end()) hot.push_back(k);
  }
  std::vector<std::unique_ptr<hot_caller>> callers;
  for (int i = 0; i < kHotThreads; ++i) {
    auto c = std::make_unique<hot_caller>();
    c->lat.assign(kWindows, {});
    if (trace) c->gets = std::make_unique<span_log>("svc.get." + std::to_string(i));
    callers.push_back(std::move(c));
  }
  std::atomic<int> window{0};
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<kthread>> threads;
  for (int i = 0; i < kHotThreads; ++i) {
    hot_caller* c = callers[static_cast<std::size_t>(i)].get();
    threads.push_back(kthread::spawn("mcbench-hot-" + std::to_string(i), [&, c, i] {
      xorshift64 rng(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(i) + 1);
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t key = rng.next_below(100) < kHotPct ? hot[rng.next_below(kHotKeys)]
                                                                : rng.next_below(kKeys);
        const bool timed = trace || (n & kHotSampleMask) == 0;
        const std::uint64_t t0 = timed ? now_nanos() : 0;
        ref_ptr<mc_item> it = w.cache->get(key);
        if (timed) {
          const std::uint64_t t1 = now_nanos();
          if (trace) {
            c->gets->add(t0, t1, 0);
          } else {
            c->lat[static_cast<std::size_t>(window.load(std::memory_order_relaxed))].push_back(
                clamp32(t1 - t0));
          }
        }
        if (!it || !value_matches(key, w.version[key], it->value(), it->size())) {
          c->fail.add("kcache-hot: key " + std::to_string(key) + " missing or wrong value");
        }
        c->ops.store(++n, std::memory_order_relaxed);
      }
    }));
  }
  auto total = [&] {
    std::uint64_t s = 0;
    for (auto& c : callers) s += c->ops.load(std::memory_order_relaxed);
    return s;
  };
  hot_result r;
  const std::uint64_t win_ns = dur_ns / kWindows;
  const std::uint64_t t0 = now_nanos();
  std::uint64_t prev_t = t0;
  std::uint64_t prev_ops = total();
  for (int i = 0; i < kWindows; ++i) {
    window.store(i, std::memory_order_relaxed);
    const std::uint64_t until = t0 + static_cast<std::uint64_t>(i + 1) * win_ns;
    for (std::uint64_t t = now_nanos(); t < until; t = now_nanos()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(until - t));
    }
    const std::uint64_t t = now_nanos();
    const std::uint64_t ops = total();
    r.window_rate.push_back(static_cast<double>(ops - prev_ops) * 1e9 /
                            static_cast<double>(t - prev_t));
    prev_t = t;
    prev_ops = ops;
  }
  stop.store(true);
  for (auto& t : threads) t->join();
  r.ops = total();
  r.window_lat.assign(kWindows, {});
  for (auto& c : callers) {
    for (std::size_t i = 0; i < kWindows; ++i) {
      r.window_lat[i].insert(r.window_lat[i].end(), c->lat[i].begin(), c->lat[i].end());
    }
    if (c->fail.count > 0) {
      fail.add(c->fail.first);
      fail.count += c->fail.count - 1;
    }
    if (c->gets) r.spans.push_back(std::move(c->gets));
  }
  return r;
}

// --- counter snapshots for the traced run ---

constexpr const char* kLayerLocks[] = {"mc-shard", "mc-service", "event-bucket", "mc-items",
                                       "mc-item"};

// kmon counters and cache statistics: atomics, safe to read while the
// server runs.
struct counters {
  std::uint64_t blocks = 0, wakeups = 0, wakeups_none = 0;
  latency_histogram block_hist, serve_hist;
  std::uint64_t ref_ops = 0, lockref_fast = 0, lockref_slow = 0;
  std::uint64_t zallocs = 0, zsleeps = 0;
  std::uint64_t gets = 0, hits = 0;

  static counters take(const mc_cache& cache) {
    counters c;
    kmetrics_t& k = kmet();
    c.blocks = k.sched_blocks.value();
    c.wakeups = k.sched_wakeups.value();
    c.wakeups_none = k.sched_wakeups_no_waiter.value();
    c.block_hist = k.sched_block_nanos.merged();
    c.serve_hist = k.svc_serve_nanos.merged();
    c.ref_ops = k.kern_ref_takes.value() + k.kern_ref_releases.value();
    c.lockref_fast = k.kern_lockref_fast.value();
    c.lockref_slow = k.kern_lockref_slow.value();
    c.zallocs = k.kern_zalloc_allocs.value();
    c.zsleeps = k.kern_zalloc_sleeps.value();
    const mc_cache_stats s = cache.stats();
    c.gets = s.gets;
    c.hits = s.hits;
    return c;
  }
};

// lock_registry snapshots read each lock's counters without its lock, so
// they are taken only while no other thread runs (server stopped, callers
// joined).
using lock_snapshot = std::vector<lock_stat_entry>;

lock_snapshot quiescent_locks() { return lock_registry::instance().snapshot(); }

double hist_mean_delta(const latency_histogram& a, const latency_histogram& b) {
  return frac(static_cast<double>(b.total_nanos() - a.total_nanos()),
              static_cast<double>(b.count() - a.count()));
}

// Per-name lock deltas between two registry snapshots. A lock is matched
// by address and kind (a complex lock and its interlock share an address);
// one whose counts went down was recycled and counts whole. Locks created
// and destroyed between the snapshots are not seen.
struct lock_delta {
  std::uint64_t acq = 0;
  std::uint64_t contended = 0;
  double wait_p50_ns = 0.0;  // lockstat log2 bucket bound, sample-weighted median
  std::uint64_t wait_samples = 0;
};

lock_delta lock_delta_for(const char* name, const lock_snapshot& a, const lock_snapshot& b) {
  std::map<std::pair<const void*, bool>, const lock_stat_entry*> before;
  for (const auto& e : a) {
    if (std::strcmp(e.name, name) == 0) before[{e.address, e.is_complex}] = &e;
  }
  lock_delta d;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> waits;  // (p50, samples)
  for (const auto& e : b) {
    if (std::strcmp(e.name, name) != 0) continue;
    std::uint64_t acq0 = 0, cont0 = 0;
    auto it = before.find({e.address, e.is_complex});
    if (it != before.end() && it->second->acquisitions <= e.acquisitions &&
        it->second->contended <= e.contended) {
      acq0 = it->second->acquisitions;
      cont0 = it->second->contended;
    }
    d.acq += e.acquisitions - acq0;
    d.contended += e.contended - cont0;
    if (e.wait_samples > 0) waits.emplace_back(e.wait_p50_nanos, e.wait_samples);
  }
  std::sort(waits.begin(), waits.end());
  for (const auto& w : waits) d.wait_samples += w.second;
  std::uint64_t acc = 0;
  for (const auto& w : waits) {
    acc += w.second;
    if (2 * acc >= d.wait_samples) {
      d.wait_p50_ns = static_cast<double>(w.first);
      break;
    }
  }
  return d;
}

// --- reporting ---

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string samples;  // sample count, as printed
  std::string source;
};

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_table(const char* title, const std::vector<metric>& ms) {
  std::printf("%s\n", title);
  std::printf("  %-32s %14s %-7s %-30s %s\n", "metric", "value", "unit", "samples", "source");
  for (const metric& m : ms) {
    std::printf("  %-32s %14.6g %-7s %-30s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples.c_str(), m.source.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric>& ms) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + num(attempted) + ", \"failed\": " + num(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "");
    out += "\"" + ms[i].name + "\": {\"value\": " + fmt(ms[i].value) + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

metric latency_metric(const char* name, windowed_quantile q, int pct) {
  return {name, q.value / 1e3, "us",
          num(q.n) + " in " + std::to_string(q.windows) + " windows",
          "median of per-window p" + std::to_string(pct) + "; >= " + num(q.min_beyond) +
              " beyond it in each window"};
}

struct run_state {
  explicit run_state(const options& o) : opt(o) {}
  const options& opt;
  failures fail;
  std::uint64_t attempted = 0;
  std::vector<metric> gated;  // the JSON metrics: end-to-end or per-layer
  std::vector<metric> info;   // printed only
};

// Repeated setups: setup_s and bytes_per_item are medians over them. The
// last world stays up for the measurement.
void measure_setup(run_state& st, world& w, bool with_server) {
  std::vector<double> secs, bytes;
  for (int i = 0; i < kSetupReps; ++i) {
    if (i > 0) destroy_world(w);
    const setup_sample s = build_world(w, with_server);
    secs.push_back(s.seconds);
    bytes.push_back(s.bytes_per_item);
  }
  st.gated.push_back({"bytes_per_item", median(bytes), "B/item",
                      num(kSetupReps) + " setups of " + num(kKeys) + " items",
                      "median heap growth across the prefill, per item"});
  st.gated.push_back({"setup_s", median(secs), "s", num(kSetupReps) + " setups",
                      std::string("median cache + prefill") + (with_server ? " + server" : "") +
                          " construction"});
}

// sync (between lock snapshots la, lb), kern and svc.hit_frac (between
// counters a, b) over `ops` operations.
void shared_layer_metrics(std::vector<metric>& L, const counters& a, const counters& b,
                          const lock_snapshot& la, const lock_snapshot& lb, std::uint64_t ops,
                          const std::string& on, const std::string& on_locks) {
  const double n = static_cast<double>(ops);
  for (const char* name : kLayerLocks) {
    const lock_delta d = lock_delta_for(name, la, lb);
    const std::string p = std::string("sync.") + name;
    L.push_back(
        {p + ".acq_per_op", frac(static_cast<double>(d.acq), n), "1/op", num(ops), on_locks});
    L.push_back({p + ".contended_frac",
                 frac(static_cast<double>(d.contended), static_cast<double>(d.acq)), "frac",
                 num(d.acq), on_locks});
    L.push_back({p + ".wait_ns_p50", d.wait_p50_ns, "ns", num(d.wait_samples),
                 on_locks + "; lockstat log2 bucket bound"});
  }
  L.push_back({"kern.ref_ops_per_op", frac(static_cast<double>(b.ref_ops - a.ref_ops), n), "1/op",
               num(ops), on});
  const double lf = static_cast<double>(b.lockref_fast - a.lockref_fast);
  const double ls = static_cast<double>(b.lockref_slow - a.lockref_slow);
  L.push_back({"kern.lockref_slow_frac", frac(ls, lf + ls), "frac", fmt(lf + ls),
               on + "; 0 when lockref is not the policy"});
  L.push_back({"kern.zalloc_per_op", frac(static_cast<double>(b.zallocs - a.zallocs), n), "1/op",
               num(ops), on});
  L.push_back({"kern.zalloc_sleeps", static_cast<double>(b.zsleeps - a.zsleeps), "count", "-",
               on});
  L.push_back({"svc.hit_frac",
               frac(static_cast<double>(b.hits - a.hits), static_cast<double>(b.gets - a.gets)),
               "frac", num(b.gets - a.gets), on});
}

void sched_layer_metrics(std::vector<metric>& L, const counters& a, const counters& b,
                         std::uint64_t ops, const std::string& on) {
  L.push_back({"sched.blocks_per_op",
               frac(static_cast<double>(b.blocks - a.blocks), static_cast<double>(ops)), "1/op",
               num(ops), on});
  L.push_back({"sched.block_ns_mean", hist_mean_delta(a.block_hist, b.block_hist), "ns",
               num(b.block_hist.count() - a.block_hist.count()), on});
  const double wk = static_cast<double>(b.wakeups - a.wakeups);
  L.push_back({"sched.wakeup_useful_frac",
               frac(wk, wk + static_cast<double>(b.wakeups_none - a.wakeups_none)), "frac",
               num(b.wakeups - a.wakeups + b.wakeups_none - a.wakeups_none), on});
}

// kmon counters and the lockstat hold/wait clocks, through their public
// switches.
void trace_on() {
  kmon::enable();
  ktrace::enable();
}

void trace_off() {
  ktrace::disable();
  kmon::disable();
}

// Ends a world: server stop (then `locks`, if asked, while nothing else
// runs), message conservation, the final sweep, the quiesce invariant,
// teardown.
void finish_world(run_state& st, world& w, const ipc_client* client, span_log* sweep,
                  lock_snapshot* locks = nullptr) {
  if (client != nullptr) {
    w.server->stop();
    st.attempted += client->attempted();
    const std::uint64_t sent = client->sent();
    const std::uint64_t served = w.server->served();
    const std::uint64_t accepted = w.server->service().sends_ok();
    if (client->replied() != sent || served != sent || accepted != sent) {
      st.fail.add("message conservation: client sent " + num(sent) + ", port accepted " +
                  num(accepted) + ", served " + num(served) + ", replied " +
                  num(client->replied()));
    }
  }
  if (locks != nullptr) *locks = quiescent_locks();
  verify_cache(w, st.fail, sweep);
  std::string why;
  if (!w.cache->check_quiesced(&why)) st.fail.add("quiesce invariant: " + why);
  destroy_world(w);
}

std::uint64_t stream_seed(const options& o) {
  return o.seed * 0x9e3779b97f4a7c15ull + o.wl->read_pct;
}

void run_ipc(run_state& st) {
  const options& o = st.opt;
  const workload& wl = *o.wl;
  const auto total_ns = static_cast<std::uint64_t>(o.seconds * 1e9);
  world w;
  if (!o.trace) {
    measure_setup(st, w, true);
    ipc_client client(w, stream_seed(o), wl.read_pct, st.fail);
    phase_result closed, open;
    client.closed_loop(closed, total_ns / 2);
    client.open_loop(open, total_ns / 2, wl.open_rate);
    finish_world(st, w, &client, nullptr);
    st.gated.insert(st.gated.begin(),
                    {{"throughput_ops_s", closed.rate_median(), "ops/s",
                      num(kWindows) + " windows, " + num(closed.ops) + " ops",
                      "closed loop, " + num(kWindow) + " in flight; median window"},
                     latency_metric("latency_p50_us", windowed(open.window_lat, 0.50), 50)});
    st.info.push_back(latency_metric("latency_p99_us", windowed(open.window_lat, 0.99), 99));
    const quantile late = exact_quantile(open.late, 0.99);
    st.info.push_back({"gen.late_p99_us", late.value / 1e3, "us", num(late.n),
                       "open loop at " + fmt(wl.open_rate) + " ops/s"});
    return;
  }
  // Three worlds with the same seeded stream: an untraced closed loop for
  // reference, the same closed loop traced, then a traced open loop.
  // svc / sync / kern and the reply wait come from the traced closed loop
  // (at capacity); ipc.send, sched and gen from the open loop, where
  // workers park between requests. Lock snapshots bracket the traced
  // closed-loop world (its prefill and final sweep included) because they
  // may only be taken with the server stopped.
  phase_result ref, closed, open;
  span_log closed_send("ipc.send.closed"), closed_wait("ipc.reply_wait.closed");
  span_log open_send("ipc.send.open"), open_wait("ipc.reply_wait.open");
  span_log sweep("svc.get.sweep", kKeys);
  lock_snapshot l0, l1;
  counters c0, c1, c2, c3;
  {
    build_world(w, true);
    ipc_client client(w, stream_seed(o), wl.read_pct, st.fail);
    client.closed_loop(ref, total_ns / 4);
    finish_world(st, w, &client, nullptr);
  }
  // After teardown, so no lock of the next world can reuse an address seen
  // here.
  l0 = quiescent_locks();
  trace_on();
  {
    build_world(w, true);
    ipc_client client(w, stream_seed(o), wl.read_pct, st.fail);
    client.trace_into(&closed_send, &closed_wait);
    c0 = counters::take(*w.cache);
    client.closed_loop(closed, total_ns / 4);
    c1 = counters::take(*w.cache);
    client.trace_into(nullptr, nullptr);
    finish_world(st, w, &client, &sweep, &l1);
  }
  {
    build_world(w, true);
    ipc_client client(w, stream_seed(o), wl.read_pct, st.fail);
    client.trace_into(&open_send, &open_wait);
    c2 = counters::take(*w.cache);
    client.open_loop(open, total_ns / 2, wl.open_rate);
    c3 = counters::take(*w.cache);
    client.trace_into(nullptr, nullptr);
    finish_world(st, w, &client, nullptr);
  }
  trace_off();

  const std::string on_c = "traced closed loop";
  const std::string on_o = "traced open loop";
  auto send_d = open_send.durations();
  auto wait_d = closed_wait.durations();
  auto get_d = sweep.durations();
  const quantile sq = exact_quantile(send_d, 0.5);
  const quantile wq = exact_quantile(wait_d, 0.5);
  const quantile gq = exact_quantile(get_d, 0.5);
  const quantile late = exact_quantile(open.late, 0.99);
  const double serve = hist_mean_delta(c0.serve_hist, c1.serve_hist);
  auto& L = st.gated;
  L.push_back({"ipc.send_ns_p50", sq.value, "ns", num(sq.n), on_o + ": port::send"});
  L.push_back({"ipc.reply_wait_ns_p50", wq.value, "ns", num(wq.n), on_c + ": reply receive"});
  L.push_back({"ipc.send_refused_frac",
               frac(static_cast<double>(closed.refused + open.refused),
                    static_cast<double>(closed.sends + open.sends)),
               "frac", num(closed.sends + open.sends), "traced phases"});
  sched_layer_metrics(L, c2, c3, open.ops, on_o);
  L.push_back({"svc.serve_ns_mean", serve, "ns",
               num(c1.serve_hist.count() - c0.serve_hist.count()), on_c});
  L.push_back({"svc.hop_ns_mean", frac(closed.rtt_sum_ns, static_cast<double>(closed.ops)) - serve,
               "ns", num(closed.ops), on_c + ": round trip - serve"});
  L.push_back({"svc.get_ns_p50", gq.value, "ns", num(gq.n), "final sweep: mc_cache::get"});
  L.push_back({"gen.late_p99_us", late.value / 1e3, "us", num(late.n), on_o});
  L.push_back({"trace_overhead_frac", 1.0 - frac(closed.rate_median(), ref.rate_median()), "frac",
               num(ref.ops + closed.ops), "untraced vs traced closed loop"});
  shared_layer_metrics(L, c0, c1, l0, l1, closed.ops, on_c, "traced closed-loop world");
  write_spans(o.out_dir + "/mcbench-spans-" + wl.name + ".bin",
              {&closed_send, &closed_wait, &open_send, &open_wait, &sweep});
}

void run_hot(run_state& st) {
  const options& o = st.opt;
  const auto total_ns = static_cast<std::uint64_t>(o.seconds * 1e9);
  world w;
  if (!o.trace) {
    measure_setup(st, w, false);
    hot_result r = hot_phase(w, o.seed, total_ns, false, st.fail);
    finish_world(st, w, nullptr, nullptr);
    st.attempted += r.ops;
    st.gated.insert(st.gated.begin(),
                    {{"throughput_ops_s", median(r.window_rate), "ops/s",
                      num(kWindows) + " windows, " + num(r.ops) + " ops",
                      num(kHotThreads) + " threads, closed loop; median window"},
                     latency_metric("latency_p50_us", windowed(r.window_lat, 0.50), 50)});
    st.info.push_back(latency_metric("latency_p99_us", windowed(r.window_lat, 0.99), 99));
    return;
  }
  // Untraced, then traced; the callers are joined between phases, so the
  // lock snapshots around the traced phase see no running thread.
  build_world(w, false);
  const hot_result ref = hot_phase(w, o.seed, total_ns / 2, false, st.fail);
  trace_on();
  const lock_snapshot l0 = quiescent_locks();
  const counters c0 = counters::take(*w.cache);
  hot_result traced = hot_phase(w, o.seed, total_ns / 2, true, st.fail);
  const counters c1 = counters::take(*w.cache);
  const lock_snapshot l1 = quiescent_locks();
  trace_off();
  finish_world(st, w, nullptr, nullptr);
  st.attempted += ref.ops + traced.ops;
  std::vector<std::uint32_t> gets;
  for (auto& l : traced.spans) {
    auto d = l->durations();
    gets.insert(gets.end(), d.begin(), d.end());
  }
  const quantile gq = exact_quantile(gets, 0.5);
  const std::string on = "traced phase";
  const std::string none = "no IPC on this workload";
  auto& L = st.gated;
  L.push_back({"ipc.send_ns_p50", 0.0, "ns", "0", none});
  L.push_back({"ipc.reply_wait_ns_p50", 0.0, "ns", "0", none});
  L.push_back({"ipc.send_refused_frac", 0.0, "frac", "0", none});
  sched_layer_metrics(L, c0, c1, traced.ops, on);
  L.push_back({"svc.serve_ns_mean", 0.0, "ns", "0", none});
  L.push_back({"svc.hop_ns_mean", 0.0, "ns", "0", none});
  L.push_back({"svc.get_ns_p50", gq.value, "ns", num(gq.n), on + ": mc_cache::get"});
  L.push_back({"gen.late_p99_us", 0.0, "us", "0", "no open loop on this workload"});
  L.push_back({"trace_overhead_frac",
               1.0 - frac(median(traced.window_rate), median(ref.window_rate)), "frac",
               num(ref.ops + traced.ops), "untraced vs traced closed loop"});
  shared_layer_metrics(L, c0, c1, l0, l1, traced.ops, on, on);
  std::vector<const span_log*> logs;
  for (auto& l : traced.spans) logs.push_back(l.get());
  write_spans(o.out_dir + "/mcbench-spans-" + o.wl->name + ".bin", logs);
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  if (!parse_args(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: mcbench --workload {mc-read|mc-write|kcache-hot} --seed N "
                 "--seconds S --trace {0|1} [--out-dir D] [--git-sha X] [--src-hash X]\n");
    return 2;
  }
  const std::string env = machlock_env_var();
  if (!env.empty()) {
    std::fprintf(stderr, "mcbench: refusing to run: %s is set (it changes the program measured)\n",
                 env.c_str());
    return 2;
  }

  const workload& wl = *o.wl;
  std::printf("mcbench workload=%s seed=%llu seconds=%g trace=%d\n", wl.name,
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("  why: %s\n", wl.why);
  std::printf("  host: cpus=%d (affinity mask) build=%s git=%s src=%s\n", usable_cpus(),
              MCBENCH_BUILD_TYPE, o.git_sha.c_str(), o.src_hash.c_str());
  std::printf("  library defaults: refcount=%s shards=%d workers=%d\n",
              refcount_policy_name(default_refcount_policy()), mc_cache_config{}.shards,
              machcached_config{}.workers);
  if (wl.ipc) {
    std::printf("  shape: %llu keys x %zu words, %llu%% GET, writes SET 7 : DEL 1; closed loop "
                "%d in flight, open loop %g ops/s; 1 generator thread\n",
                static_cast<unsigned long long>(kKeys), kValueWords,
                static_cast<unsigned long long>(wl.read_pct), kWindow, wl.open_rate);
  } else {
    std::printf("  shape: %llu keys x %zu words, GET only, %d threads, %llu%% of keys from %llu "
                "hot keys\n",
                static_cast<unsigned long long>(kKeys), kValueWords, kHotThreads,
                static_cast<unsigned long long>(kHotPct),
                static_cast<unsigned long long>(kHotKeys));
  }
  std::fflush(stdout);

  run_state st(o);
  const std::uint64_t live_before = kobject::live_objects();
  const cpu_ticks t0 = read_cpu_ticks();
  if (wl.ipc) {
    run_ipc(st);
  } else {
    run_hot(st);
  }
  const cpu_ticks t1 = read_cpu_ticks();
  const auto leaked =
      static_cast<double>(kobject::live_objects()) - static_cast<double>(live_before);
  if (leaked != 0.0) st.fail.add("kobject leak: " + fmt(leaked) + " objects after teardown");
  if (o.trace) st.gated.push_back({"kern.objects_leaked", leaked, "count", "-", "after teardown"});

  st.attempted = std::max<std::uint64_t>(st.attempted, 1);
  st.info.push_back({"fail_frac",
                     frac(static_cast<double>(st.fail.count), static_cast<double>(st.attempted)),
                     "frac", num(st.attempted) + " attempted",
                     "refused sends, timeouts, wrong values, lost replies, invariants"});
  st.info.push_back({"host.steal_frac", frac(t1.steal - t0.steal, t1.total - t0.total), "frac",
                     fmt(t1.total - t0.total) + " ticks", "/proc/stat, whole run"});
  print_table(o.trace ? "per-layer metrics (traced run):" : "end-to-end metrics (untraced run):",
              st.gated);
  print_table("also measured:", st.info);
  const bool correct = st.fail.count == 0;
  if (!correct) std::printf("FAILED: %s\n", st.fail.first.c_str());
  print_result(correct, st.attempted, st.fail.count, st.gated);
  return correct ? 0 : 1;
}
