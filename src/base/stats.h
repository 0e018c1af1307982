// Counters and latency statistics used by lock instrumentation and the
// benchmark harness.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/compiler.h"

namespace mach {

// Way count of the per-thread striped counters (event_counter below, and
// the kmon counters and histograms).
inline constexpr unsigned num_ways = 8;

namespace detail {
// 1 + the calling thread's way; 0 until its first striped update.
// constinit keeps the read a plain TLS load (no init-wrapper call).
extern constinit thread_local unsigned t_way;
unsigned claim_way() noexcept;
}  // namespace detail

// The calling thread's way in [0, num_ways), assigned at first use to the
// way the fewest live threads hold: cheap, stable per thread, and it keeps
// up to num_ways concurrent threads on distinct ways, however many threads
// came and went before them.
inline unsigned way_index() noexcept {
  const unsigned w = detail::t_way;
  return w != 0 ? w - 1 : detail::claim_way();
}

// Relaxed event tally striped over num_ways cache lines, so threads on
// different ways never write the same line. value() sums the ways: exact
// once the writers are quiet, a racy (never torn) total while they run.
class event_counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    ways_[way_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const way& w : ways_) sum += w.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() noexcept {
    for (way& w : ways_) w.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(cacheline_size) way {
    std::atomic<std::uint64_t> v{0};
  };
  way ways_[num_ways];
};

// Log2-bucketed histogram of nanosecond latencies. Single-writer or
// externally synchronized; merge() combines per-thread instances.
class latency_histogram {
 public:
  static constexpr int num_buckets = 48;

  // The bucket `nanos` falls in: its bit_width, clamped to the last bucket.
  static int bucket_of(std::uint64_t nanos) noexcept;
  // Approximate quantile (bucket upper bound), q in [0,1], of raw bucket
  // counts whose sum is `count` (lock profiles keep theirs as atomics;
  // see sync/lockstat.h).
  static std::uint64_t quantile_of(const std::uint64_t* buckets, std::uint64_t count,
                                   double q) noexcept;

  void record(std::uint64_t nanos) noexcept;
  void merge(const latency_histogram& other) noexcept;
  // Drop all samples (between bench rounds / sampler windows).
  void reset() noexcept;

  std::uint64_t count() const noexcept { return count_; }
  // Raw bucket occupancy; bucket i holds values whose bit_width is i
  // (i.e. v in [2^(i-1), 2^i - 1]). Used by the Prometheus exporter.
  std::uint64_t bucket(int i) const noexcept {
    return i < 0 || i >= num_buckets ? 0 : buckets_[i];
  }
  std::uint64_t total_nanos() const noexcept { return total_; }
  double mean_nanos() const noexcept;
  // Approximate quantile (bucket upper bound), q in [0,1].
  std::uint64_t quantile_nanos(double q) const noexcept;
  std::uint64_t max_nanos() const noexcept { return max_; }

 private:
  std::uint64_t buckets_[num_buckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t max_ = 0;
};

// Summary statistics over a small sample vector (bench harness output).
struct summary {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;
};

summary summarize(const std::vector<double>& samples);

// Monotonic clock reading in nanoseconds.
std::uint64_t now_nanos() noexcept;

}  // namespace mach
