#include "base/stats.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

namespace mach {

namespace detail {

constinit thread_local unsigned t_way = 0;

namespace {

// Live threads per way. A thread holds its way until it exits, so threads
// that come and go hand their ways back instead of wrapping round onto the
// ways of threads still running.
std::atomic<unsigned> g_live[num_ways];

struct way_lease {
  unsigned way;
  ~way_lease() { g_live[way].fetch_sub(1, std::memory_order_relaxed); }
};

}  // namespace

unsigned claim_way() noexcept {
  unsigned w = 0;
  for (unsigned i = 1; i < num_ways; ++i) {
    if (g_live[i].load(std::memory_order_relaxed) < g_live[w].load(std::memory_order_relaxed)) w = i;
  }
  g_live[w].fetch_add(1, std::memory_order_relaxed);
  thread_local way_lease lease{w};
  t_way = w + 1;
  return w;
}

}  // namespace detail

int latency_histogram::bucket_of(std::uint64_t nanos) noexcept {
  const int bucket = nanos == 0 ? 0 : std::bit_width(nanos);
  return bucket >= num_buckets ? num_buckets - 1 : bucket;
}

void latency_histogram::record(std::uint64_t nanos) noexcept {
  ++buckets_[bucket_of(nanos)];
  ++count_;
  total_ += nanos;
  max_ = std::max(max_, nanos);
}

void latency_histogram::merge(const latency_histogram& other) noexcept {
  for (int i = 0; i < num_buckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  total_ += other.total_;
  max_ = std::max(max_, other.max_);
}

void latency_histogram::reset() noexcept { *this = latency_histogram{}; }

double latency_histogram::mean_nanos() const noexcept {
  return count_ == 0 ? 0.0 : static_cast<double>(total_) / static_cast<double>(count_);
}

std::uint64_t latency_histogram::quantile_of(const std::uint64_t* buckets, std::uint64_t count,
                                             double q) noexcept {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < num_buckets; ++i) {
    seen += buckets[i];
    if (seen > target) {
      // Upper bound of bucket i: values v with bit_width(v) == i.
      return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    }
  }
  return (std::uint64_t{1} << (num_buckets - 1)) - 1;
}

std::uint64_t latency_histogram::quantile_nanos(double q) const noexcept {
  return quantile_of(buckets_, count_, q);
}

summary summarize(const std::vector<double>& samples) {
  summary s;
  if (samples.empty()) return s;
  s.min = *std::min_element(samples.begin(), samples.end());
  s.max = *std::max_element(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  double var = 0.0;
  for (double v : samples) var += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(samples.size()));
  return s;
}

std::uint64_t now_nanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace mach
