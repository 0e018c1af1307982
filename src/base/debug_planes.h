// The debug-plane gate: one relaxed word of enable bits for the optional
// observability planes (ktrace, kspan, kmon, the wait graph and the stall
// watchdog).
//
// Every plane's fast-path check (ktrace::enabled(), watchdog_armed(), ...)
// is one relaxed load of this word and a bit test, and a site that asks
// about several planes at once (debug_planes_on(plane_ktrace | plane_kmon))
// still pays one load. Setting or clearing a plane is a relaxed RMW: the
// planes need no ordering against the code they observe, only that the
// switch is eventually seen.
#pragma once

#include <atomic>
#include <cstdint>

namespace mach {

enum debug_plane : std::uint32_t {
  plane_ktrace = 1u << 0,
  plane_kspan = 1u << 1,
  plane_kmon = 1u << 2,
  plane_wait_graph = 1u << 3,
  plane_watchdog = 1u << 4,
};

namespace detail {
inline constinit std::atomic<std::uint32_t> g_debug_planes{0};
}  // namespace detail

// True if any plane in `planes` (an OR of debug_plane bits) is on.
inline bool debug_planes_on(std::uint32_t planes) noexcept {
  return (detail::g_debug_planes.load(std::memory_order_relaxed) & planes) != 0;
}

inline void set_debug_plane(debug_plane p, bool on) noexcept {
  if (on) {
    detail::g_debug_planes.fetch_or(p, std::memory_order_relaxed);
  } else {
    detail::g_debug_planes.fetch_and(~static_cast<std::uint32_t>(p), std::memory_order_relaxed);
  }
}

}  // namespace mach
