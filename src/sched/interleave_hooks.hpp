// Schedule-control hooks for the lock-free visited table.
//
// The interleaving test harness (tests/interleave/) verifies the CAS
// visited table (sched/lockfree_table.hpp) the way lincheck-style
// checkers verify concurrent code: it runs the real implementation
// under a cooperative scheduler that decides, at every shared-memory
// step, which thread moves next — PCT-style random priorities for big
// searches, exhaustive enumeration for small bounds, and round
// minimization of any failing schedule.
//
// The contract: every linearization-relevant atomic operation in the
// table is preceded by `EZRT_STEP("site")`. In production builds the
// macro compiles to nothing — zero code, zero branches on the hot path.
// Test builds define EZRT_INTERLEAVE_HOOKS, which turns each step into a
// call through an installable hook where the harness parks the thread
// until the scheduler picks it.
//
// Because the hooked and plain instantiations of the (header-only)
// structures differ, everything they define lives inside an inline
// namespace whose name depends on the configuration. A binary that links
// both a plain library object and a hooked test object therefore carries
// two distinct, non-colliding sets of symbols instead of an ODR violation.
#pragma once

#ifdef EZRT_INTERLEAVE_HOOKS
#define EZRT_LOCKFREE_NS lockfree_hooked
#else
#define EZRT_LOCKFREE_NS lockfree_plain
#endif

namespace ezrt::sched {
inline namespace EZRT_LOCKFREE_NS {
namespace interleave {

/// Called before the atomic operation identified by `site`. `ctx` is the
/// harness's scheduler instance.
using StepFn = void (*)(void* ctx, const char* site);

#ifdef EZRT_INTERLEAVE_HOOKS
// Installed before the test threads are spawned and cleared after they
// join, so plain (non-atomic) globals are race-free by construction.
inline StepFn g_step_fn = nullptr;
inline void* g_step_ctx = nullptr;

inline void install_step_hook(StepFn fn, void* ctx) {
  g_step_fn = fn;
  g_step_ctx = ctx;
}

inline void clear_step_hook() {
  g_step_fn = nullptr;
  g_step_ctx = nullptr;
}

inline void step(const char* site) {
  if (g_step_fn != nullptr) {
    g_step_fn(g_step_ctx, site);
  }
}

#define EZRT_STEP(site) ::ezrt::sched::interleave::step(site)
#else
#define EZRT_STEP(site) ((void)0)
#endif

}  // namespace interleave
}  // namespace EZRT_LOCKFREE_NS
}  // namespace ezrt::sched
