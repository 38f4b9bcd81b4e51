// Live search progress: a lock-free sink the engines publish into and a
// heartbeat thread that renders it to a stream.
//
// The split keeps serial determinism untouched: the search only *stores*
// relaxed atomics (masked to once every kPublishMask+1 admitted states, so
// the hot loop pays one predicted branch); the reporter thread *reads* them
// on its own monotonic tick and never feeds anything back. Under
// EZRT_NO_TELEMETRY publishing compiles out entirely: it is the only
// recording that flag removes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <thread>

namespace ezrt::obs {

#if defined(EZRT_NO_TELEMETRY)
inline constexpr bool kTelemetryEnabled = false;
#else
inline constexpr bool kTelemetryEnabled = true;
#endif

/// Shared atomics describing a search in flight. All stores are relaxed:
/// readers get a recent, not necessarily mutually consistent, picture —
/// exactly what a heartbeat needs.
struct ProgressSink {
  /// Publish every (kPublishMask + 1)-th admitted state.
  static constexpr std::uint64_t kPublishMask = 63;

  std::atomic<std::uint64_t> states{0};       ///< admitted states
  std::atomic<std::uint64_t> transitions{0};  ///< fire() applications
  std::atomic<std::uint64_t> pruned{0};       ///< all prune reasons summed
  std::atomic<std::uint64_t> depth{0};        ///< current DFS frontier depth
  std::atomic<std::uint64_t> queue{0};        ///< shared work-queue length
  std::atomic<std::uint64_t> idle_workers{0}; ///< workers parked hungry

  void publish(std::uint64_t states_now, std::uint64_t transitions_now,
               std::uint64_t pruned_now, std::uint64_t depth_now) noexcept {
    if constexpr (kTelemetryEnabled) {
      states.store(states_now, std::memory_order_relaxed);
      transitions.store(transitions_now, std::memory_order_relaxed);
      pruned.store(pruned_now, std::memory_order_relaxed);
      depth.store(depth_now, std::memory_order_relaxed);
    } else {
      (void)states_now;
      (void)transitions_now;
      (void)pruned_now;
      (void)depth_now;
    }
  }
};

/// Background heartbeat: every `interval` prints one line of search
/// progress (states, states/s, fired, pruned, depth, queue, idle) to `os`,
/// and one final line when stopped — so even sub-interval runs leave a
/// record. Construction starts the thread; stop()/destruction joins it.
class ProgressReporter {
 public:
  ProgressReporter(const ProgressSink& sink, std::ostream& os,
                   std::chrono::milliseconds interval);
  ~ProgressReporter() { stop(); }

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// Prints the final line and joins the thread (idempotent).
  void stop();

 private:
  void loop();
  void print_line(double seconds);

  const ProgressSink* sink_;
  std::ostream* os_;
  std::chrono::milliseconds interval_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t last_states_ = 0;
  std::chrono::steady_clock::time_point last_tick_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace ezrt::obs
