// `ezrt serve`: the scheduling-as-a-service worker pool (docs/serve.md).
//
// Thread model (all blocking, no event loop — connection count is capped,
// so one reader thread per connection is simpler to reason about and
// TSan-checkable):
//
//   accept thread ──► connection threads (≤ max_connections)
//                        │  read frame → parse JSON → parse request →
//                        │  raw digest → alias lookup
//                        │    alias hit: respond immediately
//                        │  canonicalize spec → digest → cache acquire
//                        │    kHit/kShared: record alias, respond
//                        │    kOwner: admission control → EDF queue;
//                        │      after the publish, record alias
//                        ▼
//                     worker threads (worker pool)
//                        pop earliest-deadline job → maybe degrade →
//                        build+search with the job's absolute deadline →
//                        publish/abandon cache → fulfill promise
//
// Every response is written by the connection thread that read the
// request, so each socket has exactly one writer and the protocol needs
// no write locks. Workers never block on the cache or on sockets.
//
// Admission control (docs/serve.md §4): a request is shed with a
// structured `overloaded` response when the queue is full, its budget
// already expired, or the EWMA-estimated wait exceeds its remaining
// budget. Queue time counts against the budget because the job's
// absolute deadline is fixed at admission and handed to the engines via
// SchedulerOptions::deadline.
//
// Drain (docs/serve.md §5): shutdown() stops the acceptor, shuts down
// reads on open connections, lets workers finish the queue, and joins
// every thread. In-flight requests complete and get their responses;
// frames that arrive during the drain race are answered
// `shutting-down`.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/cancel.hpp"
#include "base/result.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/request.hpp"

namespace ezrt::serve {

struct ServerOptions {
  std::string endpoint;          ///< unix:<path> or tcp:<host>:<port>
  std::uint32_t workers = 2;     ///< search worker threads
  std::uint32_t queue_depth = 32;     ///< admitted-but-unserved bound
  std::uint32_t max_connections = 64;
  std::size_t cache_entries = 128;    ///< LRU capacity (0 = no storage)
  std::uint64_t default_budget_ms = 30'000;  ///< for requests without one
  /// Queue length at or above which exhaustive requests are downgraded
  /// to bestfirst+classes (0 = never degrade).
  std::uint32_t degrade_queue = 8;
  /// max_states ceiling applied to degraded requests.
  std::uint64_t degrade_max_states = 50'000;
  std::uint32_t max_request_bytes = kMaxFrameBytes;
};

/// Aggregate server counters: the one record of serve events (plain
/// integers under stats_mutex_, present in every build). The `stats` op,
/// the drain line and the tests all read them.
struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t sheds = 0;
  std::uint64_t degrades = 0;
  std::uint64_t invalid = 0;
  std::uint64_t errors = 0;
  std::uint64_t queue_depth = 0;  ///< sampled at stats() time
  std::uint64_t peak_queue_depth = 0;
  CacheStats cache;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the endpoint and spawns the acceptor and worker threads.
  [[nodiscard]] Status start();

  /// The bound endpoint (after start()); for tcp:<host>:0 the resolved
  /// port is substituted so tests can connect.
  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }

  /// Begins the drain: stop accepting, finish queued and in-flight work,
  /// answer late frames with `shutting-down`. Idempotent, callable from
  /// any thread (the CLI calls it from a signal watcher).
  void shutdown();

  /// Blocks until the drain completes and every thread is joined.
  void wait();

  /// Convenience: start(), then watch `cancel` (SIGINT/SIGTERM) and
  /// drain when it trips. Returns after the drain.
  [[nodiscard]] Status run(const base::CancelToken* cancel);

  [[nodiscard]] ServerStats stats() const;

 private:
  struct Job;
  /// One reader thread per live connection; `done` lets the acceptor reap
  /// finished threads without blocking on join.
  struct Conn {
    std::thread thread;
    int fd = -1;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void connection_loop(Conn* conn);
  void worker_loop();
  void reap_finished_connections();
  /// Serves one decoded frame; returns the response payload.
  [[nodiscard]] std::string handle_payload(const std::string& payload);
  [[nodiscard]] std::string handle_schedule(
      ServeRequest request, std::chrono::steady_clock::time_point received);
  [[nodiscard]] std::string stats_json() const;

  ServerOptions options_;
  std::string endpoint_;
  int listen_fd_ = -1;
  std::atomic<bool> draining_{false};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex conn_mutex_;
  std::vector<std::shared_ptr<Conn>> conns_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;  ///< EDF: popped by deadline
  double ewma_service_ms_ = 0.0;

  ScheduleCache cache_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
};

}  // namespace ezrt::serve
