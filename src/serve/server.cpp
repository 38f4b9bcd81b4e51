#include "serve/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <utility>

#include "core/project.hpp"
#include "core/response.hpp"
#include "core/run_report.hpp"
#include "obs/json.hpp"
#include "serve/json_in.hpp"

namespace ezrt::serve {

using Clock = std::chrono::steady_clock;

namespace {

std::uint64_t ms_between(Clock::time_point a, Clock::time_point b) {
  if (b <= a) {
    return 0;
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count());
}

/// Envelope status string for a CLI-equivalent code: definitive and
/// budget-tripped verdicts are all "ok" answers (the report says which),
/// 4 means the client sent garbage, everything else is a server-side
/// failure.
const char* status_for(int code) {
  switch (code) {
    case core::kExitOk:
    case core::kExitInfeasible:
    case core::kExitLimit:
      return "ok";
    case core::kExitInvalidInput:
      return "invalid";
    default:
      return "error";
  }
}

}  // namespace

/// One admitted search: everything a worker needs, plus the promise the
/// owning connection thread blocks on.
struct Server::Job {
  ServeRequest request;
  PreparedRequest prepared;
  Clock::time_point admitted;
  Clock::time_point deadline;

  struct Outcome {
    bool shed = false;  ///< deadline expired while queued
    int code = core::kExitFailure;
    std::string verdict;
    std::string report_json;
    std::string error;
    bool degraded = false;
    std::uint64_t queue_ms = 0;
    std::uint64_t service_ms = 0;
  };
  std::promise<Outcome> promise;
  std::future<Outcome> future = promise.get_future();
};

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cache_entries) {
  if (options_.workers == 0) {
    options_.workers = 1;
  }
  if (options_.queue_depth == 0) {
    options_.queue_depth = 1;
  }
}

Server::~Server() {
  shutdown();
  wait();
}

Status Server::start() {
  auto fd = listen_endpoint(options_.endpoint);
  if (!fd.ok()) {
    return fd.error();
  }
  listen_fd_ = fd.value();
  endpoint_ = options_.endpoint;
  // tcp:<host>:0 binds an ephemeral port; publish the real one so tests
  // and operators can connect.
  if (endpoint_.rfind("tcp:", 0) == 0 && endpoint_.size() >= 2 &&
      endpoint_.compare(endpoint_.size() - 2, 2, ":0") == 0) {
    sockaddr_storage addr{};
    socklen_t len = sizeof addr;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
        0) {
      std::uint16_t port = 0;
      if (addr.ss_family == AF_INET) {
        port = ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
      } else if (addr.ss_family == AF_INET6) {
        port = ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
      }
      endpoint_ =
          endpoint_.substr(0, endpoint_.size() - 1) + std::to_string(port);
    }
  }
  for (std::uint32_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return {};
}

void Server::shutdown() {
  if (draining_.exchange(true)) {
    return;
  }
  // Unblock the acceptor; SHUT_RDWR works on listening sockets on Linux
  // and makes the blocking accept() return.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
  }
  queue_cv_.notify_all();
  // Half-close every live connection: a reader blocked in read_frame sees
  // clean EOF and exits; one mid-request finishes, writes its response
  // (the write side stays open) and then sees the EOF.
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (const auto& conn : conns_) {
    if (!conn->done.load(std::memory_order_acquire) && conn->fd >= 0) {
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
}

void Server::wait() {
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns) {
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (options_.endpoint.rfind("unix:", 0) == 0) {
      ::unlink(options_.endpoint.substr(5).c_str());
    }
  }
}

Status Server::run(const base::CancelToken* cancel) {
  if (auto status = start(); !status.ok()) {
    return status;
  }
  while (!draining_.load(std::memory_order_acquire)) {
    if (cancel != nullptr && cancel->requested()) {
      shutdown();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  wait();
  return {};
}

ServerStats Server::stats() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out = stats_;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    out.queue_depth = queue_.size();
  }
  out.cache = cache_.stats();
  return out;
}

void Server::reap_finished_connections() {
  std::vector<std::shared_ptr<Conn>> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    auto it = conns_.begin();
    while (it != conns_.end()) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(*it);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : finished) {
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
  }
}

void Server::accept_loop() {
  while (!draining_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // listener shut down (drain) or hard error
    }
    reap_finished_connections();
    std::size_t open = 0;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      open = conns_.size();
    }
    if (draining_.load(std::memory_order_acquire) ||
        open >= options_.max_connections) {
      // Connection-level shed: answer the first frame's worth of intent
      // with a structured overload/drain response without reading it.
      core::ServeResponseInfo info;
      info.status = draining_ ? "shutting-down" : "overloaded";
      info.code =
          draining_ ? core::kExitFailure : core::kExitLimit;
      info.error = draining_ ? "server is draining"
                             : "connection limit reached";
      info.retry_after_ms = draining_ ? 0 : 250;
      (void)write_frame(fd, core::serve_response_json(info));
      ::close(fd);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.sheds;
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conns_.push_back(conn);
      // Re-check the drain flag while holding conn_mutex_: shutdown()
      // iterates conns_ under the same lock, so a conn registered after
      // its sweep must half-close itself.
      if (draining_.load(std::memory_order_acquire)) {
        ::shutdown(fd, SHUT_RD);
      }
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.connections;
    }
    conn->thread = std::thread([this, conn] { connection_loop(conn.get()); });
  }
}

void Server::connection_loop(Conn* conn) {
  while (true) {
    auto frame = read_frame(conn->fd, options_.max_request_bytes);
    if (!frame.ok()) {
      // Oversized or truncated frame: answer with the exit-code-4
      // equivalent when the socket is still writable, then close — the
      // stream offset is unreliable after a framing error.
      core::ServeResponseInfo info;
      info.status = "invalid";
      info.code = core::kExitInvalidInput;
      info.error = frame.error().message();
      (void)write_frame(conn->fd, core::serve_response_json(info));
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.invalid;
      }
      break;
    }
    if (!frame.value().has_value()) {
      break;  // clean close
    }
    const std::string response = handle_payload(*frame.value());
    if (auto status = write_frame(conn->fd, response); !status.ok()) {
      break;  // peer went away; nothing left to tell it
    }
  }
  // Close under conn_mutex_: shutdown() reads `fd` (to half-close live
  // connections) under the same lock, so the close/reset can neither race
  // that read nor let a recycled descriptor be SHUT_RD'd by mistake.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->done.store(true, std::memory_order_release);
}

std::string Server::handle_payload(const std::string& payload) {
  const Clock::time_point received = Clock::now();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
  }
  auto invalid = [this](const std::string& id, const std::string& what) {
    core::ServeResponseInfo info;
    info.id = id;
    info.status = "invalid";
    info.code = core::kExitInvalidInput;
    info.error = what;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.invalid;
    }
    return core::serve_response_json(info);
  };
  auto document = parse_json(payload);
  if (!document.ok()) {
    return invalid("", document.error().message());
  }
  std::string id;
  if (const JsonValue* idv = document.value().find("id");
      idv != nullptr && idv->is_string()) {
    id = idv->string;
  }
  auto request = parse_request(document.value());
  if (!request.ok()) {
    return invalid(id, request.error().message());
  }
  if (request.value().op == "ping") {
    core::ServeResponseInfo info;
    info.id = request.value().id;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.ok;
    }
    return core::serve_response_json(info);
  }
  if (request.value().op == "stats") {
    core::ServeResponseInfo info;
    info.id = request.value().id;
    const std::string stats = stats_json();
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.ok;
    }
    return core::serve_response_json(info, nullptr, &stats);
  }
  return handle_schedule(std::move(request).value(), received);
}

std::string Server::handle_schedule(ServeRequest request,
                                    Clock::time_point received) {
  const std::uint64_t budget_ms =
      request.budget_ms != 0 ? request.budget_ms : options_.default_budget_ms;
  const Clock::time_point deadline =
      received + std::chrono::milliseconds(budget_ms);

  // Answers a kHit (from the LRU or the alias index) or kShared ticket.
  auto reuse = [this, &request,
                received](const ScheduleCache::Ticket& ticket) {
    const bool hit = ticket.role == ScheduleCache::Role::kHit;
    core::ServeResponseInfo info;
    info.id = request.id;
    info.status = status_for(ticket.exit_code);
    info.code = ticket.exit_code;
    info.verdict = ticket.verdict;
    info.cache = hit ? "hit" : "coalesced";
    info.queue_ms = ms_between(received, Clock::now());
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.ok;
    }
    return core::serve_response_json(info, &ticket.report_json);
  };

  // Alias fast path (docs/serve.md §3): a byte-for-byte repeat of an
  // earlier document with the same options names its resident entry
  // without parsing or canonicalizing the spec.
  const Digest raw = raw_digest(request);
  if (const auto ticket = cache_.lookup_alias(raw)) {
    return reuse(*ticket);
  }

  auto prepared = prepare_request(request);
  if (!prepared.ok()) {
    core::ServeResponseInfo info;
    info.id = request.id;
    info.status = "invalid";
    info.code = core::kExitInvalidInput;
    info.error = prepared.error().to_string();
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.invalid;
    }
    return core::serve_response_json(info);
  }
  const Digest digest = prepared.value().digest;

  auto overloaded = [this, &request](const std::string& why,
                                     std::uint64_t retry_after_ms) {
    core::ServeResponseInfo info;
    info.id = request.id;
    info.status = "overloaded";
    info.code = core::kExitLimit;
    info.error = why;
    info.retry_after_ms = retry_after_ms == 0 ? 100 : retry_after_ms;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.sheds;
    }
    return core::serve_response_json(info);
  };

  {
    ScheduleCache::Ticket ticket = cache_.acquire(digest, deadline);
    switch (ticket.role) {
      case ScheduleCache::Role::kHit:
      case ScheduleCache::Role::kShared:
        cache_.add_alias(raw, digest);
        return reuse(ticket);
      case ScheduleCache::Role::kTimeout:
        return overloaded(
            "budget of " + std::to_string(budget_ms) +
                " ms expired waiting for an identical in-flight search",
            100);
      case ScheduleCache::Role::kOwner:
        break;  // fall through to admission below
    }

    // This request owns the digest: admit into the EDF queue or shed.
    auto job = std::make_shared<Job>();
    job->request = request;
    job->prepared = std::move(prepared).value();
    job->admitted = Clock::now();
    job->deadline = deadline;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      if (draining_.load(std::memory_order_acquire)) {
        lock.unlock();
        cache_.abandon(digest);
        core::ServeResponseInfo info;
        info.id = request.id;
        info.status = "shutting-down";
        info.code = core::kExitFailure;
        info.error = "server is draining";
        {
          std::lock_guard<std::mutex> slock(stats_mutex_);
          ++stats_.errors;
        }
        return core::serve_response_json(info);
      }
      if (queue_.size() >= options_.queue_depth) {
        const auto hint = static_cast<std::uint64_t>(ewma_service_ms_);
        lock.unlock();
        cache_.abandon(digest);
        return overloaded("queue full (" +
                              std::to_string(options_.queue_depth) +
                              " requests deep)",
                          hint);
      }
      // Deadline-aware admission: estimated wait is the work already
      // queued spread over the pool at the EWMA service time. A request
      // that cannot make its deadline is shed *now*, before any worker
      // spends time on it.
      const double est_wait_ms =
          ewma_service_ms_ *
          (static_cast<double>(queue_.size() + 1) / options_.workers);
      const auto est_done =
          job->admitted +
          std::chrono::milliseconds(static_cast<std::uint64_t>(est_wait_ms));
      if (est_done > deadline) {
        lock.unlock();
        cache_.abandon(digest);
        return overloaded(
            "estimated wait " +
                std::to_string(static_cast<std::uint64_t>(est_wait_ms)) +
                " ms exceeds the remaining budget",
            static_cast<std::uint64_t>(est_wait_ms));
      }
      queue_.push_back(job);
      {
        std::lock_guard<std::mutex> slock(stats_mutex_);
        stats_.peak_queue_depth =
            std::max<std::uint64_t>(stats_.peak_queue_depth, queue_.size());
      }
    }
    queue_cv_.notify_one();

    Job::Outcome outcome = job->future.get();
    cache_.add_alias(raw, digest);  // a no-op unless the worker published
    if (outcome.shed) {
      return overloaded(outcome.error, 100);
    }
    core::ServeResponseInfo info;
    info.id = request.id;
    info.status = status_for(outcome.code);
    info.code = outcome.code;
    info.verdict = outcome.verdict;
    info.error = outcome.error;
    info.cache = "miss";
    info.degraded = outcome.degraded;
    info.queue_ms = outcome.queue_ms;
    info.service_ms = outcome.service_ms;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      if (info.status == std::string("ok")) {
        ++stats_.ok;
      } else if (info.status == std::string("invalid")) {
        ++stats_.invalid;
      } else {
        ++stats_.errors;
      }
    }
    return core::serve_response_json(
        info, outcome.report_json.empty() ? nullptr : &outcome.report_json);
  }
}

void Server::worker_loop() {
  while (true) {
    std::shared_ptr<Job> job;
    std::size_t depth_at_dequeue = 0;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || draining_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) {
        return;  // draining and nothing left
      }
      // EDF: earliest absolute deadline first — fair in the sense that
      // the request with the least slack is served next, so a stream of
      // generous budgets cannot starve a tight one that was admitted.
      auto it = std::min_element(
          queue_.begin(), queue_.end(),
          [](const std::shared_ptr<Job>& a, const std::shared_ptr<Job>& b) {
            return a->deadline < b->deadline;
          });
      job = *it;
      queue_.erase(it);
      depth_at_dequeue = queue_.size();
    }

    const Clock::time_point picked_up = Clock::now();
    Job::Outcome outcome;
    outcome.queue_ms = ms_between(job->admitted, picked_up);

    if (picked_up >= job->deadline) {
      // Too late even to start: the admission estimate was optimistic.
      // Shed honestly rather than burning a worker on a doomed search.
      outcome.shed = true;
      outcome.error = "deadline expired after " +
                      std::to_string(outcome.queue_ms) + " ms in queue";
      cache_.abandon(job->prepared.digest);
      job->promise.set_value(std::move(outcome));
      continue;
    }

    sched::SchedulerOptions scheduler = job->prepared.scheduler;
    if (options_.degrade_queue != 0 &&
        depth_at_dequeue + 1 >= options_.degrade_queue &&
        job->request.exhaustive()) {
      // Graceful degradation (docs/serve.md §4): trade the exhaustive
      // proof for a guided search with a tight state budget. The verdict
      // stays honest — kFeasible still means feasible; what is lost is
      // only the strength of a non-feasible answer — and the response
      // carries degraded: true so the client knows.
      scheduler.search_engine = sched::SearchEngine::kBestFirst;
      scheduler.state_classes = sched::StateClassMode::kOn;
      scheduler.max_states =
          scheduler.max_states == 0
              ? options_.degrade_max_states
              : std::min(scheduler.max_states, options_.degrade_max_states);
      outcome.degraded = true;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.degrades;
      }
    }
    // Queue time already consumed part of the budget: the engines honor
    // the job's absolute deadline (SchedulerOptions::deadline), so a
    // search admitted late terminates kTimeLimit on schedule.
    scheduler.deadline = job->deadline;

    core::Project project(std::move(job->prepared.specification),
                          job->prepared.build, scheduler);
    const Status status = project.schedule();
    if (status.ok()) {
      outcome.code = core::kExitOk;
    } else {
      outcome.code = core::exit_code_for(status.error());
      outcome.error = status.error().to_string();
    }
    if (project.scheduled()) {
      outcome.verdict = sched::to_string(project.outcome().status);
      // Deterministic emission: a later cache hit must be byte-identical
      // to this fresh report.
      core::RunReportExtras extras;
      extras.deterministic = true;
      outcome.report_json = core::run_report_json(project, nullptr, &extras);
    }
    outcome.service_ms = ms_between(picked_up, Clock::now());

    // Only definitive, non-degraded verdicts enter the cache: a degraded
    // or budget-tripped answer must never be replayed to a client that
    // asked (and budgeted) for the full search.
    const bool definitive = outcome.code == core::kExitOk ||
                            outcome.code == core::kExitInfeasible;
    if (definitive && !outcome.degraded && !outcome.report_json.empty()) {
      cache_.publish(job->prepared.digest, outcome.report_json, outcome.code,
                     outcome.verdict);
    } else {
      cache_.abandon(job->prepared.digest);
    }

    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      ewma_service_ms_ =
          ewma_service_ms_ == 0.0
              ? static_cast<double>(outcome.service_ms)
              : 0.8 * ewma_service_ms_ +
                    0.2 * static_cast<double>(outcome.service_ms);
    }
    job->promise.set_value(std::move(outcome));
  }
}

std::string Server::stats_json() const {
  const ServerStats s = stats();
  obs::JsonWriter w;
  w.begin_object();
  w.member("connections", s.connections);
  w.member("requests", s.requests);
  w.member("ok", s.ok);
  w.member("sheds", s.sheds);
  w.member("degrades", s.degrades);
  w.member("invalid", s.invalid);
  w.member("errors", s.errors);
  w.member("queue_depth", s.queue_depth);
  w.member("peak_queue_depth", s.peak_queue_depth);
  w.member("workers", std::uint64_t{options_.workers});
  w.key("cache");
  w.begin_object();
  w.member("hits", s.cache.hits);
  w.member("alias_hits", s.cache.alias_hits);
  w.member("misses", s.cache.misses);
  w.member("coalesced", s.cache.coalesced);
  w.member("evictions", s.cache.evictions);
  w.member("abandoned", s.cache.abandoned);
  w.member("entries", s.cache.entries);
  w.member("aliases", s.cache.aliases);
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace ezrt::serve
