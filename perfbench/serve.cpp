// `serve`: request frame in, response frame out, against an in-process
// serve::Server on a unix socket, driven open-loop at a fixed offered rate
// (README.md).
#include <poll.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "core/project.hpp"
#include "core/response.hpp"
#include "core/run_report.hpp"
#include "serve/json_in.hpp"
#include "serve/protocol.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace ezrt;

constexpr double kRateRps = 400.0;      ///< offered rate of the measured segment
constexpr int kConnections = 2;         ///< client connections (static sharding)
constexpr std::uint32_t kWorkers = 2;   ///< server search workers
constexpr std::size_t kCacheEntries = 128;  ///< server default LRU capacity
constexpr double kZipfExponent = 1.0;   ///< popularity skew of the pool
constexpr double kLatencyLimitMs = 50.0;  ///< p99 limit for max_rate_rps
/// Rates tried after the measured segment, lowest first (req/s).
constexpr double kLadder[] = {400, 800, 1600, 3200, 6400};
constexpr double kLadderStepS = 0.8;
constexpr std::size_t kWarmupRequests = 32;

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + text.size() / 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Value of `"key":"..."` or `"key":123` in the envelope head (the part
/// before the embedded report). Envelope strings never contain quotes
/// for the keys read here.
std::string_view field(std::string_view head, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = head.find(needle);
  if (at == std::string_view::npos) {
    return {};
  }
  std::size_t begin = at + needle.size();
  if (begin < head.size() && head[begin] == '"') {
    const std::size_t end = head.find('"', begin + 1);
    return head.substr(begin + 1, end - begin - 1);
  }
  std::size_t end = begin;
  while (end < head.size() && head[end] != ',' && head[end] != '}') {
    ++end;
  }
  return head.substr(begin, end - begin);
}

std::uint64_t to_u64(std::string_view text) {
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') break;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

/// Keeps every CPU out of its idle state while a segment runs: one
/// SCHED_IDLE thread per CPU spins and yields to any runnable thread at
/// once. Without them, waking a server thread on a halted virtual CPU
/// costs milliseconds at random and decides the tail latency.
class IdleSpinners {
 public:
  IdleSpinners() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        (void)::sched_setscheduler(0, SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) {
      t.join();
    }
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Times the host-speed kernel on its own thread while a segment runs, so
/// the client thread never stalls in it (HostSpeed).
class SpeedSampler {
 public:
  SpeedSampler()
      : thread_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            host_speed().sample();
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(kSpeedIntervalNs));
          }
        }) {}
  ~SpeedSampler() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct Request {
  std::uint32_t entry = 0;
  std::uint8_t layout = 0;
  bool traced = false;
  std::int64_t due = 0, sent = 0, written = 0, ready = 0, done = 0;
  bool ok = false;
  char cache = '?';  ///< 'h' hit, 'm' miss, 'c' coalesced
  std::uint64_t queue_ms = 0, service_ms = 0, bytes = 0;
};

class Serve final : public Workload {
 public:
  ~Serve() override { stop_server(); }
  void setup(const RunConfig& config) override;
  Outcome run(const RunConfig& config) override;

 private:
  std::string frame(const Request& r, std::uint64_t id) const {
    return "{\"schema\":\"ezrt-serve-request\",\"version\":1,\"id\":\"r" +
           std::to_string(id) + "\",\"op\":\"schedule\",\"spec\":\"" +
           escaped_[r.entry][r.layout] + "\"}";
  }
  std::vector<Request> stream(Rng& rng, std::size_t count) const;
  /// Sends `reqs` open-loop at `rate` over the client connections and
  /// checks every response, recording failures in `out`.
  void segment(std::vector<Request>& reqs, double rate, std::uint64_t id_base,
               Outcome* out, SpanLog* spans);
  void check(Request& r, const std::string& response, Outcome* out);
  void stop_server() {
    if (server_) {
      server_->shutdown();
      server_->wait();
      server_.reset();
    }
    for (int fd : fds_) {
      ::close(fd);
    }
    fds_.clear();
  }

  std::vector<Entry> entries_;
  std::vector<std::array<std::string, 3>> escaped_;
  std::vector<double> zipf_weight_;  ///< by pool index (= popularity rank)
  std::unique_ptr<serve::Server> server_;
  std::vector<int> fds_;
  /// First embedded report seen per entry: every later one must match.
  std::unordered_map<std::uint32_t, std::string> reports_;
};

std::vector<Request> Serve::stream(Rng& rng, std::size_t count) const {
  // A fixed multiset in seeded order: entry k appears in proportion to its
  // Zipf weight, and every fourth copy of an entry alternates between the
  // two other layouts. Every run thus sends the same mix of models and
  // bytes; the seed decides the order, and with it which requests hit.
  std::vector<std::size_t> copies(entries_.size());
  std::size_t total = 0;
  for (std::size_t k = 0; k < entries_.size(); ++k) {
    copies[k] = static_cast<std::size_t>(static_cast<double>(count) *
                                         zipf_weight_[k]);
    total += copies[k];
  }
  for (std::size_t k = 0; total < count; k = (k + 1) % copies.size()) {
    ++copies[k];
    ++total;
  }
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t k = 0; k < entries_.size(); ++k) {
    for (std::size_t j = 0; j < copies[k]; ++j) {
      Request r;
      r.entry = static_cast<std::uint32_t>(k);
      r.layout = j % 4 == 3 ? static_cast<std::uint8_t>(1 + (j / 4) % 2) : 0;
      out.push_back(r);
    }
  }
  rng.shuffle(out);
  return out;
}

void Serve::setup(const RunConfig& config) {
  stop_server();
  reports_.clear();
  entries_ = load_workload_corpus(config, "serve.txt");
  escaped_.clear();
  for (const Entry& e : entries_) {
    escaped_.push_back({json_escape(render(e, e.name, 0)),
                        json_escape(render(e, e.name, 1)),
                        json_escape(render(e, e.name, 2))});
  }
  double sum = 0.0;
  zipf_weight_.clear();
  for (std::size_t k = 0; k < entries_.size(); ++k) {
    zipf_weight_.push_back(
        1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent));
    sum += zipf_weight_.back();
  }
  for (double& w : zipf_weight_) {
    w /= sum;
  }
  // Popularity follows pool order, which the pin drew at random.
  Rng rng(config.seed ^ 0x5e7e5e7eull);

  serve::ServerOptions options;
  options.endpoint = "unix:" + config.out_dir + "/serve-" +
                     std::to_string(::getpid()) + ".sock";
  options.workers = kWorkers;
  options.cache_entries = kCacheEntries;
  server_ = std::make_unique<serve::Server>(options);
  if (auto status = server_->start(); !status.ok()) {
    throw std::runtime_error("serve start: " + status.error().to_string());
  }
  for (int c = 0; c < kConnections; ++c) {
    auto fd = serve::connect_endpoint(server_->endpoint());
    if (!fd.ok()) {
      throw std::runtime_error("serve connect: " + fd.error().to_string());
    }
    fds_.push_back(fd.value());
  }
  // Warm-up: a closed-loop prefix of the request distribution.
  std::vector<Request> warm = stream(rng, kWarmupRequests);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    if (!serve::write_frame(fds_[0], frame(warm[i], i)).ok()) {
      throw std::runtime_error("serve warm-up write failed");
    }
    auto response = serve::read_frame(fds_[0]);
    if (!response.ok() || !response.value().has_value()) {
      throw std::runtime_error("serve warm-up read failed");
    }
  }
}

void Serve::check(Request& r, const std::string& response, Outcome* out) {
  r.bytes = response.size();
  const std::size_t report_at = response.find("\"report\":");
  const std::string_view head = std::string_view(response).substr(
      0, report_at == std::string::npos ? response.size() : report_at);
  const std::string_view status = field(head, "status");
  const std::string_view cache = field(head, "cache");
  r.cache = cache == "hit" ? 'h' : cache == "miss" ? 'm'
            : cache == "coalesced" ? 'c' : '?';
  r.queue_ms = to_u64(field(head, "queue_ms"));
  r.service_ms = to_u64(field(head, "service_ms"));
  const Entry& e = entries_[r.entry];
  std::string error;
  if (status != "ok") {
    error = "status " + std::string(status) + " " +
            std::string(field(head, "error"));
  } else if (field(head, "verdict") !=
             (e.verdict == 'F' ? "feasible" : "infeasible")) {
    error = "verdict " + std::string(field(head, "verdict")) + ", pinned " +
            e.verdict;
  } else if (field(head, "degraded") != "false") {
    error = "degraded response";
  } else if (report_at == std::string::npos || r.cache == '?') {
    error = "no report or cache provenance";
  } else {
    // The report runs from after "report": to the envelope's closing brace.
    const std::size_t begin = report_at + 9;
    const std::size_t end = response.rfind('}');
    std::string report = response.substr(begin, end - begin);
    auto [it, inserted] = reports_.emplace(r.entry, std::move(report));
    if (!inserted && it->second != response.substr(begin, end - begin)) {
      error = std::string("report differs from the first one for this model (") +
              std::string(cache) + ")";
    }
  }
  r.ok = error.empty();
  if (out != nullptr && !r.ok) {
    out->fail(e.name + ": " + error);
  }
}

void Serve::segment(std::vector<Request>& reqs, double rate,
                    std::uint64_t id_base, Outcome* out, SpanLog* spans) {
  const IdleSpinners spinners;
  const std::int64_t start = now_ns() + 20'000'000;
  const double gap_ns = 1e9 / rate;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].due = start + static_cast<std::int64_t>(gap_ns * static_cast<double>(i));
  }
  // One client thread drives both connections and spins instead of
  // sleeping, so its own wake-up latency stays out of the measurement.
  // Request i goes out on connection i % kConnections, each connection
  // answers in order.
  std::vector<std::size_t> next_send(kConnections), next_read(kConnections);
  std::vector<std::string> payload(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    next_send[c] = next_read[c] = static_cast<std::size_t>(c);
    if (next_send[c] < reqs.size()) {
      payload[c] = frame(reqs[c], id_base + c);
    }
  }
  std::size_t remaining = reqs.size();
  while (remaining > 0) {
    for (int c = 0; c < kConnections; ++c) {
      const std::size_t i = next_send[c];
      if (i < reqs.size() && now_ns() >= reqs[i].due) {
        reqs[i].sent = now_ns();
        if (!serve::write_frame(fds_[c], payload[c]).ok()) {
          throw std::runtime_error("serve: request write failed");
        }
        reqs[i].written = now_ns();
        next_send[c] = i + kConnections;
        if (next_send[c] < reqs.size()) {
          payload[c] = frame(reqs[next_send[c]], id_base + next_send[c]);
        }
      }
    }
    pollfd fds[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      fds[c] = {fds_[c], POLLIN, 0};
    }
    if (::poll(fds, kConnections, 0) <= 0) {
      continue;
    }
    for (int c = 0; c < kConnections; ++c) {
      const std::size_t i = next_read[c];
      if ((fds[c].revents & POLLIN) == 0 || i >= next_send[c]) {
        continue;
      }
      Request& r = reqs[i];
      r.ready = now_ns();
      auto response = serve::read_frame(fds_[c]);
      r.done = now_ns();
      if (!response.ok() || !response.value().has_value()) {
        throw std::runtime_error("serve: connection lost");
      }
      check(r, *response.value(), out);
      next_read[c] = i + kConnections;
      --remaining;
    }
  }
  if (spans != nullptr) {
    const std::uint32_t write = spans->intern("client.write");
    const std::uint32_t wait = spans->intern("client.wait");
    const std::uint32_t read = spans->intern("client.read");
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Request& r = reqs[i];
      if (r.traced && r.done != 0) {
        spans->add(write, id_base + i, r.sent, r.written);
        spans->add(wait, id_base + i, r.written, std::max(r.written, r.ready));
        spans->add(read, id_base + i, std::max(r.written, r.ready), r.done);
      }
    }
  }
}


double latency_ms(const Request& r) {
  return r.ok ? static_cast<double>(r.done - r.due) / 1e6
              : std::numeric_limits<double>::infinity();
}

/// The latency at reference host speed (HostSpeed).
double scaled_latency_ms(const Request& r) {
  return latency_ms(r) * host_speed().scale_at(r.due);
}

Outcome Serve::run(const RunConfig& config) {
  Outcome out;
  Rng rng(config.seed);
  const double live_s = config.seconds * (config.trace ? 0.5 : 0.7);
  std::vector<Request> reqs =
      stream(rng, static_cast<std::size_t>(kRateRps * live_s));
  if (config.trace) {
    for (std::size_t i = 0; i < reqs.size(); i += 2) {
      reqs[i].traced = true;
    }
  }
  const serve::ServerStats before = server_->stats();
  SpanLog log;
  {
    const SpeedSampler sampler;
    segment(reqs, kRateRps, 1'000'000, &out, config.trace ? &log : nullptr);
  }
  const serve::ServerStats after = server_->stats();
  out.attempted = reqs.size();

  std::vector<double> all, scaled, hits, traced, untraced, lag, queue, service;
  std::uint64_t hit_count = 0, ok = 0, bytes = 0, raw_repeat = 0,
                canonical_repeat = 0;
  std::vector<std::array<bool, 3>> seen(entries_.size(), {false, false, false});
  for (const Request& r : reqs) {
    all.push_back(latency_ms(r));
    scaled.push_back(scaled_latency_ms(r));
    (r.traced ? traced : untraced).push_back(latency_ms(r));
    lag.push_back(static_cast<double>(r.sent - r.due) / 1e6);
    const bool any_seen = seen[r.entry][0] || seen[r.entry][1] ||
                          seen[r.entry][2];
    raw_repeat += seen[r.entry][r.layout] ? 1 : 0;
    canonical_repeat += any_seen ? 1 : 0;
    seen[r.entry][r.layout] = true;
    if (!r.ok) {
      continue;
    }
    ++ok;
    bytes += r.bytes;
    queue.push_back(static_cast<double>(r.queue_ms));
    service.push_back(static_cast<double>(r.service_ms));
    if (r.cache == 'h') {
      ++hit_count;
      hits.push_back(scaled_latency_ms(r));
    }
  }
  const double span_s =
      reqs.empty() ? 1.0 : static_cast<double>(reqs.back().done - reqs.front().due) / 1e9;
  const std::uint64_t n = reqs.size();
  const double nd = n ? static_cast<double>(n) : 1.0;
  // Latencies at reference host speed; wall_latency_p50_ms is the median
  // as measured. ops_per_s is set by the offered rate.
  out.add_e2e("ops_per_s", static_cast<double>(ok) / span_s, "ops/s", ok);
  out.add_e2e("latency_p50_ms", percentile(scaled, 0.50), "ms", n);
  out.add_e2e("latency_mid_ms", middle_mean(scaled), "ms", n);
  out.add_e2e("latency_p90_ms", percentile(scaled, 0.90), "ms", n);
  out.add_e2e("latency_p99_ms", percentile(scaled, 0.99), "ms", n);
  out.add_e2e("hit_latency_p50_ms", percentile(hits, 0.50), "ms", hits.size());
  out.add_e2e("wall_latency_p50_ms", percentile(all, 0.50), "ms", n);

  out.add_layer("serve.hit_ratio", static_cast<double>(hit_count) / nd, "ratio", n);
  out.add_layer("serve.evictions",
                static_cast<double>(after.cache.evictions - before.cache.evictions),
                "count", n);
  out.add_layer("serve.coalesced",
                static_cast<double>(after.cache.coalesced - before.cache.coalesced),
                "count", n);
  out.add_layer("serve.raw_repeat_share", static_cast<double>(raw_repeat) / nd,
                "ratio", n);
  out.add_layer("serve.canonical_repeat_share",
                static_cast<double>(canonical_repeat) / nd, "ratio", n);
  out.add_layer("serve.queue_ms_p99", percentile(queue, 0.99), "ms", queue.size());
  out.add_layer("serve.service_ms_p50", percentile(service, 0.50), "ms",
                service.size());
  out.add_layer("serve.peak_queue_depth",
                static_cast<double>(after.peak_queue_depth), "count", n);
  out.add_layer("serve.sheds", static_cast<double>(after.sheds - before.sheds),
                "count", n);
  out.add_layer("serve.degrades",
                static_cast<double>(after.degrades - before.degrades), "count", n);
  out.add_layer("serve.response_kb",
                ok ? static_cast<double>(bytes) / 1024.0 / static_cast<double>(ok)
                   : 0.0,
                "KiB", ok);
  out.add_layer("loadgen.lag_p99_ms", percentile(lag, 0.99), "ms", n);

  // The ladder below loads the process harder than the measured segment;
  // the reported peak is the one the segment reached.
  out.add_e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);

  if (!config.trace) {
    // Capacity ladder: the highest rate whose p99 (and the p99 of its last
    // tenth, so a growing backlog fails the step) stays under the limit.
    double max_rate = 0.0;
    std::uint64_t id_base = 2'000'000;
    for (const double rate : kLadder) {
      std::vector<Request> step =
          stream(rng, static_cast<std::size_t>(rate * kLadderStepS));
      segment(step, rate, id_base, &out, nullptr);
      id_base += step.size();
      out.attempted += step.size();
      std::vector<double> lat, tail;
      for (std::size_t i = 0; i < step.size(); ++i) {
        lat.push_back(latency_ms(step[i]));
        if (i >= step.size() * 9 / 10) tail.push_back(latency_ms(step[i]));
      }
      if (percentile(lat, 0.99) >= kLatencyLimitMs ||
          percentile(tail, 0.99) >= kLatencyLimitMs) {
        break;
      }
      max_rate = rate;
    }
    out.add_e2e("max_rate_rps", max_rate, "req/s", 0);
    return out;
  }

  // Traced run: replay the same request stream, in order, through the
  // serve library's public functions on a cache of the same capacity.
  const std::uint32_t op = log.intern("op");
  const std::uint32_t s_json = log.intern("serve.parse_json");
  const std::uint32_t s_req = log.intern("serve.parse_request");
  const std::uint32_t s_prep = log.intern("serve.prepare_request");
  const std::uint32_t s_cache = log.intern("serve.cache");
  const std::uint32_t s_build = log.intern("builder.build_tpn");
  const std::uint32_t s_search = log.intern("sched.search");
  const std::uint32_t s_report = log.intern("core.run_report_json");
  const std::uint32_t s_resp = log.intern("core.serve_response_json");
  serve::ScheduleCache cache(kCacheEntries);
  const std::int64_t stop =
      now_ns() + static_cast<std::int64_t>(config.seconds * 0.45 * 1e9);
  std::uint64_t misses = 0, nodes = 0, states = 0, fired = 0;
  for (std::size_t i = 0; i < reqs.size() && now_ns() < stop; ++i) {
    ++out.attempted;
    const std::uint64_t id = 3'000'000 + i;
    const std::string payload = frame(reqs[i], 1'000'000 + i);
    const Entry& e = entries_[reqs[i].entry];
    Scoped whole(&log, op, id);
    std::optional<serve::JsonValue> json;
    {
      Scoped s(&log, s_json, id);
      auto parsed = serve::parse_json(payload);
      if (!parsed.ok()) { out.fail(e.name + ": replay parse_json"); continue; }
      json.emplace(std::move(parsed).value());
    }
    std::optional<serve::ServeRequest> request;
    {
      Scoped s(&log, s_req, id);
      auto parsed = serve::parse_request(*json);
      if (!parsed.ok()) { out.fail(e.name + ": replay parse_request"); continue; }
      request.emplace(std::move(parsed).value());
    }
    std::optional<serve::PreparedRequest> prepared;
    {
      Scoped s(&log, s_prep, id);
      auto p = serve::prepare_request(*request);
      if (!p.ok()) { out.fail(e.name + ": replay prepare_request"); continue; }
      prepared.emplace(std::move(p).value());
    }
    serve::ScheduleCache::Ticket ticket;
    {
      Scoped s(&log, s_cache, id);
      ticket = cache.acquire(prepared->digest, std::chrono::steady_clock::now() +
                                                   std::chrono::seconds(30));
    }
    core::ServeResponseInfo info;
    info.id = request->id;
    std::string report = std::move(ticket.report_json);
    if (ticket.role == serve::ScheduleCache::Role::kOwner) {
      ++misses;
      core::Project project(std::move(prepared->specification),
                            prepared->build, prepared->scheduler);
      {
        Scoped s(&log, s_build, id);
        (void)project.build();
      }
      {
        Scoped s(&log, s_search, id);
        (void)project.schedule();
      }
      if (!project.scheduled()) { out.fail(e.name + ": replay build failed"); continue; }
      const auto& outcome = project.outcome();
      info.code = core::exit_code_for(outcome.status);
      info.verdict = sched::to_string(outcome.status);
      info.cache = "miss";
      {
        Scoped s(&log, s_report, id);
        core::RunReportExtras extras;
        extras.deterministic = true;
        report = core::run_report_json(project, nullptr, &extras);
      }
      {
        Scoped s(&log, s_cache, id);
        cache.publish(prepared->digest, report, info.code, info.verdict);
      }
      nodes += project.model().net.place_count() +
               project.model().net.transition_count();
      states += outcome.stats.states_visited;
      fired += outcome.stats.transitions_fired;
    } else {
      info.code = ticket.exit_code;
      info.verdict = ticket.verdict;
      info.cache = "hit";
    }
    {
      Scoped s(&log, s_resp, id);
      (void)core::serve_response_json(info, &report);
    }
    const auto it = reports_.find(reqs[i].entry);
    if (it != reports_.end() && it->second != report) {
      out.fail(e.name + ": replayed report differs from the server's");
    }
  }
  add_layer_times(out, log, "op",
                  {{"serve.parse_json", "serve.parse_json"},
                   {"serve.parse_request", "serve.parse_request"},
                   {"serve.prepare_request", "serve.prepare_request"},
                   {"serve.cache", "serve.cache"},
                   {"builder.build_tpn", "builder.build_tpn"},
                   {"sched.search", "sched.search"},
                   {"core.run_report_json", "core.run_report_json"},
                   {"core.serve_response_json", "core.serve_response_json"}});
  const auto totals = log.totals();
  // Client spans belong to the live requests, not to the replayed ones.
  for (const char* name : {"client.write", "client.wait", "client.read"}) {
    const auto it = totals.find(name);
    if (it != totals.end()) {
      out.add_layer(std::string(name) + "_us",
                    it->second.total_ns / 1e3 /
                        static_cast<double>(it->second.calls),
                    "us", it->second.calls);
    }
  }
  const double md = misses ? static_cast<double>(misses) : 1.0;
  out.add_layer("builder.build_tpn.nodes", static_cast<double>(nodes) / md,
                "count", misses);
  out.add_layer("sched.search.states", static_cast<double>(states) / md,
                "count", misses);
  out.add_layer("sched.search.fired_per_state",
                states ? static_cast<double>(fired) / static_cast<double>(states)
                       : 0.0,
                "ratio", misses);
  const auto search = totals.find("sched.search");
  out.add_layer("sched.search.us_per_state",
                search != totals.end() && states
                    ? search->second.self_ns / 1e3 / static_cast<double>(states)
                    : 0.0,
                "us", misses);
  out.add_layer("serve.replay_hit_ratio",
                totals.count("op")
                    ? 1.0 - md / static_cast<double>(totals.at("op").calls)
                    : 0.0,
                "ratio", totals.count("op") ? totals.at("op").calls : 0);
  const double traced_p50 = percentile(traced, 0.50);
  const double bare_p50 = percentile(untraced, 0.50);
  out.add_layer("trace.overhead_pct", (traced_p50 / bare_p50 - 1.0) * 100.0,
                "%", traced.size());
  log.write_jsonl(config.out_dir + "/spans-serve-" +
                  std::to_string(config.seed) + ".jsonl");
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_serve() { return std::make_unique<Serve>(); }

}  // namespace perfbench
