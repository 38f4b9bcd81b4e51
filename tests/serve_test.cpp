// `ezrt serve` robustness contract (docs/serve.md): JSON/framing strictness,
// content-addressed caching with single-flight deduplication, deadline-aware
// admission control and shedding, graceful degradation under queue pressure,
// and drain semantics. Socket tests run the real Server on a unix socket in
// a temp dir; the cache and parser layers are exercised directly.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "core/project.hpp"
#include "core/response.hpp"
#include "core/run_options.hpp"
#include "core/run_report.hpp"
#include "obs/json.hpp"
#include "pnml/ezspec_io.hpp"
#include "serve/cache.hpp"
#include "serve/json_in.hpp"
#include "serve/protocol.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "workload/generator.hpp"

namespace ezrt::serve {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- json_in

TEST(JsonIn, ParsesScalarsObjectsAndArrays) {
  auto v = parse_json(R"({"a": [1, 2.5, "x\n", true, null], "b": {}})");
  ASSERT_TRUE(v.ok()) << v.error().to_string();
  const JsonValue* a = v.value().find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_TRUE(a->array[0].is_uint);
  EXPECT_EQ(a->array[0].uint_value, 1u);
  EXPECT_FALSE(a->array[1].is_uint);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_EQ(a->array[2].string, "x\n");
  EXPECT_TRUE(a->array[3].boolean);
  EXPECT_EQ(a->array[4].kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(v.value().find("b")->is_object());
}

TEST(JsonIn, LargeIntegersKeepExactUint64) {
  auto v = parse_json("18446744073709551615");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.value().is_uint);
  EXPECT_EQ(v.value().uint_value, 18446744073709551615ull);
}

TEST(JsonIn, RejectsMalformedDocuments) {
  const std::vector<std::string> documents = {
      "", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "01", "1.", "1e",
      "\"unterminated", "\"bad \\q escape\"", "{} trailing", "nan",
      "'single'",
      // Raw control bytes inside a run of plain bytes, and a string whose
      // input ends inside one.
      "\"plain \x01" "control\"", "\"raw\nnewline\"",
      "\"" + std::string(300, 'x')};
  for (const std::string& bad : documents) {
    EXPECT_FALSE(parse_json(bad).ok()) << bad;
  }
}

TEST(JsonIn, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < kMaxJsonDepth + 8; ++i) {
    deep += "[";
  }
  const auto result = parse_json(deep);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("nesting"), std::string::npos);
}

TEST(JsonIn, DecodesEscapesAndSurrogatePairs) {
  auto v = parse_json(R"("Aé€😀")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().string, "A\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
}

// ----------------------------------------------------------------- digest

TEST(Digest, CanonicalizationCollapsesFormattingOnly) {
  ServeRequest request;
  request.spec_text =
      pnml::write_ezspec(workload::mine_pump_specification()).value();
  auto a = prepare_request(request);
  ASSERT_TRUE(a.ok());
  // Same document with cosmetic whitespace changes parses to the same
  // model, so the canonical digest must match.
  ServeRequest reformatted = request;
  reformatted.spec_text.insert(reformatted.spec_text.find('\n'), "   ");
  auto b = prepare_request(reformatted);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().digest.hex(), b.value().digest.hex());
  // A different model must not.
  ServeRequest other = request;
  other.spec_text =
      pnml::write_ezspec(workload::uav_autopilot_specification()).value();
  auto c = prepare_request(other);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.value().digest.hex(), c.value().digest.hex());
}

/// The flat `"name":{...}` section of a run report.
std::string report_section(const std::string& report, const std::string& name) {
  const std::size_t at = report.find("\"" + name + "\":{");
  EXPECT_NE(at, std::string::npos) << name;
  return report.substr(at, report.find('}', at) - at);
}

/// The model and options sections of the report of a run with `options`.
std::string echoed_options(const core::RunOptions& options) {
  spec::Specification specification = workload::mine_pump_specification();
  options.apply_to(specification);
  core::Project project(std::move(specification), options.build,
                        options.scheduler);
  EXPECT_TRUE(project.build().ok());
  const std::string report = core::run_report_json(project, nullptr);
  return report_section(report, "model") + report_section(report, "options");
}

TEST(Digest, EveryOptionKnobMovesTheFingerprint) {
  // Walks the run-option table: a non-default value of any row must show
  // in the run report, and one of a served row must also move the cache
  // key. A row added without its wiring fails here.
  const core::RunOptions defaults;
  const std::string baseline = echoed_options(defaults);
  const auto base_key = option_fingerprint(ServeRequest{});
  for (const core::RunOption& row : core::run_options()) {
    core::RunOptions options;
    const std::uint64_t word =
        row.get(defaults) == row.min + 1 ? row.min + 2 : row.min + 1;
    ASSERT_TRUE(core::set_word(options, row, word, row.name).ok())
        << row.name;
    core::resolve(options);
    EXPECT_NE(echoed_options(options), baseline) << row.name;
    ServeRequest request;
    request.options = options;
    if (row.served) {
      EXPECT_NE(option_fingerprint(request), base_key) << row.name;
    } else {
      EXPECT_EQ(option_fingerprint(request), base_key) << row.name;
    }
  }
  // The override value itself, once one is present.
  ServeRequest budgeted;
  budgeted.options.sync_budget = 3;
  ServeRequest rebudgeted;
  rebudgeted.options.sync_budget = 4;
  EXPECT_NE(option_fingerprint(budgeted), option_fingerprint(rebudgeted));
}

// ------------------------------------------------------------------ cache

TEST(Cache, HitAfterPublishAndLruEviction) {
  ScheduleCache cache(2);
  const Digest d1{1, 1};
  const Digest d2{2, 2};
  const Digest d3{3, 3};
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  for (const Digest& d : {d1, d2, d3}) {
    auto ticket = cache.acquire(d, deadline);
    ASSERT_EQ(ticket.role, ScheduleCache::Role::kOwner);
    cache.publish(d, "report-" + d.hex().substr(31), 0, "feasible");
  }
  // d1 is the LRU victim of publishing d3 into a capacity-2 cache.
  EXPECT_EQ(cache.acquire(d1, deadline).role, ScheduleCache::Role::kOwner);
  cache.abandon(d1);
  EXPECT_EQ(cache.acquire(d2, deadline).role, ScheduleCache::Role::kHit);
  EXPECT_EQ(cache.acquire(d3, deadline).role, ScheduleCache::Role::kHit);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(Cache, SingleFlightExactlyOneOwnerPerDigest) {
  ScheduleCache cache(8);
  const Digest digest{42, 43};
  constexpr int kThreads = 8;
  std::atomic<int> owners{0};
  std::atomic<int> shared{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      auto ticket =
          cache.acquire(digest, Clock::now() + std::chrono::seconds(10));
      if (ticket.role == ScheduleCache::Role::kOwner) {
        ++owners;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        cache.publish(digest, "the-report", 0, "feasible");
      } else {
        ASSERT_EQ(ticket.role, ScheduleCache::Role::kShared);
        EXPECT_EQ(ticket.report_json, "the-report");
        ++shared;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(owners.load(), 1);
  EXPECT_EQ(shared.load(), kThreads - 1);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, AbandonPromotesAWaiterToOwner) {
  ScheduleCache cache(8);
  const Digest digest{7, 9};
  auto owner = cache.acquire(digest, Clock::now() + std::chrono::seconds(5));
  ASSERT_EQ(owner.role, ScheduleCache::Role::kOwner);
  std::thread waiter([&] {
    auto ticket =
        cache.acquire(digest, Clock::now() + std::chrono::seconds(5));
    // The abandoning owner hands the digest to this waiter.
    EXPECT_EQ(ticket.role, ScheduleCache::Role::kOwner);
    cache.publish(digest, "second-try", 2, "infeasible");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.abandon(digest);
  waiter.join();
  auto hit = cache.acquire(digest, Clock::now());
  EXPECT_EQ(hit.role, ScheduleCache::Role::kHit);
  EXPECT_EQ(hit.report_json, "second-try");
  EXPECT_EQ(hit.exit_code, 2);
}

TEST(Cache, WaiterTimesOutWhenOwnerIsSlow) {
  ScheduleCache cache(8);
  const Digest digest{5, 5};
  auto owner = cache.acquire(digest, Clock::now() + std::chrono::seconds(5));
  ASSERT_EQ(owner.role, ScheduleCache::Role::kOwner);
  auto ticket =
      cache.acquire(digest, Clock::now() + std::chrono::milliseconds(30));
  EXPECT_EQ(ticket.role, ScheduleCache::Role::kTimeout);
  cache.abandon(digest);
}

// ------------------------------------------------------------ alias index

/// Runs `canonical` through the owner path so it is resident.
void publish_entry(ScheduleCache& cache, const Digest& canonical,
                   const std::string& report) {
  ASSERT_EQ(cache.acquire(canonical, Clock::now() + std::chrono::seconds(5))
                .role,
            ScheduleCache::Role::kOwner);
  cache.publish(canonical, report, 0, "feasible");
}

TEST(CacheAlias, HitsAfterPublish) {
  ScheduleCache cache(8);
  const Digest canonical{1, 1};
  const Digest raw{10, 10};
  cache.add_alias(raw, canonical);  // not resident yet: nothing recorded
  EXPECT_FALSE(cache.lookup_alias(raw).has_value());
  publish_entry(cache, canonical, "the-report");
  cache.add_alias(raw, canonical);
  const auto ticket = cache.lookup_alias(raw);
  ASSERT_TRUE(ticket.has_value());
  EXPECT_EQ(ticket->role, ScheduleCache::Role::kHit);
  EXPECT_EQ(ticket->report_json, "the-report");
  EXPECT_EQ(ticket->verdict, "feasible");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.alias_hits, 1u);
  EXPECT_EQ(stats.aliases, 1u);
}

TEST(CacheAlias, EvictionErasesTheEntrysAliases) {
  ScheduleCache cache(1);
  const Digest first{1, 1};
  const Digest second{2, 2};
  const Digest raw{10, 10};
  publish_entry(cache, first, "one");
  cache.add_alias(raw, first);
  ASSERT_TRUE(cache.lookup_alias(raw).has_value());
  publish_entry(cache, second, "two");  // evicts `first`
  EXPECT_FALSE(cache.lookup_alias(raw).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.aliases, 0u);
}

TEST(CacheAlias, CapacityZeroStoresNoAlias) {
  ScheduleCache cache(0);
  const Digest canonical{1, 1};
  const Digest raw{10, 10};
  publish_entry(cache, canonical, "report");
  cache.add_alias(raw, canonical);
  EXPECT_FALSE(cache.lookup_alias(raw).has_value());
  EXPECT_EQ(cache.stats().aliases, 0u);
}

TEST(CacheAlias, FifthLayoutDropsTheEntrysOldestAlias) {
  ScheduleCache cache(8);
  const Digest canonical{1, 1};
  publish_entry(cache, canonical, "report");
  std::vector<Digest> layouts;
  for (std::uint64_t i = 0; i <= ScheduleCache::kMaxAliasesPerEntry; ++i) {
    layouts.push_back(Digest{100 + i, 100 + i});
    cache.add_alias(layouts.back(), canonical);
    const CacheStats stats = cache.stats();
    EXPECT_LE(stats.aliases,
              ScheduleCache::kMaxAliasesPerEntry * stats.entries);
  }
  EXPECT_EQ(cache.stats().aliases, ScheduleCache::kMaxAliasesPerEntry);
  EXPECT_FALSE(cache.lookup_alias(layouts.front()).has_value());
  for (std::size_t i = 1; i < layouts.size(); ++i) {
    EXPECT_TRUE(cache.lookup_alias(layouts[i]).has_value()) << i;
  }
}

TEST(CacheAlias, InFlightDigestFallsThroughToSingleFlight) {
  // `raw` was recorded while `canonical` was resident; `canonical` was
  // then evicted and is being searched again. The alias must not answer,
  // and the canonical path must still coalesce onto the one owner.
  ScheduleCache cache(1);
  const Digest canonical{1, 1};
  const Digest other{2, 2};
  const Digest raw{10, 10};
  publish_entry(cache, canonical, "first");
  cache.add_alias(raw, canonical);
  publish_entry(cache, other, "other");
  const auto owner =
      cache.acquire(canonical, Clock::now() + std::chrono::seconds(10));
  ASSERT_EQ(owner.role, ScheduleCache::Role::kOwner);
  constexpr int kThreads = 4;
  std::atomic<int> shared{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      EXPECT_FALSE(cache.lookup_alias(raw).has_value());
      const auto ticket =
          cache.acquire(canonical, Clock::now() + std::chrono::seconds(10));
      if (ticket.role == ScheduleCache::Role::kShared) {
        EXPECT_EQ(ticket.report_json, "second");
        ++shared;
      }
    });
  }
  // Publish only once every thread has looked up the alias and parked.
  const auto give_up = Clock::now() + std::chrono::seconds(5);
  while (cache.stats().coalesced < kThreads && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cache.publish(canonical, "second", 0, "feasible");
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(shared.load(), kThreads);
  EXPECT_EQ(cache.stats().misses, 3u);  // first, other, and this owner
  EXPECT_EQ(cache.stats().alias_hits, 0u);
  cache.add_alias(raw, canonical);
  EXPECT_EQ(cache.lookup_alias(raw)->report_json, "second");
}

// --------------------------------------------------------------- envelope

TEST(Envelope, CarriesCodesVerdictAndSplicedReport) {
  core::ServeResponseInfo info;
  info.id = "req-1";
  info.status = "ok";
  info.code = core::kExitOk;
  info.verdict = "feasible";
  info.cache = "hit";
  info.queue_ms = 3;
  const std::string report = R"({"schema":"ezrt-run-report"})";
  const std::string json = core::serve_response_json(info, &report);
  auto parsed = parse_json(json);
  ASSERT_TRUE(parsed.ok()) << json;
  EXPECT_EQ(parsed.value().find("schema")->string, "ezrt-serve-response");
  EXPECT_EQ(parsed.value().find("id")->string, "req-1");
  EXPECT_EQ(parsed.value().find("code")->uint_value, 0u);
  EXPECT_EQ(parsed.value().find("cache")->string, "hit");
  EXPECT_EQ(parsed.value().find("report")->find("schema")->string,
            "ezrt-run-report");
}

TEST(Envelope, ExitCodeContractMatchesTheCli) {
  EXPECT_EQ(core::exit_code_for(sched::SearchStatus::kFeasible), 0);
  EXPECT_EQ(core::exit_code_for(sched::SearchStatus::kInfeasible), 2);
  EXPECT_EQ(core::exit_code_for(sched::SearchStatus::kTimeLimit), 3);
  EXPECT_EQ(core::exit_code_for(sched::SearchStatus::kMemoryLimit), 3);
  EXPECT_EQ(core::exit_code_for(sched::SearchStatus::kCancelled), 130);
  EXPECT_EQ(
      core::exit_code_for(make_error(ErrorCode::kParseError, "x")), 4);
  EXPECT_EQ(
      core::exit_code_for(make_error(ErrorCode::kInfeasible, "x")), 2);
  EXPECT_EQ(core::exit_code_for(make_error(ErrorCode::kIoError, "x")), 1);
}

// ------------------------------------------------------- request parsing

TEST(Request, RejectsUnknownOptionsAndBadShapes) {
  auto must_fail = [](const char* json) {
    auto doc = parse_json(json);
    ASSERT_TRUE(doc.ok()) << json;
    EXPECT_FALSE(parse_request(doc.value()).ok()) << json;
  };
  must_fail(R"([1,2,3])");
  must_fail(R"({"op":"schedule"})");                      // missing spec
  must_fail(R"({"op":"frobnicate","spec":"x"})");
  must_fail(R"({"schema":"wrong","op":"ping"})");
  must_fail(R"({"version":2,"op":"ping"})");
  must_fail(R"({"op":"schedule","spec":"x","options":{"max_staets":1}})");
  must_fail(R"({"op":"schedule","spec":"x","options":{"engine":"warp"}})");
  must_fail(
      R"({"op":"schedule","spec":"x","options":{"max_states":-1}})");
  // Only the served rows, in their serve spelling, with the right type.
  must_fail(R"({"op":"schedule","spec":"x","options":{"max-states":1}})");
  must_fail(R"({"op":"schedule","spec":"x","options":{"wall_limit":1}})");
  must_fail(R"({"op":"schedule","spec":"x","options":{"complete":1}})");
  must_fail(R"({"op":"schedule","spec":"x","options":{"engine":1}})");
  must_fail(R"({"op":"schedule","spec":"x","options":{"threads":"2"}})");
  // Out of range, including values that would narrow to 32 bits.
  must_fail(
      R"({"op":"schedule","spec":"x","options":{"threads":4294967295}})");
  must_fail(
      R"({"op":"schedule","spec":"x","options":{"beam_width":4294967296}})");
  must_fail(
      R"({"op":"schedule","spec":"x","options":{"sync_budget":4294967296}})");
  must_fail(R"({"op":"schedule","spec":"x","options":{"beam_width":0}})");
}

TEST(Request, MemberOrderDoesNotChangeTheRun) {
  // JSON objects are unordered: "optimize implies complete" is applied
  // after every option is set, whichever member came first.
  std::vector<std::vector<std::uint64_t>> keys;
  std::vector<std::string> echoes;
  const char* orders[] = {
      R"({"op":"ping","options":{"optimize":"makespan","complete":false}})",
      R"({"op":"ping","options":{"complete":false,"optimize":"makespan"}})"};
  for (const char* json : orders) {
    auto request = parse_request(parse_json(json).value());
    ASSERT_TRUE(request.ok()) << json;
    request.value().spec_text =
        pnml::write_ezspec(workload::mine_pump_specification()).value();
    auto prepared = prepare_request(request.value());
    ASSERT_TRUE(prepared.ok());
    core::Project project(std::move(prepared.value().specification),
                          prepared.value().build, prepared.value().scheduler);
    echoes.push_back(
        report_section(core::run_report_json(project, nullptr), "options"));
    keys.push_back(option_fingerprint(request.value()));
  }
  EXPECT_EQ(keys[0], keys[1]);
  EXPECT_EQ(echoes[0], echoes[1]);
  EXPECT_NE(echoes[0].find("\"pruning\":\"none\""), std::string::npos);
}

// ------------------------------------------------------------ socket e2e

class ServeTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ezrt_serve_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    mine_pump_ =
        pnml::write_ezspec(workload::mine_pump_specification()).value();
    uav_ = pnml::write_ezspec(workload::uav_autopilot_specification())
               .value();
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string endpoint(const std::string& name) const {
    return "unix:" + (dir_ / (name + ".sock")).string();
  }

  [[nodiscard]] static std::string schedule_request(
      const std::string& spec, const std::string& id,
      std::uint64_t budget_ms = 0, bool complete = false) {
    obs::JsonWriter w;
    w.begin_object();
    w.member("schema", "ezrt-serve-request");
    w.member("version", std::uint64_t{1});
    w.member("id", id);
    w.member("op", "schedule");
    if (budget_ms != 0) {
      w.member("budget_ms", budget_ms);
    }
    if (complete) {
      w.key("options");
      w.begin_object();
      w.member("complete", true);
      w.end_object();
    }
    w.member("spec", spec);
    w.end_object();
    return w.take();
  }

  /// Sends one frame on a fresh connection and returns the raw response.
  [[nodiscard]] static std::string roundtrip_frame(
      const std::string& endpoint, const std::string& payload) {
    auto fd = connect_endpoint(endpoint);
    EXPECT_TRUE(fd.ok()) << fd.ok();
    EXPECT_TRUE(write_frame(fd.value(), payload).ok());
    auto frame = read_frame(fd.value());
    ::close(fd.value());
    EXPECT_TRUE(frame.ok());
    EXPECT_TRUE(frame.value().has_value());
    return *frame.value();
  }

  /// Sends one frame on a fresh connection and returns the parsed
  /// response.
  [[nodiscard]] static JsonValue roundtrip(const std::string& endpoint,
                                           const std::string& payload) {
    auto parsed = parse_json(roundtrip_frame(endpoint, payload));
    EXPECT_TRUE(parsed.ok());
    return std::move(parsed).value();
  }

  /// The embedded run report's bytes: the envelope's last member.
  [[nodiscard]] static std::string embedded_report(const std::string& frame) {
    const std::size_t at = frame.find("\"report\":");
    EXPECT_NE(at, std::string::npos) << frame;
    const std::size_t begin = at + 9;
    return frame.substr(begin, frame.rfind('}') - begin);
  }

  fs::path dir_;
  std::string mine_pump_;
  std::string uav_;
};

TEST_F(ServeTest, SchedulesCachesAndServesByteIdenticalReports) {
  ServerOptions options;
  options.endpoint = endpoint("cache");
  options.workers = 2;
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  const std::string first_frame =
      roundtrip_frame(server.endpoint(), schedule_request(mine_pump_, "a"));
  const JsonValue first = parse_json(first_frame).value();
  EXPECT_EQ(first.find("status")->string, "ok");
  EXPECT_EQ(first.find("verdict")->string, "feasible");
  EXPECT_EQ(first.find("cache")->string, "miss");
  EXPECT_EQ(first.find("code")->uint_value, 0u);
  ASSERT_NE(first.find("report"), nullptr);
  EXPECT_EQ(first.find("report")->find("schema")->string, "ezrt-run-report");
  const std::string report = embedded_report(first_frame);

  // A whitespace-reformatted copy has its own raw digest but the same
  // canonical one. In order: an alias hit on the first document, a
  // canonical-path hit on the copy, then an alias hit on the copy.
  std::string reformatted = mine_pump_;
  reformatted.insert(reformatted.find('\n'), "   ");
  const std::string* repeats[] = {&mine_pump_, &reformatted, &reformatted};
  for (const std::string* spec : repeats) {
    const std::string frame =
        roundtrip_frame(server.endpoint(), schedule_request(*spec, "b"));
    EXPECT_EQ(parse_json(frame).value().find("cache")->string, "hit");
    // Deterministic emission: every hit carries the miss's report bytes.
    EXPECT_EQ(embedded_report(frame), report);
  }

  server.shutdown();
  server.wait();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, 3u);
  EXPECT_EQ(stats.cache.alias_hits, 2u);
}

TEST_F(ServeTest, SingleFlightCoalescesConcurrentIdenticalRequests) {
  ServerOptions options;
  options.endpoint = endpoint("flight");
  options.workers = 2;
  options.queue_depth = 16;
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  constexpr int kClients = 6;
  std::atomic<int> misses{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const JsonValue response = roundtrip(
          server.endpoint(),
          schedule_request(uav_, "c" + std::to_string(i), 30'000, true));
      EXPECT_EQ(response.find("status")->string, "ok") << i;
      ++served;
      const std::string cache = response.find("cache")->string;
      if (cache == "miss") {
        ++misses;
      } else {
        EXPECT_TRUE(cache == "hit" || cache == "coalesced") << cache;
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(served.load(), kClients);
  // The acceptance criterion: concurrent identical requests trigger
  // exactly one search.
  EXPECT_EQ(misses.load(), 1);
  server.shutdown();
  server.wait();
  EXPECT_EQ(server.stats().cache.misses, 1u);
}

TEST_F(ServeTest, PingStatsAndInvalidPayloads) {
  ServerOptions options;
  options.endpoint = endpoint("misc");
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  EXPECT_EQ(roundtrip(server.endpoint(), R"({"op":"ping","id":"p"})")
                .find("status")
                ->string,
            "ok");

  const JsonValue stats =
      roundtrip(server.endpoint(), R"({"op":"stats"})");
  ASSERT_NE(stats.find("stats"), nullptr);
  EXPECT_GE(stats.find("stats")->find("requests")->uint_value, 1u);

  const JsonValue garbage = roundtrip(server.endpoint(), "this is not json");
  EXPECT_EQ(garbage.find("status")->string, "invalid");
  EXPECT_EQ(garbage.find("code")->uint_value, 4u);

  const JsonValue bad_spec = roundtrip(
      server.endpoint(), schedule_request("<system name='x'/>", "s"));
  EXPECT_EQ(bad_spec.find("status")->string, "invalid");
  EXPECT_EQ(bad_spec.find("code")->uint_value, 4u);

  server.shutdown();
  server.wait();
}

/// A `stats` op object as (name, value) pairs in emission order, the cache
/// members named "cache.<member>".
using Members = std::vector<std::pair<std::string, std::uint64_t>>;
Members flatten_stats(const JsonValue& object, const std::string& prefix = "") {
  Members out;
  for (const auto& [key, member] : object.object) {
    if (member.is_object()) {
      const Members inner = flatten_stats(member, prefix + key + ".");
      out.insert(out.end(), inner.begin(), inner.end());
    } else {
      EXPECT_TRUE(member.is_uint) << prefix << key;
      out.emplace_back(prefix + key, member.uint_value);
    }
  }
  return out;
}

TEST_F(ServeTest, StatsCountEveryOutcomeOnce) {
  ServerOptions options;
  options.endpoint = endpoint("tally");
  options.workers = 1;
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());
  const std::string& at = server.endpoint();

  EXPECT_EQ(roundtrip(at, R"({"op":"ping"})").find("status")->string, "ok");
  // The op reads the counters before counting itself as ok.
  const JsonValue early = roundtrip(at, R"({"op":"stats"})");
  ASSERT_NE(early.find("stats"), nullptr);
  EXPECT_EQ(flatten_stats(*early.find("stats")),
            (Members{{"connections", 2}, {"requests", 2}, {"ok", 1},
                     {"sheds", 0}, {"degrades", 0}, {"invalid", 0},
                     {"errors", 0}, {"queue_depth", 0},
                     {"peak_queue_depth", 0}, {"workers", 1},
                     {"cache.hits", 0}, {"cache.alias_hits", 0},
                     {"cache.misses", 0}, {"cache.coalesced", 0},
                     {"cache.evictions", 0}, {"cache.abandoned", 0},
                     {"cache.entries", 0}, {"cache.aliases", 0}}));

  // A miss (which also primes the EWMA), an alias hit on the same bytes
  // and a canonical hit on a reformatted copy.
  std::string reformatted = mine_pump_;
  reformatted.insert(reformatted.find('\n'), "   ");
  EXPECT_EQ(roundtrip(at, schedule_request(mine_pump_, "m")).find("cache")
                ->string,
            "miss");
  EXPECT_EQ(roundtrip(at, schedule_request(mine_pump_, "a")).find("cache")
                ->string,
            "hit");
  EXPECT_EQ(roundtrip(at, schedule_request(reformatted, "r")).find("cache")
                ->string,
            "hit");
  EXPECT_EQ(roundtrip(at, "this is not json").find("status")->string,
            "invalid");
  EXPECT_EQ(roundtrip(at, schedule_request("<system name='x'/>", "s"))
                .find("status")
                ->string,
            "invalid");
  // Shed at admission as in ExpiredBudgetIsShedBeforeAnyWork: the owner
  // ticket is taken, then abandoned.
  EXPECT_EQ(roundtrip(at, schedule_request(uav_, "t", /*budget_ms=*/1))
                .find("status")
                ->string,
            "overloaded");

  const JsonValue late = roundtrip(at, R"({"op":"stats"})");
  ASSERT_NE(late.find("stats"), nullptr);
  EXPECT_EQ(flatten_stats(*late.find("stats")),
            (Members{{"connections", 9}, {"requests", 9}, {"ok", 5},
                     {"sheds", 1}, {"degrades", 0}, {"invalid", 2},
                     {"errors", 0}, {"queue_depth", 0},
                     {"peak_queue_depth", 1}, {"workers", 1},
                     {"cache.hits", 2}, {"cache.alias_hits", 1},
                     {"cache.misses", 2}, {"cache.coalesced", 0},
                     {"cache.evictions", 0}, {"cache.abandoned", 1},
                     {"cache.entries", 1}, {"cache.aliases", 2}}));

  server.shutdown();
  server.wait();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections, 9u);
  EXPECT_EQ(stats.requests, 9u);
  EXPECT_EQ(stats.ok, 6u);
  EXPECT_EQ(stats.sheds, 1u);
  EXPECT_EQ(stats.degrades, 0u);
  EXPECT_EQ(stats.invalid, 2u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.peak_queue_depth, 1u);
  EXPECT_EQ(stats.cache.hits, 2u);
  EXPECT_EQ(stats.cache.alias_hits, 1u);
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.coalesced, 0u);
  EXPECT_EQ(stats.cache.evictions, 0u);
  EXPECT_EQ(stats.cache.abandoned, 1u);
  EXPECT_EQ(stats.cache.entries, 1u);
  EXPECT_EQ(stats.cache.aliases, 2u);
}

TEST_F(ServeTest, RunReportCountersStayEmptyAfterServing) {
  ServerOptions options;
  options.endpoint = endpoint("counters");
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(roundtrip(server.endpoint(), schedule_request(mine_pump_, "m"))
                .find("status")
                ->string,
            "ok");
  server.shutdown();
  server.wait();

  // A non-deterministic report of an unrelated run in the same process
  // carries no trace of the serving.
  core::Project project(workload::uav_autopilot_specification());
  ASSERT_TRUE(project.schedule().ok());
  const std::string report = core::run_report_json(project, nullptr);
  EXPECT_NE(report.find("\"counters\":{}"), std::string::npos)
      << report.substr(report.find("\"counters\""));
}

TEST_F(ServeTest, OutOfRangeOptionIsInvalidAndTheServerKeepsServing) {
  ServerOptions options;
  options.endpoint = endpoint("range");
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  // A thread count the pool cannot size is refused at parse time, never
  // handed to a worker.
  obs::JsonWriter w;
  w.begin_object();
  w.member("op", "schedule");
  w.key("options").begin_object();
  w.member("threads", std::uint64_t{4294967295});
  w.end_object();
  w.member("spec", mine_pump_);
  w.end_object();
  const JsonValue response = roundtrip(server.endpoint(), w.take());
  EXPECT_EQ(response.find("status")->string, "invalid");
  EXPECT_EQ(response.find("code")->uint_value, 4u);
  EXPECT_NE(response.find("error")->string.find("threads"), std::string::npos);
  EXPECT_EQ(roundtrip(server.endpoint(), R"({"op":"ping"})")
                .find("status")
                ->string,
            "ok");

  server.shutdown();
  server.wait();
}

TEST_F(ServeTest, OversizedFrameIsRejectedWithExitCode4Equivalent) {
  ServerOptions options;
  options.endpoint = endpoint("oversize");
  options.max_request_bytes = 4096;
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  auto fd = connect_endpoint(server.endpoint());
  ASSERT_TRUE(fd.ok());
  // Declare a payload beyond the server's cap; the server must answer
  // with a structured `invalid` response without buffering the body.
  const std::uint32_t declared = 1u << 20;
  const char header[4] = {
      static_cast<char>((declared >> 24) & 0xFF),
      static_cast<char>((declared >> 16) & 0xFF),
      static_cast<char>((declared >> 8) & 0xFF),
      static_cast<char>(declared & 0xFF),
  };
  ASSERT_EQ(::send(fd.value(), header, sizeof header, MSG_NOSIGNAL), 4);
  const std::string junk(declared, 'x');
  (void)::send(fd.value(), junk.data(), junk.size(), MSG_NOSIGNAL);
  auto frame = read_frame(fd.value());
  ::close(fd.value());
  ASSERT_TRUE(frame.ok() && frame.value().has_value());
  auto response = parse_json(*frame.value());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().find("status")->string, "invalid");
  EXPECT_EQ(response.value().find("code")->uint_value, 4u);
  EXPECT_NE(response.value().find("error")->string.find("exceeds"),
            std::string::npos);

  // A truncated frame (connection closed mid-payload) must not wedge the
  // server: the next connection is served normally.
  auto truncated = connect_endpoint(server.endpoint());
  ASSERT_TRUE(truncated.ok());
  const char half[4] = {0, 0, 1, 0};  // declare 256 bytes, send none
  ASSERT_EQ(::send(truncated.value(), half, sizeof half, MSG_NOSIGNAL), 4);
  ::close(truncated.value());
  EXPECT_EQ(roundtrip(server.endpoint(), R"({"op":"ping"})")
                .find("status")
                ->string,
            "ok");

  server.shutdown();
  server.wait();
  EXPECT_GE(server.stats().invalid, 1u);
}

TEST_F(ServeTest, OverloadBurstShedsWithStructuredResponses) {
  ServerOptions options;
  options.endpoint = endpoint("overload");
  options.workers = 1;
  options.queue_depth = 1;
  options.cache_entries = 0;  // no cross-request reuse: every request works
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  // Occupy the single worker first: an exhaustive search of an infeasible
  // set that outlasts its budget. Once it has left the queue, the burst
  // meets a busy worker and a one-slot queue, so all but one are shed.
  workload::WorkloadConfig config;
  config.seed = 4;
  config.tasks = 12;
  config.utilization = 0.98;
  config.exclusion_pairs = 5;
  const std::string occupant_spec =
      pnml::write_ezspec(workload::generate(config).value()).value();
  std::thread occupant([&] {
    obs::JsonWriter w;
    w.begin_object();
    w.member("op", "schedule");
    w.member("id", "occupant");
    w.member("budget_ms", std::uint64_t{1'500});
    w.key("options");
    w.begin_object();
    w.member("complete", true);
    w.member("max_states", std::uint64_t{0});
    w.member("state_classes", "off");
    w.end_object();
    w.member("spec", occupant_spec);
    w.end_object();
    const JsonValue response = roundtrip(server.endpoint(), w.take());
    EXPECT_EQ(response.find("status")->string, "ok");  // served, not shed
  });
  // Queued once and dequeued again: the worker is busy with it.
  auto dequeued = [&] {
    const ServerStats stats = server.stats();
    return stats.peak_queue_depth >= 1 && stats.queue_depth == 0;
  };
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  while (!dequeued() && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(dequeued());

  // Distinct digests (different budgets do not change the digest, so vary
  // the spec via sync_budget) keep single-flight out of the picture.
  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      obs::JsonWriter w;
      w.begin_object();
      w.member("op", "schedule");
      w.member("id", "burst" + std::to_string(i));
      w.member("budget_ms", std::uint64_t{10'000});
      w.key("options");
      w.begin_object();
      w.member("complete", true);
      w.member("sync_budget", std::uint64_t{8} + i);  // digest diversity
      w.end_object();
      w.member("spec", uav_);
      w.end_object();
      const JsonValue response = roundtrip(server.endpoint(), w.take());
      const std::string status = response.find("status")->string;
      if (status == "ok") {
        ++ok;
      } else if (status == "overloaded") {
        // Structured shed: exit-code-3 equivalent plus a backoff hint.
        EXPECT_EQ(response.find("code")->uint_value, 3u);
        EXPECT_GT(response.find("retry_after_ms")->uint_value, 0u);
        ++overloaded;
      } else {
        ++other;
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  occupant.join();
  // Every request got a structured answer (no hangs, no crashes), and the
  // burst exceeded queue capacity so at least one was shed.
  EXPECT_EQ(ok.load() + overloaded.load() + other.load(), kClients);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_GE(ok.load(), 1);
  server.shutdown();
  server.wait();
  EXPECT_GE(server.stats().sheds, 1u);
}

TEST_F(ServeTest, ExpiredBudgetIsShedBeforeAnyWork) {
  ServerOptions options;
  options.endpoint = endpoint("expired");
  options.workers = 1;
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());
  // Prime the EWMA so admission has a service-time estimate.
  (void)roundtrip(server.endpoint(), schedule_request(mine_pump_, "prime"));
  // A 1 ms budget cannot cover even a cached... distinct spec: the
  // admission estimate (EWMA > 0) exceeds the remaining budget, so the
  // request is shed as `overloaded` without a worker touching it.
  const JsonValue response = roundtrip(
      server.endpoint(), schedule_request(uav_, "tight", /*budget_ms=*/1));
  EXPECT_EQ(response.find("status")->string, "overloaded");
  server.shutdown();
  server.wait();
}

TEST_F(ServeTest, QueuePressureDegradesExhaustiveRequestsHonestly) {
  ServerOptions options;
  options.endpoint = endpoint("degrade");
  options.workers = 1;
  options.queue_depth = 8;
  options.degrade_queue = 1;  // any queued work triggers degradation
  options.degrade_max_states = 10'000;
  options.cache_entries = 0;
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  constexpr int kClients = 4;
  std::atomic<int> degraded{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      obs::JsonWriter w;
      w.begin_object();
      w.member("op", "schedule");
      w.member("id", "d" + std::to_string(i));
      w.key("options");
      w.begin_object();
      w.member("complete", true);
      w.member("sync_budget", std::uint64_t{8} + i);
      w.end_object();
      w.member("spec", uav_);
      w.end_object();
      const JsonValue response = roundtrip(server.endpoint(), w.take());
      if (response.find("status")->string == "ok") {
        ++answered;
        if (response.find("degraded")->boolean) {
          ++degraded;
          // The downgrade is reported honestly in the echoed report
          // options: the guided engine replaced the exhaustive DFS.
          const JsonValue* report = response.find("report");
          ASSERT_NE(report, nullptr);
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_GE(answered.load(), 1);
  // With one worker and four near-simultaneous exhaustive requests, at
  // least one was dequeued with a non-empty queue behind it.
  EXPECT_GE(degraded.load(), 1);
  server.shutdown();
  server.wait();
  EXPECT_GE(server.stats().degrades, 1u);
}

TEST_F(ServeTest, ShutdownDrainsInFlightRequests) {
  ServerOptions options;
  options.endpoint = endpoint("drain");
  options.workers = 1;
  options.queue_depth = 8;
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  // Launch requests, then begin the drain while they are in flight. Every
  // client must still receive a structured response — completed or
  // shutting-down, never a dropped connection mid-frame.
  constexpr int kClients = 4;
  std::atomic<int> responded{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto fd = connect_endpoint(server.endpoint());
      if (!fd.ok()) {
        return;  // accept raced the drain: connection refused is fine
      }
      obs::JsonWriter w;
      w.begin_object();
      w.member("op", "schedule");
      w.member("id", "drain" + std::to_string(i));
      w.key("options");
      w.begin_object();
      w.member("complete", true);
      w.member("sync_budget", std::uint64_t{8} + i);
      w.end_object();
      w.member("spec", uav_);
      w.end_object();
      if (!write_frame(fd.value(), w.take()).ok()) {
        ::close(fd.value());
        return;
      }
      auto frame = read_frame(fd.value());
      ::close(fd.value());
      if (frame.ok() && frame.value().has_value()) {
        auto parsed = parse_json(*frame.value());
        ASSERT_TRUE(parsed.ok());
        const std::string status = parsed.value().find("status")->string;
        EXPECT_TRUE(status == "ok" || status == "shutting-down" ||
                    status == "overloaded")
            << status;
        ++responded;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.shutdown();
  for (std::thread& t : clients) {
    t.join();
  }
  server.wait();
  // At least the request a worker had picked up must have been answered.
  EXPECT_GE(responded.load(), 1);
}

// ------------------------------------------------- guard deadline plumbing

TEST(DeadlineGuard, AbsoluteDeadlineTerminatesEveryEngine) {
  // A deadline already in the past must trip kTimeLimit at the first
  // masked guard check in all engines — this is what makes serve queue
  // time count against the search budget.
  spec::Specification spec = workload::uav_autopilot_specification();
  spec.set_sync_budget(1);
  for (const sched::SearchEngine engine :
       {sched::SearchEngine::kDfs, sched::SearchEngine::kBestFirst,
        sched::SearchEngine::kBeam}) {
    sched::SchedulerOptions scheduler;
    scheduler.pruning = sched::PruningMode::kNone;
    scheduler.search_engine = engine;
    scheduler.deadline = Clock::now() - std::chrono::milliseconds(1);
    core::Project project(spec, {}, scheduler);
    const Status status = project.schedule();
    ASSERT_TRUE(project.scheduled());
    EXPECT_EQ(project.outcome().status, sched::SearchStatus::kTimeLimit)
        << sched::to_string(engine);
    EXPECT_FALSE(status.ok());
  }
}

}  // namespace
}  // namespace ezrt::serve
