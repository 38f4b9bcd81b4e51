// perfbench: runs one workload of the repository benchmark and prints its
// metrics (README.md). `run.py` in this directory builds it, runs it and
// prints the final result line.
//
//   perfbench run --workload pipeline|exhaustive|serve --seed N
//                 --seconds S --trace 0|1 [--slice K] [--corpus FILE]
//                 [--corpus-dir DIR] [--out-dir DIR]
//   perfbench pin ...        (regenerates a corpus; see pin.cpp)
//
// The last line of stdout is one JSON object holding every metric with
// its unit and sample count, the host fingerprint and the check tally.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 11;
/// Reference-kernel calls before each set-up (HostSpeed).
constexpr int kSpeedSamplesPerSetup = 4;

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "1e300";  // a failed operation sits at +inf in a percentile
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %-8s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ",";
    out += "\"" + m.name + "\":{\"value\":" + json_number(m.value) +
           ",\"unit\":\"" + m.unit + "\",\"samples\":" +
           std::to_string(m.samples) + "}";
  }
  return out + "}";
}

int run_main(int argc, char** argv) {
  RunConfig config;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::stoull(value);
    } else if (key == "--seconds") {
      config.seconds = std::stod(value);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--slice") {
      config.slice = std::stoull(value);
    } else if (key == "--corpus") {
      config.corpus_override = value;
    } else if (key == "--corpus-dir") {
      config.corpus_dir = value;
    } else if (key == "--out-dir") {
      config.out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  std::unique_ptr<Workload> (*factory)() = nullptr;
  if (config.workload == "pipeline") {
    factory = make_pipeline;
  } else if (config.workload == "exhaustive") {
    factory = make_exhaustive;
  } else if (config.workload == "serve") {
    factory = make_serve;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  ::mkdir(config.out_dir.c_str(), 0755);

  // Set-up (inputs, server, warm-up) runs several times; the median is
  // reported so work moved into set-up shows without one slow start
  // deciding it. Like the other gated times, it is converted to reference
  // host speed; wall_setup_s is the median as measured.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s, scaled_setup_s;
  std::vector<std::int64_t> setup_start_ns;
  for (int i = 0; i < kSetupRepeats; ++i) {
    for (int k = 0; k < kSpeedSamplesPerSetup; ++k) {
      host_speed().sample();
    }
    workload.reset();
    workload = factory();
    const std::int64_t t0 = now_ns();
    workload->setup(config);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup_start_ns.push_back(t0);
  }
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    scaled_setup_s.push_back(setup_s[i] *
                             host_speed().scale_at(setup_start_ns[i]));
  }
  Outcome out = workload->run(config);
  workload.reset();
  out.add_e2e("setup_s", median(scaled_setup_s), "s", setup_s.size());
  out.add_e2e("wall_setup_s", median(setup_s), "s", setup_s.size());
  out.add_e2e("host_ref_ms", host_speed().median_ms(), "ms",
              host_speed().samples());
  const bool has_rss = std::any_of(
      out.end_to_end.begin(), out.end_to_end.end(),
      [](const Metric& m) { return m.name == "peak_rss_mb"; });
  if (!has_rss) {
    out.add_e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
  }
  out.add_e2e("failed_share",
              out.attempted ? static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted)
                            : 1.0,
              "ratio", out.attempted);

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  print_metrics("end-to-end:", out.end_to_end);
  print_metrics("per-layer:", out.layers);
  for (const std::string& f : out.failures) {
    std::printf("FAILED %s\n", f.c_str());
  }
#ifdef EZRT_NO_TELEMETRY
  const char* telemetry = "off";
#else
  const char* telemetry = "on";
#endif
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"host\":{\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"telemetry\":\"%s\"},\"end_to_end\":%s,\"per_layer\":%s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed),
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, telemetry, metrics_json(out.end_to_end).c_str(),
      metrics_json(out.layers).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "run") == 0) {
    try {
      return perfbench::run_main(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
  }
  if (argc >= 2 && std::strcmp(argv[1], "pin") == 0) {
    return perfbench::pin_main(argc, argv);
  }
  std::fprintf(stderr, "usage: perfbench run|pin ...\n");
  return 2;
}
