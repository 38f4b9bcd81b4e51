// Span log, percentiles and result helpers.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "bench.hpp"

namespace perfbench {

std::uint32_t SpanLog::intern(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return i;
    }
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t SpanLog::begin(std::uint32_t name, std::uint64_t op) {
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back({name, parent, op, now_ns(), 0});
  const auto index = static_cast<std::uint32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::end(std::uint32_t index) {
  spans_[index].t1 = now_ns();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

void SpanLog::add(std::uint32_t name, std::uint64_t op, std::int64_t t0,
                  std::int64_t t1) {
  spans_.push_back({name, kNoParent, op, t0, t1});
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ns[s.parent] += static_cast<double>(s.t1 - s.t0);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[names_[s.name]];
    const double duration = static_cast<double>(s.t1 - s.t0);
    ++t.calls;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return out;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream file(path);
  for (const Span& s : spans_) {
    file << "{\"name\":\"" << names_[s.name] << "\",\"op\":" << s.op
         << ",\"parent\":"
         << (s.parent == kNoParent ? std::string("null")
                                   : std::to_string(s.parent))
         << ",\"t0_ns\":" << s.t0 << ",\"t1_ns\":" << s.t1 << "}\n";
  }
}

void Outcome::fail(std::string message) {
  ++failed;
  if (failures.size() < 8) {
    failures.push_back(std::move(message));
  }
}

void Outcome::add_e2e(std::string name, double value, std::string unit,
                      std::uint64_t samples) {
  end_to_end.push_back({std::move(name), value, std::move(unit), samples});
}

void Outcome::add_layer(std::string name, double value, std::string unit,
                        std::uint64_t samples) {
  layers.push_back({std::move(name), value, std::move(unit), samples});
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double middle_mean(std::vector<double>& values) {
  if (values.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t first = n * 2 / 5;
  const std::size_t last = std::max(first + 1, (n * 3 + 4) / 5);
  double sum = 0.0;
  for (std::size_t i = first; i < last; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(last - first);
}

double paired_overhead_pct(const std::vector<double>& traced,
                           const std::vector<double>& bare) {
  // Geometric mean of the per-input ratios: whichever run of a pair goes
  // second may be faster, and the log-mean cancels that order effect
  // where a median of ratios would pick one of its two modes.
  double log_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::min(traced.size(), bare.size()); ++i) {
    if (std::isfinite(traced[i]) && std::isfinite(bare[i]) && bare[i] > 0 &&
        traced[i] > 0) {
      log_sum += std::log(traced[i] / bare[i]);
      ++n;
    }
  }
  return n == 0 ? 0.0
                : (std::exp(log_sum / static_cast<double>(n)) - 1.0) * 100.0;
}

void add_pass_metrics(Outcome& out, std::vector<double> latency_ms,
                      const std::vector<std::int64_t>& start_ns,
                      std::size_t ops, double busy_ns) {
  latency_ms.resize(std::min(ops, latency_ms.size()));
  const std::uint64_t n = latency_ms.size();
  std::vector<double> scaled(n);
  double scaled_busy_ms = 0.0;
  std::uint64_t finished = 0;
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = latency_ms[i] * host_speed().scale_at(start_ns[i]);
    if (std::isfinite(scaled[i])) {
      scaled_busy_ms += scaled[i];
      ++finished;
    }
  }
  out.add_e2e("ops_per_s",
              scaled_busy_ms > 0 ? static_cast<double>(finished) /
                                       (scaled_busy_ms / 1e3)
                                 : 0.0,
              "ops/s", n);
  out.add_e2e("latency_p50_ms", percentile(scaled, 0.50), "ms", n);
  out.add_e2e("latency_mid_ms", middle_mean(scaled), "ms", n);
  out.add_e2e("latency_p90_ms", percentile(scaled, 0.90), "ms", n);
  out.add_e2e("latency_p99_ms", percentile(scaled, 0.99), "ms", n);
  out.add_e2e("wall_ops_per_s",
              busy_ns > 0 ? static_cast<double>(n) / (busy_ns / 1e9) : 0.0,
              "ops/s", n);
  out.add_e2e("wall_latency_p50_ms", percentile(latency_ms, 0.50), "ms", n);
}

namespace {

struct MarkingHash {
  std::size_t operator()(const std::vector<std::uint16_t>& m) const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (const std::uint16_t v : m) {
      h = (h ^ v) * 1099511628211ull;
    }
    return h;
  }
};

}  // namespace

void HostSpeed::sample() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t sum = 0;

  // Search: a token game of 64 transitions, each moving two tokens between
  // two of 48 places, explored depth-first from one token per place with a
  // hash set of visited markings until 4,000 are seen.
  constexpr std::size_t kPlaces = 48, kTransitions = 64, kStates = 4000;
  std::array<std::array<std::uint8_t, 4>, kTransitions> arcs{};
  for (auto& a : arcs) {
    for (std::uint8_t& place : a) {
      place = static_cast<std::uint8_t>(next() % kPlaces);
    }
  }
  std::vector<std::uint16_t> m0(kPlaces, 1);
  std::unordered_set<std::vector<std::uint16_t>, MarkingHash> seen{m0};
  std::vector<std::vector<std::uint16_t>> stack{m0};
  while (!stack.empty() && seen.size() < kStates) {
    const std::vector<std::uint16_t> m = std::move(stack.back());
    stack.pop_back();
    for (const auto& [in0, in1, out0, out1] : arcs) {
      if (m[in0] == 0 || m[in1] == 0 || (in0 == in1 && m[in0] < 2)) {
        continue;
      }
      std::vector<std::uint16_t> fired = m;
      --fired[in0];
      --fired[in1];
      ++fired[out0];
      ++fired[out1];
      ++sum;
      if (fired[out0] <= 4 && seen.insert(fired).second) {
        stack.push_back(std::move(fired));
      }
    }
  }
  sum += seen.size();

  // Parsing: render a 40-task ez-spec document and read its attributes
  // into a map, converting the numeric ones.
  Entry entry;
  entry.processors = {"cpu"};
  for (std::uint64_t i = 0; i < 40; ++i) {
    entry.tasks.push_back({"task" + std::to_string(i), 100 + i, 0, 0, 3, 90,
                           i % 5 == 0, 0});
  }
  const std::string doc = render(entry, "kernel");
  for (int pass = 0; pass < 24; ++pass) {
    std::map<std::string, std::string> attributes;
    for (std::size_t at = doc.find("=\""); at != std::string::npos;
         at = doc.find("=\"", at + 2)) {
      const std::size_t key = doc.rfind(' ', at) + 1;
      const std::size_t end = doc.find('"', at + 2);
      std::string value = doc.substr(at + 2, end - at - 2);
      if (!value.empty() && value[0] >= '0' && value[0] <= '9') {
        sum += std::stoull(value);
      }
      attributes[doc.substr(key, at - key) + std::to_string(end)] =
          std::move(value);
    }
    sum += attributes.size();
  }

  // Building: hash-map inserts and lookups, and a sort.
  std::unordered_map<std::uint64_t, std::uint32_t> map;
  for (std::uint32_t i = 0; i < 2048; ++i) {
    map.emplace(next() & 0xffffff, i);
  }
  for (int i = 0; i < 8192; ++i) {
    const auto it = map.find(next() & 0xffffff);
    sum += it == map.end() ? 0 : it->second;
  }
  std::vector<std::uint64_t> keys(4096);
  for (std::uint64_t& k : keys) {
    k = next();
  }
  std::sort(keys.begin(), keys.end());
  sum += keys[keys.size() / 2];

  // Code generation: formatted output through a string stream.
  std::ostringstream code;
  for (int i = 0; i < 1500; ++i) {
    code << "  { " << i << ", " << (i * 7) % 13 << ", \"task" << i << "\" },\n";
  }
  sum += code.str().size();

  sink_ += sum;
  last_ns_ = now_ns();
  calls_.push_back({t0, static_cast<double>(last_ns_ - t0)});
}

double HostSpeed::scale_at(std::int64_t at_ns) const {
  if (calls_.empty()) {
    return 1.0;
  }
  const auto at = std::lower_bound(
      calls_.begin(), calls_.end(), at_ns,
      [](const Call& c, std::int64_t t) { return c.at_ns < t; });
  const std::size_t width = std::min(kNearest, calls_.size());
  const std::size_t centre = static_cast<std::size_t>(at - calls_.begin());
  const std::size_t first =
      std::min(centre - std::min(centre, width / 2), calls_.size() - width);
  std::vector<double> near;
  for (std::size_t i = first; i < first + width; ++i) {
    near.push_back(calls_[i].ns);
  }
  return kReferenceMs / (median(std::move(near)) / 1e6);
}

double HostSpeed::median_ms() const {
  std::vector<double> all;
  for (const Call& c : calls_) {
    all.push_back(c.ns);
  }
  return median(std::move(all)) / 1e6;
}

void HostSpeed::sample_every(std::int64_t interval_ns) {
  if (now_ns() - last_ns_ >= interval_ns) {
    sample();
  }
}

HostSpeed& host_speed() {
  static HostSpeed speed;
  return speed;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void add_layer_times(
    Outcome& out, const SpanLog& log, std::string_view op,
    const std::vector<std::pair<std::string, std::string>>& layers) {
  const auto totals = log.totals();
  const auto op_it = totals.find(std::string(op));
  const double op_ns = op_it == totals.end() ? 0.0 : op_it->second.total_ns;
  double covered = 0.0;
  for (const auto& [span, prefix] : layers) {
    const auto it = totals.find(span);
    if (it == totals.end()) {
      continue;
    }
    const SpanLog::Totals& t = it->second;
    out.add_layer(prefix + ".us", t.self_ns / 1e3 / static_cast<double>(t.calls),
                  "us", t.calls);
    out.add_layer(prefix + ".share", op_ns > 0 ? t.self_ns / op_ns : 0.0,
                  "ratio", t.calls);
    covered += t.self_ns;
  }
  if (op_it != totals.end()) {
    out.add_layer("trace.coverage", op_ns > 0 ? covered / op_ns : 0.0, "ratio",
                  op_it->second.calls);
  }
}

std::vector<Entry> load_workload_corpus(const RunConfig& config,
                                        const std::string& file) {
  std::vector<Entry> entries = load_corpus(
      config.corpus_override.empty() ? config.corpus_dir + "/" + file
                                     : config.corpus_override);
  if (config.slice != 0 && entries.size() > config.slice) {
    entries.resize(config.slice);
  }
  return entries;
}

}  // namespace perfbench
