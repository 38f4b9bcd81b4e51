// Shared pieces of the repository benchmark: the pinned corpus, the
// document renderer, the in-memory span log and the result record each
// workload fills. See README.md in this directory for the workloads and
// the metric definitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ezrt::spec {
class Specification;
}  // namespace ezrt::spec

namespace perfbench {

// ---------------------------------------------------------------------------
// Corpus: one task set per line with its pinned verdict ('F' feasible, 'I'
// infeasible). The benchmark renders ez-spec documents from these rows
// itself, so the program under test only ever receives document bytes.

struct TaskRow {
  std::string name;
  std::uint64_t period = 0, phase = 0, release = 0, computing = 0,
                deadline = 0;
  bool preemptive = false;
  std::uint32_t processor = 0;
};

struct MessageRow {
  std::string name;
  std::uint32_t sender = 0, receiver = 0;
  std::string bus;
  std::uint64_t grant = 0, communication = 0;
};

struct Entry {
  std::string name;
  char verdict = '?';
  std::uint32_t sync_budget = 0;
  std::vector<std::string> processors;
  std::vector<TaskRow> tasks;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> precedes, excludes;
  std::vector<MessageRow> messages;
};

/// Reads a corpus file; throws std::runtime_error on any malformed row.
std::vector<Entry> load_corpus(const std::string& path);
void save_corpus(const std::string& path, const std::vector<Entry>& entries,
                 const std::string& header);
/// Pin-time conversion of a validated specification into a corpus row.
Entry entry_from_spec(const ezrt::spec::Specification& spec, char verdict);

/// Renders the ez-spec document of `e` under the document name `name`.
/// Layout 0 is indented one element per line; layouts 1 and 2 are the same
/// model with different whitespace (no indentation; tabs and doubled
/// attribute spacing), so they differ in bytes but not in canonical form.
std::string render(const Entry& e, std::string_view name, int layout = 0);

// ---------------------------------------------------------------------------
// Span log: spans stay in memory and are written out when the run ends.
// Timestamps are steady_clock nanoseconds, so sub-microsecond calls resolve.

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t op = 0;
    std::int64_t t0 = 0, t1 = 0;
  };

  std::uint32_t intern(std::string_view name);
  std::uint32_t begin(std::uint32_t name, std::uint64_t op);
  void end(std::uint32_t index);
  /// Appends a root span measured elsewhere (the serve client threads
  /// stamp their requests and the spans are added after the run).
  void add(std::uint32_t name, std::uint64_t op, std::int64_t t0,
           std::int64_t t1);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  /// Per span name: call count, summed duration, summed self time (the
  /// duration minus the part covered by its child spans).
  struct Totals {
    std::uint64_t calls = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Writes one JSON object per span (name, op, parent, t0_ns, t1_ns).
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a null log makes it free apart from one branch.
class Scoped {
 public:
  Scoped(SpanLog* log, std::uint32_t name, std::uint64_t op)
      : log_(log), index_(log != nullptr ? log->begin(name, op) : 0) {}
  ~Scoped() {
    if (log_ != nullptr) {
      log_->end(index_);
    }
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t index_;
};

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string corpus_dir = "perfbench/corpus";
  std::string out_dir = ".bench_build/perfbench-results";
  /// Self-test: use only the first N corpus rows (0 = all).
  std::size_t slice = 0;
  /// Replaces the corpus file of the workload (the self-test feeds a copy
  /// with one verdict flipped to prove the check fires).
  std::string corpus_override;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few diagnostics
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  /// Records a failed operation with a diagnostic (kept up to a cap).
  void fail(std::string message);
  void add_e2e(std::string name, double value, std::string unit,
               std::uint64_t samples);
  void add_layer(std::string name, double value, std::string unit,
                 std::uint64_t samples);
};

/// Nearest-rank percentile of `values` (sorted in place); +inf entries
/// stand for failed operations. Empty input yields +inf.
double percentile(std::vector<double>& values, double p);
double median(std::vector<double> values);
/// Mean of the middle fifth of `values` (40th to 60th percentile, sorted
/// in place): a median smoothed over its neighbours, so that the jitter of
/// the one input that happens to sit at the median does not decide it.
double middle_mean(std::vector<double>& values);
/// Tracing overhead in percent: the geometric mean over operations of
/// traced over untraced time, where traced[i] and bare[i] ran the same
/// input.
double paired_overhead_pct(const std::vector<double>& traced,
                           const std::vector<double>& bare);

/// Adds ops_per_s (operations per second of busy time) and the latency
/// percentiles of a run made of passes over a fixed input set, at
/// reference host speed (HostSpeed), and the same throughput and median
/// as measured (wall_ops_per_s, wall_latency_p50_ms). Operation i started
/// at `start_ns[i]`. Only the first `ops` operations count: those of the
/// complete passes, so every run measures the same mix of inputs whatever
/// its seed.
void add_pass_metrics(Outcome& out, std::vector<double> latency_ms,
                      const std::vector<std::int64_t>& start_ns,
                      std::size_t ops, double busy_ns);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// The host's speed during a run. A shared host runs the same code 20-45%
/// slower or faster from one minute to the next, for minutes at a time, so
/// raw times of identical work spread wider than any regression bound. A
/// reference kernel compiled into the benchmark, and so the same whatever
/// the program under test, is timed between operations. It does what the
/// program does, in about the program's proportions: a depth-first token
/// game with a hash set of visited markings (search), rendering an ez-spec
/// document and reading its attributes into a map (parsing), hash-map
/// inserts, lookups and a sort (building), and formatted output through a
/// string stream (code generation). The program and the kernel slow down
/// together, so a time multiplied by scale_at() stays steady where the
/// raw time does not.
class HostSpeed {
 public:
  /// Times at reference speed are those of a host on which the kernel's
  /// median call takes exactly this long; it is about the median on the
  /// 4-vCPU VM this benchmark was written on.
  static constexpr double kReferenceMs = 3.0;

  /// Kernel calls whose median time gives the host's speed at an instant.
  static constexpr std::size_t kNearest = 21;

  /// Runs the kernel once and keeps its time.
  void sample();
  /// Runs the kernel if at least `interval_ns` passed since the last call.
  void sample_every(std::int64_t interval_ns);
  /// Factor that converts a time measured at `at_ns` (a now_ns() instant)
  /// to reference speed: kReferenceMs over the median time of the
  /// kNearest kernel calls around that instant. The host's speed changes
  /// within a run too, so each time is scaled by the speed around it.
  [[nodiscard]] double scale_at(std::int64_t at_ns) const;
  /// Median kernel time over the whole run in milliseconds.
  [[nodiscard]] double median_ms() const;
  [[nodiscard]] std::size_t samples() const { return calls_.size(); }

 private:
  struct Call {
    std::int64_t at_ns;  ///< start of the call
    double ns;           ///< its duration
  };
  std::vector<Call> calls_;  ///< in time order
  std::int64_t last_ns_ = 0;
  std::uint64_t sink_ = 0;  ///< keeps the kernel's result observable
};

/// How often the closed-loop workloads run the kernel between operations.
constexpr std::int64_t kSpeedIntervalNs = 100'000'000;

/// The HostSpeed of this process.
HostSpeed& host_speed();

/// Deterministic 64-bit generator for the benchmark's own seeded choices
/// (order, engine rotation, request stream).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dull;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Adds `<prefix>.us`, `<prefix>.share` for every traced layer in
/// `layers` (name -> metric prefix), relative to the total time of the
/// `op` span; also `trace.coverage` (layers' self time over op time).
void add_layer_times(Outcome& out, const SpanLog& log, std::string_view op,
                     const std::vector<std::pair<std::string, std::string>>&
                         layers);

/// Loads the workload's corpus honoring the override and slice options.
std::vector<Entry> load_workload_corpus(const RunConfig& config,
                                        const std::string& file);

// Workload entry points. setup() is timed by the caller (and repeated to
// report a median set-up time); run() measures for config.seconds.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(const RunConfig& config) = 0;
  virtual Outcome run(const RunConfig& config) = 0;
};

std::unique_ptr<Workload> make_pipeline();
std::unique_ptr<Workload> make_exhaustive();
std::unique_ptr<Workload> make_serve();

/// `perfbench pin ...`: regenerates a corpus file with verdicts on which
/// every engine agrees. Returns the process exit code.
int pin_main(int argc, char** argv);

}  // namespace perfbench
