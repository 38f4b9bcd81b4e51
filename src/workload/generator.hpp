// Reproducible synthetic task-set generation for tests and benchmarks.
//
// The paper evaluates on one case study; the extended evaluation here
// (scaling sweeps, pre-runtime vs on-line baselines, property tests) needs
// many task sets with controlled parameters. Utilizations follow the
// standard UUniFast scheme; periods are drawn from a caller-provided pool
// (harmonic by default so hyper-periods stay small); precedence edges are
// generated acyclically between same-period tasks (1:1 instance matching);
// exclusion pairs are arbitrary. A deterministic xorshift PRNG makes every
// workload reproducible from its seed.
#pragma once

#include <cstdint>
#include <vector>

#include "base/result.hpp"
#include "spec/specification.hpp"

namespace ezrt::workload {

/// Deterministic 64-bit PRNG (xorshift*), independent of the standard
/// library so workloads are stable across platforms and releases.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  [[nodiscard]] std::uint64_t next();
  /// Uniform in [0, bound).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound);
  /// Uniform in [0, 1).
  [[nodiscard]] double uniform();

 private:
  std::uint64_t state_;
};

/// How tasks are mapped onto processors when `processors > 1`.
enum class Placement {
  /// Worst-fit decreasing by utilization: cores stay balanced and, with
  /// `messages == 0`, isolated — the classic partitioned scenario.
  kPartitioned,
  /// Uniformly random core per task: arbitrary load spread, precedence
  /// edges may couple cores — the global (bus-coupled) scenario.
  kGlobal,
};

struct WorkloadConfig {
  std::uint32_t tasks = 5;
  /// Target total processor utilization sum(c_i / p_i).
  double utilization = 0.5;
  /// Periods are drawn uniformly from this pool. Harmonic defaults keep
  /// the hyper-period equal to the largest period; an arbitrary
  /// (non-harmonic) pool exercises LCM hyper-periods.
  std::vector<Time> period_pool{100, 200, 400, 800};
  /// Fraction of tasks scheduled preemptively (the rest non-preemptive).
  double preemptive_fraction = 0.0;
  /// Deadline = c + x*(p - c) with x uniform in [deadline_min_factor, 1].
  double deadline_min_factor = 0.6;
  /// Random precedence edges between same-period tasks (kept acyclic).
  /// With kPartitioned placement the edges stay within one core.
  std::uint32_t precedence_edges = 0;
  /// Random symmetric exclusion pairs.
  std::uint32_t exclusion_pairs = 0;
  /// Processors to generate ("cpu0".."cpuN-1"). 1 reproduces the original
  /// mono-processor workloads byte-for-byte at equal seeds.
  std::uint32_t processors = 1;
  Placement placement = Placement::kPartitioned;
  /// Cross-core messages over the shared bus ("bus0"), connecting
  /// same-period tasks on different cores. Requires `processors > 1`.
  std::uint32_t messages = 0;
  /// Shared-synchronization budget K recorded on the specification
  /// (0 = unbounded; see docs/multiprocessor.md).
  std::uint32_t sync_budget = 0;
  std::uint64_t seed = 1;
};

/// Generates a validated specification; fails when the configuration is
/// unsatisfiable (e.g. utilization so low that some WCET would be zero is
/// clamped instead, but an empty period pool is an error).
[[nodiscard]] Result<spec::Specification> generate(
    const WorkloadConfig& config);

/// UUniFast: n utilization shares summing to `total`, each in (0, total).
[[nodiscard]] std::vector<double> uunifast(std::uint32_t n, double total,
                                           Rng& rng);

/// Canonical multi-processor evaluation scenario: `placement` crossed with
/// a harmonic ({100,200,400}) or arbitrary ({100,150,200,300}) period
/// pool. Global placement also couples the cores with cross-core messages
/// and a sync budget, so the bus and K-pool machinery is exercised.
[[nodiscard]] WorkloadConfig multiproc_scenario(Placement placement,
                                                bool harmonic,
                                                std::uint32_t processors,
                                                std::uint64_t seed);

/// The paper's Table 1 mine-pump specification (10 tasks; the §5 case
/// study). Exposed here because tests, benches and examples all use it.
[[nodiscard]] spec::Specification mine_pump_specification();

/// The dual-processor UAV autopilot (examples/uav_dual_processor.cpp,
/// checked in as examples/specs/uav_dual_processor.ezspec): a sensor CPU
/// feeds a control CPU over a CAN bus, with an exclusion pair and a
/// preemptive trajectory task on the control side. The multi-processor
/// end-to-end case (docs/multiprocessor.md). Feasible under the default
/// search (FT_P on: 65 states, 64 firings) and in the complete search mode
/// (PruningMode::kNone); a sync budget of 1 makes it infeasible in both.
[[nodiscard]] spec::Specification uav_autopilot_specification();

/// Request mix for serve load generation (tools/loadgen, the BM_Serve_*
/// BENCH rows): `distinct` generated task sets with consecutive seeds,
/// plus the two checked-in case studies (mine pump, UAV autopilot) when
/// `include_examples` — the examples are cheap to schedule, so repeating
/// the mix exercises the schedule cache rather than saturating workers.
/// Deterministic in the config, like everything else here.
struct ServeMixConfig {
  std::uint32_t distinct = 4;
  std::uint32_t tasks = 4;
  double utilization = 0.4;
  std::uint64_t seed = 1;
  bool include_examples = true;
};

[[nodiscard]] std::vector<spec::Specification> serve_mix(
    const ServeMixConfig& config);

}  // namespace ezrt::workload
