// Unit tests for the analytic schedulability pre-checks, including
// consistency with the exhaustive synthesis.
#include <gtest/gtest.h>

#include "builder/tpn_builder.hpp"
#include "runtime/admission.hpp"
#include "sched/dfs.hpp"
#include "workload/generator.hpp"

namespace ezrt::runtime {
namespace {

using spec::SchedulingType;
using spec::Specification;
using spec::TimingConstraints;

[[nodiscard]] const AdmissionCheck* find_check(
    const AdmissionReport& report, std::string_view prefix) {
  for (const AdmissionCheck& check : report.checks) {
    if (check.name.rfind(prefix, 0) == 0) {
      return &check;
    }
  }
  return nullptr;
}

TEST(Admission, OverUtilizationIsInfeasible) {
  Specification s("over");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 6, 10, 10});
  s.add_task("B", TimingConstraints{0, 0, 6, 10, 10});
  ASSERT_TRUE(s.validate().ok());
  const AdmissionReport report = check_admission(s);
  EXPECT_EQ(report.overall, AdmissionVerdict::kInfeasible);
  const AdmissionCheck* check = find_check(report, "utilization bound");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->verdict, AdmissionVerdict::kInfeasible);
}

TEST(Admission, DensityProvesPreemptiveSets) {
  Specification s("edf");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 2, 8, 10},
             SchedulingType::kPreemptive);
  s.add_task("B", TimingConstraints{0, 0, 3, 9, 10},
             SchedulingType::kPreemptive);
  ASSERT_TRUE(s.validate().ok());
  const AdmissionReport report = check_admission(s);
  EXPECT_EQ(report.overall, AdmissionVerdict::kSchedulable);
  const AdmissionCheck* check = find_check(report, "EDF density");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->verdict, AdmissionVerdict::kSchedulable);
}

TEST(Admission, DensityInconclusiveForNonPreemptive) {
  Specification s("np");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 2, 8, 10});
  ASSERT_TRUE(s.validate().ok());
  const AdmissionReport report = check_admission(s);
  const AdmissionCheck* check = find_check(report, "EDF density");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->verdict, AdmissionVerdict::kInconclusive);
}

TEST(Admission, LiuLaylandAppliesToImplicitDeadlines) {
  Specification s("rm");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 2, 10, 10},
             SchedulingType::kPreemptive);
  s.add_task("B", TimingConstraints{0, 0, 5, 20, 20},
             SchedulingType::kPreemptive);  // U = 0.45 < 2(sqrt2-1)
  ASSERT_TRUE(s.validate().ok());
  const AdmissionReport report = check_admission(s);
  const AdmissionCheck* check = find_check(report, "Liu&Layland");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->verdict, AdmissionVerdict::kSchedulable);
}

TEST(Admission, DemandCriterionCatchesConstrainedOverload) {
  // U < 1 but tight deadlines overload the demand: two tasks needing
  // 2 x 4 units by t = 5.
  Specification s("dbf");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 4, 5, 20},
             SchedulingType::kPreemptive);
  s.add_task("B", TimingConstraints{0, 0, 4, 5, 20},
             SchedulingType::kPreemptive);
  ASSERT_TRUE(s.validate().ok());
  const AdmissionReport report = check_admission(s);
  EXPECT_EQ(report.overall, AdmissionVerdict::kInfeasible);
  const AdmissionCheck* check =
      find_check(report, "processor demand");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->verdict, AdmissionVerdict::kInfeasible);
}

TEST(Admission, BlockingScreenWarnsTightWindows) {
  // PMC-style: slack 10 < CH4H's 25-unit non-preemptive body.
  Specification s = workload::mine_pump_specification();
  ASSERT_TRUE(s.validate().ok());
  const AdmissionReport report = check_admission(s);
  const AdmissionCheck* check = find_check(report, "blocking screen: PMC");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->verdict, AdmissionVerdict::kInconclusive);
}

TEST(Admission, PerProcessorAccounting) {
  // Each CPU at U = 0.6: fine split across two, infeasible on one.
  auto make = [](bool dual) {
    Specification s("split");
    s.add_processor("cpu0");
    if (dual) {
      s.add_processor("cpu1");
    }
    spec::Task a;
    a.name = "A";
    a.timing = TimingConstraints{0, 0, 6, 10, 10};
    a.processor = ProcessorId(0);
    s.add_task(std::move(a));
    spec::Task b;
    b.name = "B";
    b.timing = TimingConstraints{0, 0, 6, 10, 10};
    b.processor = ProcessorId(dual ? 1 : 0);
    s.add_task(std::move(b));
    EXPECT_TRUE(s.validate().ok());
    return s;
  };
  EXPECT_EQ(check_admission(make(false)).overall,
            AdmissionVerdict::kInfeasible);
  EXPECT_NE(check_admission(make(true)).overall,
            AdmissionVerdict::kInfeasible);
}

TEST(Admission, FormatListsEveryCheck) {
  const std::string report =
      format_admission(check_admission(workload::mine_pump_specification()));
  EXPECT_NE(report.find("utilization bound"), std::string::npos);
  EXPECT_NE(report.find("overall:"), std::string::npos);
}

/// Consistency: an analytic kInfeasible verdict must agree with the
/// exhaustive search, and a demand-criterion pass on preemptive sets must
/// agree with the complete synthesis.
class AdmissionConsistency : public testing::TestWithParam<std::uint64_t> {};

TEST_P(AdmissionConsistency, NecessaryVerdictsAgreeWithSynthesis) {
  workload::WorkloadConfig config;
  config.seed = GetParam();
  config.tasks = 4;
  config.utilization = 0.7;
  config.preemptive_fraction = 1.0;
  config.period_pool = {16, 32};
  config.deadline_min_factor = 0.5;
  auto s = workload::generate(config).value();

  const AdmissionReport report = check_admission(s);
  auto model = builder::build_tpn(s).value();
  sched::SchedulerOptions options;
  options.pruning = sched::PruningMode::kNone;
  options.max_states = 500'000;
  const auto out = sched::DfsScheduler(model.net, options).search();
  if (out.status == sched::SearchStatus::kLimitReached) {
    GTEST_SKIP();
  }
  if (report.overall == AdmissionVerdict::kInfeasible) {
    EXPECT_EQ(out.status, sched::SearchStatus::kInfeasible)
        << "analytic infeasibility contradicted by the search";
  }
  // The converse (analytic schedulable but search infeasible) is possible
  // only through search incompleteness (earliest-firing); tolerated.
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdmissionConsistency,
                         testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace ezrt::runtime
