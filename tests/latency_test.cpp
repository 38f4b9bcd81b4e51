// Unit tests for end-to-end chain latency analysis.
#include <gtest/gtest.h>

#include "builder/tpn_builder.hpp"
#include "runtime/latency.hpp"
#include "sched/dfs.hpp"
#include "sched/schedule_table.hpp"

namespace ezrt::runtime {
namespace {

using sched::ScheduleItem;
using sched::ScheduleTable;
using spec::Specification;
using spec::TimingConstraints;

/// sample -> filter -> actuate, all period 20.
[[nodiscard]] Specification chain_spec() {
  Specification s("chain");
  s.add_processor("cpu");
  s.add_task("sample", TimingConstraints{0, 0, 2, 10, 20});
  s.add_task("filter", TimingConstraints{0, 0, 3, 15, 20});
  s.add_task("actuate", TimingConstraints{0, 0, 1, 20, 20});
  s.add_precedence(TaskId(0), TaskId(1));
  s.add_precedence(TaskId(1), TaskId(2));
  EXPECT_TRUE(s.validate().ok());
  return s;
}

TEST(Chains, EnumeratesMaximalPath) {
  const auto chains = enumerate_chains(chain_spec());
  ASSERT_EQ(chains.size(), 1u);
  ASSERT_EQ(chains[0].tasks.size(), 3u);
  EXPECT_EQ(chains[0].tasks.front(), TaskId(0));
  EXPECT_EQ(chains[0].tasks.back(), TaskId(2));
  EXPECT_TRUE(chains[0].rate_matched);
}

TEST(Chains, NoEdgesMeansNoChains) {
  Specification s("flat");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 1, 10, 10});
  s.add_task("B", TimingConstraints{0, 0, 1, 10, 10});
  ASSERT_TRUE(s.validate().ok());
  EXPECT_TRUE(enumerate_chains(s).empty());
}

TEST(Chains, BranchingYieldsOneChainPerSink) {
  Specification s("fan");
  s.add_processor("cpu");
  s.add_task("src", TimingConstraints{0, 0, 1, 10, 10});
  s.add_task("left", TimingConstraints{0, 0, 1, 10, 10});
  s.add_task("right", TimingConstraints{0, 0, 1, 10, 10});
  s.add_precedence(TaskId(0), TaskId(1));
  s.add_precedence(TaskId(0), TaskId(2));
  ASSERT_TRUE(s.validate().ok());
  EXPECT_EQ(enumerate_chains(s).size(), 2u);
}

TEST(Chains, MessageEdgesJoinChains) {
  Specification s("msg");
  s.add_processor("cpu");
  s.add_task("S", TimingConstraints{0, 0, 1, 10, 10});
  s.add_task("R", TimingConstraints{0, 0, 1, 10, 10});
  spec::Message m;
  m.name = "M";
  m.bus = "can0";
  const MessageId id = s.add_message(std::move(m));
  s.connect_message(TaskId(0), id, TaskId(1));
  ASSERT_TRUE(s.validate().ok());
  const auto chains = enumerate_chains(s);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].tasks.size(), 2u);
}

TEST(Chains, RateMismatchFlagged) {
  Specification s("rates");
  s.add_processor("cpu");
  s.add_task("fast", TimingConstraints{0, 0, 1, 10, 10});
  s.add_task("slow", TimingConstraints{0, 0, 1, 20, 20});
  s.add_precedence(TaskId(0), TaskId(1));
  ASSERT_TRUE(s.validate().ok());
  const auto chains = enumerate_chains(s);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_FALSE(chains[0].rate_matched);
}

TEST(Latency, HandBuiltTable) {
  const Specification s = chain_spec();
  ScheduleTable t;
  t.schedule_period = 20;
  t.items.push_back(ScheduleItem{0, false, TaskId(0), 0, 2, {}});
  t.items.push_back(ScheduleItem{2, false, TaskId(1), 0, 3, {}});
  t.items.push_back(ScheduleItem{7, false, TaskId(2), 0, 1, {}});
  const auto latencies = analyze_latency(s, t);
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_EQ(latencies[0].instances, 1u);
  EXPECT_EQ(latencies[0].worst, 8u);  // actuate done at 8, arrival 0
  EXPECT_EQ(latencies[0].best, 8u);
}

TEST(Latency, SynthesizedScheduleRespectsChainOrder) {
  const Specification s = chain_spec();
  auto model = builder::build_tpn(s).value();
  const auto out = sched::DfsScheduler(model.net).search();
  ASSERT_EQ(out.status, sched::SearchStatus::kFeasible);
  auto table = sched::extract_schedule(s, model, out.trace).value();
  const auto latencies = analyze_latency(s, table);
  ASSERT_EQ(latencies.size(), 1u);
  // Lower bound: sum of chain WCETs; upper bound: the sink's deadline.
  EXPECT_GE(latencies[0].worst, 6u);
  EXPECT_LE(latencies[0].worst, 20u);
}

TEST(Latency, MultiInstanceStatistics) {
  Specification s("multi");
  s.add_processor("cpu");
  s.add_task("a", TimingConstraints{0, 0, 1, 10, 10});
  s.add_task("b", TimingConstraints{0, 0, 1, 10, 10});
  s.add_precedence(TaskId(0), TaskId(1));
  ASSERT_TRUE(s.validate().ok());
  ScheduleTable t;
  t.schedule_period = 20;
  t.items.push_back(ScheduleItem{0, false, TaskId(0), 0, 1, {}});
  t.items.push_back(ScheduleItem{1, false, TaskId(1), 0, 1, {}});   // latency 2
  t.items.push_back(ScheduleItem{10, false, TaskId(0), 1, 1, {}});
  t.items.push_back(ScheduleItem{15, false, TaskId(1), 1, 1, {}});  // latency 6
  const auto latencies = analyze_latency(s, t);
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_EQ(latencies[0].instances, 2u);
  EXPECT_EQ(latencies[0].best, 2u);
  EXPECT_EQ(latencies[0].worst, 6u);
  EXPECT_DOUBLE_EQ(latencies[0].mean, 4.0);
}

TEST(Latency, FormatNamesEveryHop) {
  const Specification s = chain_spec();
  ScheduleTable t;
  t.schedule_period = 20;
  t.items.push_back(ScheduleItem{0, false, TaskId(0), 0, 2, {}});
  t.items.push_back(ScheduleItem{2, false, TaskId(1), 0, 3, {}});
  t.items.push_back(ScheduleItem{5, false, TaskId(2), 0, 1, {}});
  const std::string report = format_latency(s, analyze_latency(s, t));
  EXPECT_NE(report.find("sample -> filter -> actuate"), std::string::npos);
  EXPECT_NE(report.find("worst 6"), std::string::npos);
}

TEST(Latency, EmptyReport) {
  Specification s("none");
  s.add_processor("cpu");
  s.add_task("A", TimingConstraints{0, 0, 1, 10, 10});
  ASSERT_TRUE(s.validate().ok());
  EXPECT_NE(format_latency(s, analyze_latency(s, ScheduleTable{}))
                .find("no cause-effect chains"),
            std::string::npos);
}

}  // namespace
}  // namespace ezrt::runtime
