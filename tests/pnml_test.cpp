// Unit tests for the PNML exporter/importer and the ez-spec DSL dialect.
#include <gtest/gtest.h>

#include "builder/tpn_builder.hpp"
#include "pnml/ezspec_io.hpp"
#include "pnml/pnml_io.hpp"
#include "tpn/analysis.hpp"
#include "workload/generator.hpp"

namespace ezrt::pnml {
namespace {

using spec::SchedulingType;
using spec::Specification;
using spec::TimingConstraints;

[[nodiscard]] tpn::TimePetriNet sample_net() {
  tpn::TimePetriNet net("sample");
  const PlaceId p0 =
      net.add_place("pstart", 1, tpn::PlaceRole::kStart);
  const PlaceId p1 = net.add_place("pend", 0, tpn::PlaceRole::kEnd);
  tpn::Transition t;
  t.name = "tgo";
  t.interval = TimeInterval(2, 7);
  t.priority = 42;
  t.role = tpn::TransitionRole::kCompute;
  t.task = TaskId(3);
  t.code = 3;
  const TransitionId tid = net.add_transition(std::move(t));
  net.add_input(tid, p0, 2);
  net.add_output(tid, p1, 3);
  EXPECT_TRUE(net.validate().ok());
  return net;
}

// -- PNML ------------------------------------------------------------------------

TEST(Pnml, WriteContainsCoreGrammar) {
  const std::string doc = write_pnml(sample_net());
  EXPECT_NE(doc.find("<pnml xmlns=\"http://www.pnml.org"), std::string::npos);
  EXPECT_NE(doc.find("<place id=\"p0\">"), std::string::npos);
  EXPECT_NE(doc.find("<transition id=\"t0\">"), std::string::npos);
  EXPECT_NE(doc.find("<arc "), std::string::npos);
  EXPECT_NE(doc.find("<initialMarking>"), std::string::npos);
}

TEST(Pnml, WriteCarriesToolSpecificTiming) {
  const std::string doc = write_pnml(sample_net());
  EXPECT_NE(doc.find("toolspecific tool=\"ezRealtime\""), std::string::npos);
  EXPECT_NE(doc.find("eft=\"2\""), std::string::npos);
  EXPECT_NE(doc.find("lft=\"7\""), std::string::npos);
  EXPECT_NE(doc.find("<priority>42</priority>"), std::string::npos);
}

TEST(Pnml, RoundTripPreservesStructure) {
  const tpn::TimePetriNet original = sample_net();
  auto restored = read_pnml(write_pnml(original));
  ASSERT_TRUE(restored.ok());
  const tpn::TimePetriNet& net = restored.value();
  EXPECT_EQ(net.name(), "sample");
  EXPECT_EQ(net.place_count(), 2u);
  EXPECT_EQ(net.transition_count(), 1u);

  const auto t = net.find_transition("tgo");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(net.transition(*t).interval, TimeInterval(2, 7));
  EXPECT_EQ(net.transition(*t).priority, 42u);
  EXPECT_EQ(net.transition(*t).role, tpn::TransitionRole::kCompute);
  EXPECT_EQ(net.transition(*t).task, TaskId(3));
  ASSERT_TRUE(net.transition(*t).code.has_value());
  EXPECT_EQ(*net.transition(*t).code, 3u);

  ASSERT_EQ(net.inputs(*t).size(), 1u);
  EXPECT_EQ(net.inputs(*t)[0].weight, 2u);
  ASSERT_EQ(net.outputs(*t).size(), 1u);
  EXPECT_EQ(net.outputs(*t)[0].weight, 3u);

  const auto start = net.find_place("pstart");
  ASSERT_TRUE(start.has_value());
  EXPECT_EQ(net.place(*start).initial_tokens, 1u);
  EXPECT_EQ(net.place(*start).role, tpn::PlaceRole::kStart);
}

TEST(Pnml, UnboundedIntervalRoundTrips) {
  tpn::TimePetriNet net("inf");
  const PlaceId p = net.add_place("p", 1);
  const TransitionId t =
      net.add_transition("t", TimeInterval::at_least(5));
  net.add_input(t, p);
  ASSERT_TRUE(net.validate().ok());
  auto restored = read_pnml(write_pnml(net));
  ASSERT_TRUE(restored.ok());
  const auto tid = restored.value().find_transition("t");
  ASSERT_TRUE(tid.has_value());
  EXPECT_FALSE(restored.value().transition(*tid).interval.bounded());
  EXPECT_EQ(restored.value().transition(*tid).interval.eft(), 5u);
}

TEST(Pnml, MinePumpModelRoundTrips) {
  auto model = builder::build_tpn(workload::mine_pump_specification());
  ASSERT_TRUE(model.ok());
  auto restored = read_pnml(write_pnml(model.value().net));
  ASSERT_TRUE(restored.ok());
  const tpn::NetStats a = tpn::stats(model.value().net);
  const tpn::NetStats b = tpn::stats(restored.value());
  EXPECT_EQ(a.places, b.places);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.arcs, b.arcs);
  EXPECT_EQ(a.initial_tokens, b.initial_tokens);
}

TEST(Pnml, RejectsNonPnmlRoot) {
  EXPECT_FALSE(read_pnml("<notpnml/>").ok());
}

TEST(Pnml, RejectsMissingNet) {
  EXPECT_FALSE(read_pnml("<pnml/>").ok());
}

TEST(Pnml, RejectsDanglingArc) {
  const std::string doc =
      "<pnml><net id=\"n\"><page id=\"pg\">"
      "<place id=\"p0\"/>"
      "<arc id=\"a0\" source=\"p0\" target=\"t9\"/>"
      "</page></net></pnml>";
  EXPECT_FALSE(read_pnml(doc).ok());
}

TEST(Pnml, RejectsInvertedInterval) {
  const std::string doc =
      "<pnml><net id=\"n\"><page id=\"pg\">"
      "<place id=\"p0\"><initialMarking><text>1</text></initialMarking>"
      "</place>"
      "<transition id=\"t0\"><toolspecific tool=\"ezRealtime\" "
      "version=\"1.0\"><interval eft=\"9\" lft=\"2\"/></toolspecific>"
      "</transition>"
      "<arc id=\"a0\" source=\"p0\" target=\"t0\"/>"
      "</page></net></pnml>";
  EXPECT_FALSE(read_pnml(doc).ok());
}

/// The mine-pump net's PNML with `extra` appended to its page.
[[nodiscard]] std::string mine_pump_pnml_with(const std::string& extra) {
  std::string doc = write_pnml(
      builder::build_tpn(workload::mine_pump_specification()).value().net);
  const std::size_t page_end = doc.find("</page>");
  EXPECT_NE(page_end, std::string::npos);
  return doc.insert(page_end, extra);
}

TEST(Pnml, RejectsDuplicatePlaceId) {
  // The later <place> used to replace the first under its id: every arc
  // naming p0 went to the new place and the original was left unconnected.
  auto net = read_pnml(mine_pump_pnml_with("<place id=\"p0\"/>"));
  ASSERT_FALSE(net.ok());
  EXPECT_EQ(net.error().message(), "duplicate place id 'p0'");
}

TEST(Pnml, RejectsDuplicateTransitionId) {
  auto net = read_pnml(mine_pump_pnml_with("<transition id=\"t3\"/>"));
  ASSERT_FALSE(net.ok());
  EXPECT_EQ(net.error().message(), "duplicate transition id 't3'");
}

TEST(Pnml, InitialMarkingMustFitThirtyTwoBits) {
  const auto doc = [](const std::string& tokens) {
    return "<pnml><net id=\"n\"><page id=\"pg\">"
           "<place id=\"p0\"><initialMarking><text>" +
           tokens +
           "</text></initialMarking></place>"
           "<transition id=\"t0\"/>"
           "<arc id=\"a0\" source=\"p0\" target=\"t0\"/>"
           "</page></net></pnml>";
  };
  auto net = read_pnml(doc("4294967295"));
  ASSERT_TRUE(net.ok()) << net.error().to_string();
  EXPECT_EQ(net.value().place(PlaceId(0)).initial_tokens, 4294967295u);
  auto wide = read_pnml(doc("4294967296"));
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.error().message(),
            "not a non-negative 32-bit integer: '4294967296'");
}

TEST(Pnml, EveryThirtyTwoBitLabelIsRangeChecked) {
  // Task, code, priority and arc weight are 32-bit fields as well.
  const char* const tool = "<toolspecific tool=\"ezRealtime\" version=\"1.0\">";
  const std::string labels[] = {
      std::string("<place id=\"p1\">") + tool +
          "<task>4294967296</task></toolspecific></place>",
      std::string("<transition id=\"t1\">") + tool +
          "<task>4294967296</task></toolspecific></transition>",
      std::string("<transition id=\"t1\">") + tool +
          "<code>4294967296</code></toolspecific></transition>",
      std::string("<transition id=\"t1\">") + tool +
          "<priority>4294967296</priority></toolspecific></transition>",
      "<arc id=\"a1\" source=\"p0\" target=\"t0\"><inscription><text>"
      "4294967296</text></inscription></arc>",
  };
  for (const std::string& label : labels) {
    const std::string doc =
        "<pnml><net id=\"n\"><page id=\"pg\"><place id=\"p0\"/>"
        "<transition id=\"t0\"/>" +
        label + "</page></net></pnml>";
    auto net = read_pnml(doc);
    ASSERT_FALSE(net.ok()) << label;
    EXPECT_EQ(net.error().message(),
              "not a non-negative 32-bit integer: '4294967296'")
        << label;
  }
}

TEST(Pnml, ForeignToolSpecificIgnored) {
  const std::string doc =
      "<pnml><net id=\"n\"><page id=\"pg\">"
      "<place id=\"p0\"><initialMarking><text>1</text></initialMarking>"
      "<toolspecific tool=\"OtherTool\" version=\"9\"><role>zzz</role>"
      "</toolspecific></place>"
      "<transition id=\"t0\"/>"
      "<arc id=\"a0\" source=\"p0\" target=\"t0\"/>"
      "</page></net></pnml>";
  auto net = read_pnml(doc);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net.value().place(PlaceId(0)).role, tpn::PlaceRole::kGeneric);
}

// -- ez-spec -----------------------------------------------------------------------

[[nodiscard]] Specification rich_spec() {
  Specification s("rich");
  s.set_dispatcher_overhead(true);
  s.add_processor("cpu0");
  const TaskId t1 =
      s.add_task("T1", TimingConstraints{0, 0, 1, 9, 9});
  const TaskId t2 = s.add_task("T2", TimingConstraints{2, 1, 3, 8, 9},
                               SchedulingType::kPreemptive);
  const TaskId t3 = s.add_task("T3", TimingConstraints{0, 0, 2, 9, 9});
  s.add_precedence(t1, t2);
  s.add_exclusion(t2, t3);
  s.set_task_code(t1, "if (x < 2) { pump_on(); }");
  s.task(t1).energy = 10;
  spec::Message m;
  m.name = "M1";
  m.bus = "can0";
  m.grant_bus = 1;
  m.communication = 2;
  const MessageId mid = s.add_message(std::move(m));
  s.connect_message(t1, mid, t3);
  EXPECT_TRUE(s.validate().ok());
  return s;
}

TEST(EzSpec, WriteMatchesFig7Dialect) {
  auto doc = write_ezspec(rich_spec());
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc.value().find("<rt:ez-spec"), std::string::npos);
  EXPECT_NE(doc.value().find("xmlns:rt=\"http://pnmp.sf.net/EZRealtime\""),
            std::string::npos);
  EXPECT_NE(doc.value().find("<schedulingMode>NP</schedulingMode>"),
            std::string::npos);
  EXPECT_NE(doc.value().find("<schedulingMode>P</schedulingMode>"),
            std::string::npos);
  EXPECT_NE(doc.value().find("<computing>"), std::string::npos);
  EXPECT_NE(doc.value().find("precedesTasks=\"#"), std::string::npos);
  EXPECT_NE(doc.value().find("<power>10</power>"), std::string::npos);
}

TEST(EzSpec, RoundTripPreservesEverything) {
  const Specification original = rich_spec();
  auto doc = write_ezspec(original);
  ASSERT_TRUE(doc.ok());
  auto restored = read_ezspec(doc.value());
  ASSERT_TRUE(restored.ok()) << doc.value();
  const Specification& s = restored.value();

  EXPECT_EQ(s.name(), "rich");
  EXPECT_TRUE(s.dispatcher_overhead());
  ASSERT_EQ(s.task_count(), 3u);
  ASSERT_EQ(s.processor_count(), 1u);
  ASSERT_EQ(s.message_count(), 1u);

  const TaskId t1 = *s.find_task("T1");
  const TaskId t2 = *s.find_task("T2");
  const TaskId t3 = *s.find_task("T3");
  EXPECT_EQ(s.task(t2).timing.phase, 2u);
  EXPECT_EQ(s.task(t2).timing.release, 1u);
  EXPECT_EQ(s.task(t2).timing.computation, 3u);
  EXPECT_EQ(s.task(t2).timing.deadline, 8u);
  EXPECT_EQ(s.task(t2).timing.period, 9u);
  EXPECT_EQ(s.task(t2).scheduling, SchedulingType::kPreemptive);
  EXPECT_EQ(s.task(t1).energy, 10u);

  ASSERT_EQ(s.task(t1).precedes.size(), 1u);
  EXPECT_EQ(s.task(t1).precedes[0], t2);
  ASSERT_EQ(s.task(t2).excludes.size(), 1u);
  EXPECT_EQ(s.task(t2).excludes[0], t3);

  ASSERT_TRUE(s.task(t1).code.has_value());
  EXPECT_NE(s.task(t1).code->content.find("pump_on()"), std::string::npos);

  const spec::Message& msg = s.message(MessageId(0));
  EXPECT_EQ(msg.bus, "can0");
  EXPECT_EQ(msg.grant_bus, 1u);
  EXPECT_EQ(msg.communication, 2u);
  EXPECT_EQ(msg.sender, t1);
  EXPECT_EQ(msg.receiver, t3);
}

TEST(EzSpec, ParsesPaperStyleDocument) {
  // Close to the paper's Fig 7 snippet (with the metamodel's required
  // fields filled in).
  const std::string doc = R"(<?xml version="1.0" encoding="UTF-8"?>
<rt:ez-spec xmlns:rt="http://pnmp.sf.net/EZRealtime" name="fig7">
  <Processor identifier="p124365"><name>8051</name></Processor>
  <Task precedesTasks="#ez1151891690363" identifier="ez1151891">
    <processor>p124365</processor>
    <name>T1</name>
    <period>9</period>
    <power>10</power>
    <schedulingMode>NP</schedulingMode>
    <computing>1</computing>
    <deadline>9</deadline>
  </Task>
  <Task identifier="ez1151891690363">
    <processor>p124365</processor>
    <name>T2</name>
    <period>9</period>
    <schedulingMode>P</schedulingMode>
    <computing>2</computing>
    <deadline>9</deadline>
  </Task>
</rt:ez-spec>)";
  auto s = read_ezspec(doc);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().name(), "fig7");
  ASSERT_EQ(s.value().task_count(), 2u);
  const TaskId t1 = *s.value().find_task("T1");
  EXPECT_EQ(s.value().task(t1).timing.period, 9u);
  EXPECT_EQ(s.value().task(t1).energy, 10u);
  ASSERT_EQ(s.value().task(t1).precedes.size(), 1u);
  EXPECT_EQ(s.value().task(s.value().task(t1).precedes[0]).name, "T2");
}

TEST(EzSpec, RejectsUnknownProcessorReference) {
  const std::string doc =
      "<rt:ez-spec xmlns:rt=\"http://pnmp.sf.net/EZRealtime\" name=\"x\">"
      "<Processor identifier=\"p1\"><name>cpu</name></Processor>"
      "<Task identifier=\"t\"><processor>nope</processor><name>T</name>"
      "<period>5</period><computing>1</computing><deadline>5</deadline>"
      "</Task></rt:ez-spec>";
  EXPECT_FALSE(read_ezspec(doc).ok());
}

TEST(EzSpec, RejectsUnknownTaskReference) {
  const std::string doc =
      "<rt:ez-spec xmlns:rt=\"http://pnmp.sf.net/EZRealtime\" name=\"x\">"
      "<Processor identifier=\"p1\"><name>cpu</name></Processor>"
      "<Task identifier=\"t\" precedesTasks=\"#ghost\"><name>T</name>"
      "<period>5</period><computing>1</computing><deadline>5</deadline>"
      "</Task></rt:ez-spec>";
  EXPECT_FALSE(read_ezspec(doc).ok());
}

TEST(EzSpec, RejectsBadSchedulingMode) {
  const std::string doc =
      "<rt:ez-spec xmlns:rt=\"http://pnmp.sf.net/EZRealtime\" name=\"x\">"
      "<Processor identifier=\"p1\"><name>cpu</name></Processor>"
      "<Task identifier=\"t\"><name>T</name><period>5</period>"
      "<schedulingMode>maybe</schedulingMode>"
      "<computing>1</computing><deadline>5</deadline></Task></rt:ez-spec>";
  EXPECT_FALSE(read_ezspec(doc).ok());
}

TEST(EzSpec, RejectsMissingRequiredField) {
  const std::string doc =
      "<rt:ez-spec xmlns:rt=\"http://pnmp.sf.net/EZRealtime\" name=\"x\">"
      "<Processor identifier=\"p1\"><name>cpu</name></Processor>"
      "<Task identifier=\"t\"><name>T</name>"
      "<computing>1</computing><deadline>5</deadline></Task></rt:ez-spec>";
  EXPECT_FALSE(read_ezspec(doc).ok());  // no <period>
}

TEST(EzSpec, RejectsTruncatedDocument) {
  auto doc = write_ezspec(workload::mine_pump_specification());
  ASSERT_TRUE(doc.ok());
  // Cut the document mid-element: a clean parse error, never a crash.
  const std::string truncated = doc.value().substr(0, doc.value().size() / 2);
  auto s = read_ezspec(truncated);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kParseError);
}

TEST(EzSpec, RejectsDuplicateTaskNames) {
  const std::string doc =
      "<rt:ez-spec xmlns:rt=\"http://pnmp.sf.net/EZRealtime\" name=\"x\">"
      "<Processor identifier=\"p1\"><name>cpu</name></Processor>"
      "<Task identifier=\"t1\"><name>T</name><period>5</period>"
      "<computing>1</computing><deadline>5</deadline></Task>"
      "<Task identifier=\"t2\"><name>T</name><period>5</period>"
      "<computing>1</computing><deadline>5</deadline></Task></rt:ez-spec>";
  auto s = read_ezspec(doc);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message().find("duplicate task name"),
            std::string::npos);
}

TEST(EzSpec, RejectsNegativeWcet) {
  const std::string doc =
      "<rt:ez-spec xmlns:rt=\"http://pnmp.sf.net/EZRealtime\" name=\"x\">"
      "<Processor identifier=\"p1\"><name>cpu</name></Processor>"
      "<Task identifier=\"t\"><name>T</name><period>5</period>"
      "<computing>-1</computing><deadline>5</deadline></Task></rt:ez-spec>";
  EXPECT_FALSE(read_ezspec(doc).ok());
}

TEST(EzSpec, RejectsDeadlineBeyondPeriod) {
  const std::string doc =
      "<rt:ez-spec xmlns:rt=\"http://pnmp.sf.net/EZRealtime\" name=\"x\">"
      "<Processor identifier=\"p1\"><name>cpu</name></Processor>"
      "<Task identifier=\"t\"><name>T</name><period>5</period>"
      "<computing>1</computing><deadline>9</deadline></Task></rt:ez-spec>";
  auto s = read_ezspec(doc);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message().find("c <= d <= p"), std::string::npos);
}

[[nodiscard]] std::string read_error(const std::string& doc) {
  auto s = read_ezspec(doc);
  return s.ok() ? std::string() : s.error().message();
}

constexpr const char* kHead =
    "<rt:ez-spec xmlns:rt=\"http://pnmp.sf.net/EZRealtime\" name=\"x\">";

[[nodiscard]] std::string task_xml(const std::string& id,
                                   const std::string& name,
                                   const std::string& extra = "",
                                   const std::string& processor = "") {
  return "<Task identifier=\"" + id + "\"" + extra + ">" +
         (processor.empty() ? "" : "<processor>" + processor + "</processor>") +
         "<name>" + name +
         "</name><period>10</period><computing>1</computing>"
         "<deadline>10</deadline></Task>";
}

TEST(EzSpec, RejectsDuplicateProcessorIdentifier) {
  // Two processors with one identifier: the later one used to win every
  // <processor> reference, silently moving T1 to cpuB.
  const std::string doc =
      std::string(kHead) +
      "<Processor identifier=\"ez1\"><name>cpuA</name></Processor>"
      "<Processor identifier=\"ez1\"><name>cpuB</name></Processor>" +
      task_xml("ez2", "T1", "", "ez1") + "</rt:ez-spec>";
  EXPECT_EQ(read_error(doc), "duplicate processor identifier 'ez1'");
}

TEST(EzSpec, RejectsDuplicateMessageIdentifier) {
  const std::string doc =
      std::string(kHead) +
      "<Processor identifier=\"p\"><name>cpu</name></Processor>" +
      task_xml("a", "A", " precedesMsgs=\"#m\"") + task_xml("b", "B") +
      "<Message identifier=\"m\" precedes=\"#b\"><name>M1</name></Message>"
      "<Message identifier=\"m\" precedes=\"#b\"><name>M2</name></Message>"
      "</rt:ez-spec>";
  EXPECT_EQ(read_error(doc), "duplicate message identifier 'm'");
}

TEST(EzSpec, SyncBudgetMustFitThirtyTwoBits) {
  const auto doc = [](const std::string& budget) {
    return "<rt:ez-spec xmlns:rt=\"http://pnmp.sf.net/EZRealtime\" "
           "name=\"x\" syncBudget=\"" +
           budget + "\"><Processor identifier=\"p\"><name>cpu</name>"
           "</Processor>" + task_xml("a", "A") + "</rt:ez-spec>";
  };
  auto s = read_ezspec(doc("4294967295"));
  ASSERT_TRUE(s.ok()) << s.error().to_string();
  EXPECT_EQ(s.value().sync_budget(), 4294967295u);
  // 2^32 + 1 used to read as a budget of 1.
  EXPECT_EQ(read_error(doc("4294967296")),
            "syncBudget is not a non-negative 32-bit integer");
  EXPECT_EQ(read_error(doc("4294967297")),
            "syncBudget is not a non-negative 32-bit integer");
}

TEST(EzSpec, PowerMustFitThirtyTwoBits) {
  const auto doc = [](const std::string& power) {
    return std::string(kHead) +
           "<Processor identifier=\"p\"><name>cpu</name></Processor>"
           "<Task identifier=\"a\"><name>A</name><period>10</period>"
           "<power>" +
           power +
           "</power><computing>1</computing><deadline>10</deadline></Task>"
           "</rt:ez-spec>";
  };
  auto s = read_ezspec(doc("4294967295"));
  ASSERT_TRUE(s.ok()) << s.error().to_string();
  EXPECT_EQ(s.value().task(TaskId(0)).energy, 4294967295u);
  EXPECT_EQ(read_error(doc("4294967296")),
            "task 'A': power is not a non-negative 32-bit integer");
}

TEST(EzSpec, RejectsRepeatedAttribute) {
  const std::string doc =
      std::string(kHead) +
      "\n<Processor identifier=\"p\" identifier=\"q\"><name>cpu</name>"
      "</Processor></rt:ez-spec>";
  EXPECT_EQ(read_error(doc),
            "XML parse error at line 2, column 27: duplicate attribute "
            "'identifier' in <Processor>");
}

TEST(EzSpec, RejectsSelfReferencingRelations) {
  const std::string proc =
      "<Processor identifier=\"p\"><name>cpu</name></Processor>";
  EXPECT_EQ(read_error(std::string(kHead) + proc +
                       task_xml("a", "A", " precedesTasks=\"#a\"") +
                       "</rt:ez-spec>"),
            "task 'A': bad precedence target");
  EXPECT_EQ(read_error(std::string(kHead) + proc + task_xml("b", "B") +
                       task_xml("a", "A", " excludesTasks=\"#b #a\"") +
                       "</rt:ez-spec>"),
            "task 'A': bad exclusion target");
}

TEST(EzSpec, MintedIdentifiersSkipThoseInUse) {
  // The second task has no identifier; minting must not hand it "ez1",
  // which the first task already uses, or the written document would not
  // read back.
  const std::string doc =
      std::string(kHead) +
      "<Processor identifier=\"ez2\"><name>cpu</name></Processor>" +
      task_xml("ez1", "A") + task_xml("", "B") + "</rt:ez-spec>";
  auto s = read_ezspec(doc);
  ASSERT_TRUE(s.ok()) << s.error().to_string();
  EXPECT_EQ(s.value().task(TaskId(0)).identifier, "ez1");
  EXPECT_EQ(s.value().task(TaskId(1)).identifier, "ez2");
  auto written = write_ezspec(s.value());
  ASSERT_TRUE(written.ok());
  auto reread = read_ezspec(written.value());
  ASSERT_TRUE(reread.ok()) << reread.error().to_string();
  EXPECT_EQ(write_ezspec(reread.value()).value(), written.value());
}

TEST(EzSpec, MinePumpRoundTrip) {
  auto doc = write_ezspec(workload::mine_pump_specification());
  ASSERT_TRUE(doc.ok());
  auto restored = read_ezspec(doc.value());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().task_count(), 10u);
  EXPECT_EQ(restored.value().total_instances().value(), 782u);
}

}  // namespace
}  // namespace ezrt::pnml
