// Unit tests for the TPN core: structure, validation, marking, TLTS state
// and the Definition 3.1 firing semantics.
#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "base/assert.hpp"
#include "builder/tpn_builder.hpp"
#include "tpn/analysis.hpp"
#include "tpn/marking.hpp"
#include "tpn/net.hpp"
#include "tpn/semantics.hpp"
#include "tpn/state.hpp"
#include "workload/generator.hpp"

namespace ezrt::tpn {
namespace {

/// p0(1) -t0[a,b]-> p1 ; a second consumer t1 of p0 when `conflict`.
struct TinyNet {
  TimePetriNet net;
  PlaceId p0, p1, p2;
  TransitionId t0, t1;

  explicit TinyNet(TimeInterval i0 = TimeInterval(0, 0),
                   bool conflict = false,
                   TimeInterval i1 = TimeInterval(0, 0)) {
    p0 = net.add_place("p0", 1);
    p1 = net.add_place("p1", 0);
    p2 = net.add_place("p2", 0);
    t0 = net.add_transition("t0", i0);
    net.add_input(t0, p0);
    net.add_output(t0, p1);
    if (conflict) {
      t1 = net.add_transition("t1", i1);
      net.add_input(t1, p0);
      net.add_output(t1, p2);
    }
    EXPECT_TRUE(net.validate().ok());
  }
};

// -- Structure ----------------------------------------------------------------

TEST(Net, AddNodesAndArcs) {
  TinyNet tiny;
  EXPECT_EQ(tiny.net.place_count(), 3u);
  EXPECT_EQ(tiny.net.transition_count(), 1u);
  EXPECT_EQ(tiny.net.inputs(tiny.t0).size(), 1u);
  EXPECT_EQ(tiny.net.outputs(tiny.t0).size(), 1u);
}

TEST(Net, FindByName) {
  TinyNet tiny;
  EXPECT_EQ(tiny.net.find_place("p1"), tiny.p1);
  EXPECT_EQ(tiny.net.find_transition("t0"), tiny.t0);
  EXPECT_FALSE(tiny.net.find_place("nope").has_value());
}

TEST(Net, ValidateRejectsDuplicateNames) {
  TimePetriNet net;
  net.add_place("p", 1);
  net.add_place("p", 0);
  const TransitionId t = net.add_transition("t", TimeInterval(0, 0));
  net.add_input(t, PlaceId(0));
  EXPECT_FALSE(net.validate().ok());
}

TEST(Net, ValidateRejectsSourceTransitions) {
  TimePetriNet net;
  net.add_place("p", 0);
  net.add_transition("t", TimeInterval(0, 0));  // no inputs
  EXPECT_FALSE(net.validate().ok());
}

TEST(Net, ValidateRejectsEmptyNames) {
  TimePetriNet net;
  net.add_place("", 1);
  EXPECT_FALSE(net.validate().ok());
}

/// The message of the error `net.validate()` returns ("" when it passes).
[[nodiscard]] std::string validate_error(TimePetriNet& net) {
  const Status status = net.validate();
  return status.ok() ? std::string() : status.error().message();
}

TEST(Net, ValidateMessagesNameTheOffendingNode) {
  {
    TimePetriNet net;
    net.add_place("p", 1);
    net.add_place("", 0);
    EXPECT_EQ(validate_error(net), "place with empty name");
  }
  {
    TimePetriNet net;
    const PlaceId p = net.add_place("p", 1);
    const TransitionId t = net.add_transition("", TimeInterval(0, 0));
    net.add_input(t, p);
    EXPECT_EQ(validate_error(net), "transition with empty name");
  }
  {
    TimePetriNet net;
    const PlaceId p = net.add_place("p", 1);
    net.add_input(net.add_transition("t", TimeInterval(0, 0)), p);
    net.add_input(net.add_transition("t", TimeInterval(1, 1)), p);
    EXPECT_EQ(validate_error(net), "duplicate transition name 't'");
  }
  {
    TimePetriNet net;
    const PlaceId p = net.add_place("p", 1);
    net.add_input(net.add_transition("t0", TimeInterval(0, 0)), p);
    net.add_transition("t1", TimeInterval(0, 0));
    EXPECT_EQ(validate_error(net),
              "transition 't1' has no input place (source transitions are "
              "not supported)");
  }
}

TEST(Net, ValidateReportsTheFirstDuplicateInInsertionOrder) {
  TimePetriNet net;
  for (const char* name : {"a", "b", "c", "c", "b", "a"}) {
    net.add_place(name, 0);
  }
  EXPECT_EQ(validate_error(net), "duplicate place name 'c'");
}

TEST(Net, ValidateChecksPlacesThenTransitionsThenSources) {
  // Every defect at once: the place checks run first, then the
  // transition names, then the source-transition check.
  TimePetriNet net;
  net.add_place("p", 1);
  net.add_transition("", TimeInterval(0, 0));
  net.add_transition("u", TimeInterval(0, 0));
  net.add_transition("u", TimeInterval(0, 0));
  net.add_place("p", 0);
  EXPECT_EQ(validate_error(net), "duplicate place name 'p'");

  TimePetriNet no_place_defect;
  no_place_defect.add_place("p", 1);
  no_place_defect.add_transition("u", TimeInterval(0, 0));
  no_place_defect.add_transition("u", TimeInterval(0, 0));
  EXPECT_EQ(validate_error(no_place_defect), "duplicate transition name 'u'");
}

TEST(Net, PlaceAndTransitionMayShareAName) {
  TimePetriNet net;
  const PlaceId p = net.add_place("x", 1);
  const TransitionId t = net.add_transition("x", TimeInterval(0, 0));
  net.add_input(t, p);
  EXPECT_EQ(validate_error(net), "");
  EXPECT_EQ(net.find_place("x"), p);
  EXPECT_EQ(net.find_transition("x"), t);
}

TEST(Net, ArcsReadBackBeforeAndAfterValidate) {
  // Arcs added out of transition order, interleaved across transitions.
  TimePetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 0);
  const PlaceId c = net.add_place("c", 0);
  const TransitionId t0 = net.add_transition("t0", TimeInterval(0, 0));
  const TransitionId t1 = net.add_transition("t1", TimeInterval(0, 0));
  net.add_input(t1, b);
  net.add_input(t0, a);
  net.add_output(t0, b, 2);
  net.add_input(t1, c, 3);
  net.add_output(t1, a);
  net.add_output(t0, c);
  const auto check = [&] {
    ASSERT_EQ(net.inputs(t0).size(), 1u);
    EXPECT_EQ(net.inputs(t0)[0].place, a);
    ASSERT_EQ(net.outputs(t0).size(), 2u);
    EXPECT_EQ(net.outputs(t0)[0].place, b);
    EXPECT_EQ(net.outputs(t0)[0].weight, 2u);
    EXPECT_EQ(net.outputs(t0)[1].place, c);
    ASSERT_EQ(net.inputs(t1).size(), 2u);
    EXPECT_EQ(net.inputs(t1)[0].place, b);
    EXPECT_EQ(net.inputs(t1)[1].place, c);
    EXPECT_EQ(net.inputs(t1)[1].weight, 3u);
    ASSERT_EQ(net.outputs(t1).size(), 1u);
    EXPECT_EQ(net.outputs(t1)[0].place, a);
  };
  check();
  ASSERT_TRUE(net.validate().ok());
  check();
  ASSERT_EQ(net.consumers(b).size(), 1u);
  EXPECT_EQ(net.consumers(b)[0], t1);
  EXPECT_EQ(net.consumers(a)[0], t0);
}

TEST(Net, MutationAfterValidateIsRefused) {
  TinyNet tiny;
  EXPECT_THROW(tiny.net.add_place("late", 0), ContractViolation);
  EXPECT_THROW(tiny.net.add_transition("late", TimeInterval(0, 0)),
               ContractViolation);
}

TEST(Net, ZeroWeightArcRefused) {
  TimePetriNet net;
  const PlaceId p = net.add_place("p", 1);
  const TransitionId t = net.add_transition("t", TimeInterval(0, 0));
  EXPECT_THROW(net.add_input(t, p, 0), ContractViolation);
}

TEST(Net, ConsumerIndexBuilt) {
  TinyNet tiny(TimeInterval(0, 0), /*conflict=*/true);
  EXPECT_EQ(tiny.net.consumers(tiny.p0).size(), 2u);
  EXPECT_EQ(tiny.net.consumers(tiny.p1).size(), 0u);
}

TEST(Net, InitialMarkingVector) {
  TinyNet tiny;
  const auto m0 = tiny.net.initial_marking();
  ASSERT_EQ(m0.size(), 3u);
  EXPECT_EQ(m0[0], 1u);
  EXPECT_EQ(m0[1], 0u);
}

// -- Marking ------------------------------------------------------------------

TEST(Marking, CoversRespectsWeights) {
  Marking m(std::vector<std::uint32_t>{2, 0});
  EXPECT_TRUE(m.covers(PlaceId(0), 2));
  EXPECT_FALSE(m.covers(PlaceId(0), 3));
  EXPECT_TRUE(m.covers(PlaceId(1), 0));
}

TEST(Marking, AddRemove) {
  Marking m(std::vector<std::uint32_t>{1, 0});
  m.remove(PlaceId(0), 1);
  m.add(PlaceId(1), 3);
  EXPECT_EQ(m[PlaceId(0)], 0u);
  EXPECT_EQ(m[PlaceId(1)], 3u);
}

TEST(Marking, EqualityAndHash) {
  Marking a(std::vector<std::uint32_t>{1, 2});
  Marking b(std::vector<std::uint32_t>{1, 2});
  Marking c(std::vector<std::uint32_t>{2, 1});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a, c);
  EXPECT_NE(a.hash(), c.hash());
}

// -- Semantics ----------------------------------------------------------------

TEST(Semantics, EnabledRequiresCoveredPreset) {
  TinyNet tiny;
  Semantics sem(tiny.net);
  State s = State::initial(tiny.net);
  EXPECT_TRUE(sem.is_enabled(s.marking(), tiny.t0));
  const auto enabled = sem.enabled(s.marking());
  ASSERT_EQ(enabled.size(), 1u);
  EXPECT_EQ(enabled[0], tiny.t0);
  // s0 carries the same set as its bitset.
  EXPECT_TRUE(s.enabled(tiny.t0));
  EXPECT_EQ(s.enabled_count(), 1u);
}

TEST(Semantics, DynamicBoundsTrackClock) {
  TinyNet tiny(TimeInterval(3, 8));
  Semantics sem(tiny.net);
  State s = State::initial(tiny.net);
  EXPECT_EQ(sem.dynamic_lower_bound(s, tiny.t0), 3u);
  EXPECT_EQ(sem.dynamic_upper_bound(s, tiny.t0), 8u);
  s.set_clock(tiny.t0, 5);
  EXPECT_EQ(sem.dynamic_lower_bound(s, tiny.t0), 0u);
  EXPECT_EQ(sem.dynamic_upper_bound(s, tiny.t0), 3u);
}

TEST(Semantics, UnboundedLftNeverForces) {
  TinyNet tiny(TimeInterval::at_least(2));
  Semantics sem(tiny.net);
  State s = State::initial(tiny.net);
  EXPECT_EQ(sem.dynamic_upper_bound(s, tiny.t0), kTimeInfinity);
  EXPECT_EQ(sem.max_time_advance(s, sem.enabled(s.marking())),
            kTimeInfinity);
}

TEST(Semantics, FireMovesTokensAndTime) {
  TinyNet tiny(TimeInterval(2, 5));
  Semantics sem(tiny.net);
  State s0 = State::initial(tiny.net);
  State s1 = sem.fire(s0, tiny.t0, 4);
  EXPECT_EQ(s1.marking()[tiny.p0], 0u);
  EXPECT_EQ(s1.marking()[tiny.p1], 1u);
  EXPECT_EQ(s1.elapsed(), 4u);
}

TEST(Semantics, FireOutsideDomainRefused) {
  TinyNet tiny(TimeInterval(2, 5));
  Semantics sem(tiny.net);
  State s0 = State::initial(tiny.net);
  EXPECT_THROW((void)sem.fire(s0, tiny.t0, 1), ContractViolation);
  EXPECT_THROW((void)sem.fire(s0, tiny.t0, 6), ContractViolation);
}

TEST(Semantics, TryFireReportsErrors) {
  TinyNet tiny(TimeInterval(2, 5));
  Semantics sem(tiny.net);
  State s0 = State::initial(tiny.net);
  EXPECT_FALSE(sem.try_fire(s0, tiny.t0, 0).ok());
  auto ok = sem.try_fire(s0, tiny.t0, 2);
  EXPECT_TRUE(ok.ok());
  // After t0 fired, p0 is empty: t0 no longer enabled.
  EXPECT_FALSE(sem.try_fire(ok.value(), tiny.t0, 0).ok());
}

TEST(Semantics, StrongSemanticsCapsDelay) {
  // Two enabled transitions; the tighter LFT caps how late the other may
  // fire: max_time_advance = min DUB.
  TimePetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 1);
  const PlaceId out = net.add_place("out", 0);
  const TransitionId slow = net.add_transition("slow", TimeInterval(0, 100));
  const TransitionId fast = net.add_transition("fast", TimeInterval(0, 3));
  net.add_input(slow, a);
  net.add_output(slow, out);
  net.add_input(fast, b);
  net.add_output(fast, out);
  ASSERT_TRUE(net.validate().ok());

  Semantics sem(net);
  State s0 = State::initial(net);
  EXPECT_EQ(sem.max_time_advance(s0, sem.enabled(s0.marking())), 3u);
  EXPECT_FALSE(sem.try_fire(s0, slow, 4).ok());
  EXPECT_TRUE(sem.try_fire(s0, slow, 3).ok());
}

TEST(Semantics, ClockAdvancesForPersistentlyEnabled) {
  // Definition 3.1(2ii): transitions enabled before and after advance by q.
  TimePetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 1);
  const PlaceId oa = net.add_place("oa", 0);
  const PlaceId ob = net.add_place("ob", 0);
  const TransitionId ta = net.add_transition("ta", TimeInterval(0, 10));
  const TransitionId tb = net.add_transition("tb", TimeInterval(0, 10));
  net.add_input(ta, a);
  net.add_output(ta, oa);
  net.add_input(tb, b);
  net.add_output(tb, ob);
  ASSERT_TRUE(net.validate().ok());

  Semantics sem(net);
  State s0 = State::initial(net);
  State s1 = sem.fire(s0, ta, 7);
  EXPECT_EQ(s1.clock(tb), 7u);  // persisted: advanced by q
  EXPECT_EQ(s1.clock(ta), 0u);  // fired: normalized to 0 (now disabled)
}

TEST(Semantics, NewlyEnabledClockResets) {
  // Definition 3.1(2i): a transition enabled only by the new marking
  // starts its clock at zero.
  TimePetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId mid = net.add_place("mid", 0);
  const PlaceId end = net.add_place("end", 0);
  const TransitionId first = net.add_transition("first", TimeInterval(2, 2));
  const TransitionId second =
      net.add_transition("second", TimeInterval(1, 4));
  net.add_input(first, a);
  net.add_output(first, mid);
  net.add_input(second, mid);
  net.add_output(second, end);
  ASSERT_TRUE(net.validate().ok());

  Semantics sem(net);
  State s1 = sem.fire(State::initial(net), first, 2);
  EXPECT_EQ(s1.clock(second), 0u);
  EXPECT_EQ(sem.dynamic_lower_bound(s1, second), 1u);
}

TEST(Semantics, FiredTransitionClockResetsWhenStillEnabled) {
  // Definition 3.1(2i), tk = t case: a transition that remains enabled
  // after firing itself (multi-token input) restarts its clock — this is
  // what makes the periodic-arrival block fire every p time units.
  TimePetriNet net;
  const PlaceId pool = net.add_place("pool", 3);
  const PlaceId out = net.add_place("out", 0);
  const TransitionId tick = net.add_transition("tick", TimeInterval(5, 5));
  net.add_input(tick, pool);
  net.add_output(tick, out);
  ASSERT_TRUE(net.validate().ok());

  Semantics sem(net);
  State s = State::initial(net);
  for (int k = 1; k <= 3; ++k) {
    s = sem.fire(s, tick, 5);
    EXPECT_EQ(s.elapsed(), static_cast<Time>(5 * k));
  }
  EXPECT_EQ(s.marking()[out], 3u);
  EXPECT_TRUE(sem.enabled(s.marking()).empty());
}

TEST(Semantics, FireableRespectsDlbCap) {
  TimePetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 1);
  const PlaceId o = net.add_place("o", 0);
  const TransitionId late = net.add_transition("late", TimeInterval(9, 9));
  const TransitionId soon = net.add_transition("soon", TimeInterval(0, 2));
  net.add_input(late, a);
  net.add_output(late, o);
  net.add_input(soon, b);
  net.add_output(soon, o);
  ASSERT_TRUE(net.validate().ok());

  Semantics sem(net);
  const auto ft = sem.fireable(State::initial(net));
  // late (DLB 9) cannot fire before soon's DUB (2) forces: not fireable.
  ASSERT_EQ(ft.size(), 1u);
  EXPECT_EQ(ft[0].transition, soon);
  EXPECT_EQ(ft[0].earliest, 0u);
  EXPECT_EQ(ft[0].latest, 2u);
}

TEST(Semantics, PriorityFilterKeepsMinimal) {
  TimePetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 1);
  const PlaceId o = net.add_place("o", 0);
  const TransitionId hi =
      net.add_transition("hi", TimeInterval(0, 5), /*priority=*/1);
  const TransitionId lo =
      net.add_transition("lo", TimeInterval(0, 5), /*priority=*/7);
  net.add_input(hi, a);
  net.add_output(hi, o);
  net.add_input(lo, b);
  net.add_output(lo, o);
  ASSERT_TRUE(net.validate().ok());

  Semantics sem(net);
  const State s0 = State::initial(net);
  EXPECT_EQ(sem.fireable(s0, /*priority_filter=*/false).size(), 2u);
  const auto filtered = sem.fireable(s0, /*priority_filter=*/true);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].transition, hi);
}

TEST(Semantics, ArcWeightsConsumeAndProduceBatches) {
  TimePetriNet net;
  const PlaceId in = net.add_place("in", 4);
  const PlaceId out = net.add_place("out", 0);
  const TransitionId t = net.add_transition("t", TimeInterval(0, 0));
  net.add_input(t, in, 2);
  net.add_output(t, out, 3);
  ASSERT_TRUE(net.validate().ok());

  Semantics sem(net);
  State s = sem.fire(State::initial(net), t, 0);
  EXPECT_EQ(s.marking()[in], 2u);
  EXPECT_EQ(s.marking()[out], 3u);
  s = sem.fire(s, t, 0);
  EXPECT_EQ(s.marking()[in], 0u);
  EXPECT_EQ(s.marking()[out], 6u);
  EXPECT_FALSE(sem.is_enabled(s.marking(), t));
}

// -- State identity ------------------------------------------------------------

// A State's marking is read-only: the enabled set and digest it carries
// are derived from it, and only the firing rule may change it.
static_assert(std::is_same_v<decltype(std::declval<State&>().marking()),
                             const Marking&>);

TEST(State, IdentityIgnoresElapsed) {
  TinyNet tiny(TimeInterval(0, 10));
  State a = State::initial(tiny.net);
  State b = State::initial(tiny.net);
  b.set_elapsed(50);
  EXPECT_TRUE(a.same_timed_state(b));
  EXPECT_EQ(a.digest().a, b.digest().a);
  EXPECT_EQ(a.digest().b, b.digest().b);
}

TEST(State, HashSensitiveToClocks) {
  TinyNet tiny(TimeInterval(0, 10));
  State a = State::initial(tiny.net);
  State b = State::initial(tiny.net);
  b.set_clock(tiny.t0, 3);
  EXPECT_FALSE(a.same_timed_state(b));
  EXPECT_NE(a.digest().a, b.digest().a);
  EXPECT_NE(a.digest().b, b.digest().b);
  // set_clock folds its change into the maintained digest.
  EXPECT_EQ(b.digest().a, b.compute_digest().a);
  EXPECT_EQ(b.digest().b, b.compute_digest().b);
  b.set_clock(tiny.t0, 0);
  EXPECT_EQ(a.digest().a, b.digest().a);
  EXPECT_EQ(a.digest().b, b.digest().b);
}

// -- Analysis -------------------------------------------------------------------

TEST(Analysis, StatsCountNodesArcsTokens) {
  TinyNet tiny(TimeInterval(0, 0), /*conflict=*/true);
  const NetStats s = stats(tiny.net);
  EXPECT_EQ(s.places, 3u);
  EXPECT_EQ(s.transitions, 2u);
  EXPECT_EQ(s.arcs, 4u);
  EXPECT_EQ(s.initial_tokens, 1u);
}

TEST(Analysis, StructuralConflictDetection) {
  TinyNet tiny(TimeInterval(0, 0), /*conflict=*/true);
  EXPECT_FALSE(structurally_conflict_free(tiny.net, tiny.t0));
  TinyNet free_net;
  EXPECT_TRUE(structurally_conflict_free(free_net.net, free_net.t0));
}

TEST(Analysis, DeadlineMissDetectionByRole) {
  TimePetriNet net;
  net.add_place("ok", 1);
  const PlaceId miss =
      net.add_place("pdm_T1", 0, PlaceRole::kMissed, TaskId(4));
  const TransitionId t = net.add_transition("t", TimeInterval(0, 0));
  net.add_input(t, PlaceId(0));
  ASSERT_TRUE(net.validate().ok());

  Marking clean(std::vector<std::uint32_t>{1, 0});
  Marking missed(std::vector<std::uint32_t>{1, 1});
  EXPECT_FALSE(has_deadline_miss(net, clean));
  EXPECT_TRUE(has_deadline_miss(net, missed));
  EXPECT_EQ(missed_task(net, missed), TaskId(4));
  EXPECT_FALSE(missed_task(net, clean).valid());
  (void)miss;
}

TEST(Analysis, FinalMarkingByEndRole) {
  TimePetriNet net;
  net.add_place("pend", 0, PlaceRole::kEnd);
  net.add_place("x", 1);
  const TransitionId t = net.add_transition("t", TimeInterval(0, 0));
  net.add_input(t, PlaceId(1));
  ASSERT_TRUE(net.validate().ok());
  EXPECT_FALSE(is_final_marking(net, Marking({0, 1})));
  EXPECT_TRUE(is_final_marking(net, Marking({1, 1})));
}

// The firing record validate() packs for each transition equals what a
// dense read of the net gives: its interval and priority, no other
// consumer of any input place, and some output place with a miss role.
TEST(FiringRecord, MatchesTheNetOnExampleAndGeneratedModels) {
  static_assert(sizeof(FiringRecord) == 24);
  spec::Specification harmonic("workload-1");  // examples/specs/harmonic_u40
  harmonic.add_processor("cpu0");
  harmonic.add_task("T1", spec::TimingConstraints{0, 0, 28, 135, 200});
  harmonic.add_task("T2", spec::TimingConstraints{0, 0, 9, 175, 200});
  harmonic.add_task("T3", spec::TimingConstraints{0, 0, 12, 162, 200});
  harmonic.add_task("T4", spec::TimingConstraints{0, 0, 16, 91, 100});
  const std::pair<const char*, spec::Specification> models[] = {
      {"mine_pump", workload::mine_pump_specification()},
      {"harmonic_u40", harmonic},
      {"uav_dual_processor", workload::uav_autopilot_specification()},
      {"global 4-core",
       workload::generate(workload::multiproc_scenario(
                              workload::Placement::kGlobal, true, 4, 4))
           .value()},
  };
  for (const auto& [name, spec] : models) {
    SCOPED_TRACE(name);
    const auto built = builder::build_tpn(spec);
    ASSERT_TRUE(built.ok()) << built.error().to_string();
    const TimePetriNet& net = built.value().net;
    std::size_t feeding = 0;
    for (TransitionId t : net.transition_ids()) {
      const Transition& tr = net.transition(t);
      const FiringRecord& r = net.firing_record(t);
      SCOPED_TRACE(tr.name);
      EXPECT_EQ(r.eft, tr.interval.eft());
      EXPECT_EQ(r.lft, tr.interval.lft());
      EXPECT_EQ(r.priority, tr.priority);
      bool free = true;
      for (const Arc& in : net.inputs(t)) {
        for (TransitionId u : net.transition_ids()) {
          for (const Arc& other : net.inputs(u)) {
            free = free && (u == t || other.place != in.place);
          }
        }
      }
      EXPECT_EQ(r.conflict_free, free);
      EXPECT_EQ(r.conflict_free, structurally_conflict_free(net, t));
      bool feeds = false;
      for (const Arc& out : net.outputs(t)) {
        const PlaceRole role = net.place(out.place).role;
        feeds = feeds || role == PlaceRole::kMissPending ||
                role == PlaceRole::kMissed;
      }
      EXPECT_EQ(r.feeds_miss, feeds);
      feeding += feeds ? 1 : 0;
    }
    EXPECT_GT(feeding, 0u);  // every model has deadline-miss transitions
  }
}

TEST(Analysis, DescribeMarkingListsTokens) {
  TinyNet tiny;
  const std::string described =
      describe_marking(tiny.net, Marking({1, 0, 2}));
  EXPECT_NE(described.find("p0"), std::string::npos);
  EXPECT_NE(described.find("p2(2)"), std::string::npos);
  EXPECT_EQ(described.find("p1"), std::string::npos);
  EXPECT_EQ(describe_marking(tiny.net, Marking({0, 0, 0})), "(empty)");
}

}  // namespace
}  // namespace ezrt::tpn
