// Extended time Petri net structure (paper §3.1).
//
// A TPN is the tuple P = (P, T, F, W, m0, I); the extension adds a priority
// function pi : T -> N and a partial code-binding CS : T -/-> ST. This
// module stores the *structure* only; the timed semantics (states, firing
// rule) live in state.hpp / semantics.hpp.
//
// Beyond the paper's tuple, each node carries role metadata (which building
// block produced it, and for which task). Roles never influence the firing
// semantics — they exist so the scheduler can translate a feasible firing
// schedule back into task-level events (schedule-table extraction, §4.4.2)
// and so exporters can annotate PNML.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/ids.hpp"
#include "base/result.hpp"
#include "base/time.hpp"

namespace ezrt::tpn {

/// Which building block (§3.3) a node belongs to. kGeneric marks nodes of
/// hand-built nets that did not come from the specification builder.
enum class TransitionRole : std::uint8_t {
  kGeneric,
  kFork,          ///< tstart of the fork block
  kJoin,          ///< tend of the join block
  kPhase,         ///< tph_i — first arrival after the phase offset
  kPeriod,        ///< ta_i — subsequent periodic arrivals
  kRelease,       ///< tr_i — release window [r, d-c]
  kGrant,         ///< tg_i — processor grant
  kCompute,       ///< tc_i — computation ([c,c] or unit chunk)
  kFinish,        ///< tf_i — instance completion
  kDeadlineHit,   ///< td_i — fires exactly at the deadline
  kDeadlineMiss,  ///< tpc_i — moves the token into the miss place
  kExclusionAcquire,  ///< texcl_i — atomic lock acquisition
  kCommunication,     ///< tm_ij — message transfer on a bus
};

enum class PlaceRole : std::uint8_t {
  kGeneric,
  kStart,         ///< pstart / pst_i
  kEnd,           ///< pend — marked iff a feasible schedule completed
  kWaitArrival,   ///< pwa_i — remaining instance budget
  kWaitRelease,   ///< pwr_i
  kWaitGrant,     ///< pwg_i
  kWaitCompute,   ///< pwc_i
  kWaitFinish,    ///< pwf_i
  kFinished,      ///< pf_i
  kWaitDeadline,  ///< pwd_i
  kMissPending,   ///< pwpc_i — deadline hit, miss imminent (undesirable)
  kMissed,        ///< pdm_i — deadline missed (undesirable)
  kProcessor,     ///< pproc — processor resource
  kBus,           ///< bus resource for messages
  kExclusionLock, ///< pexcl_ij
  kLocked,        ///< pwexcl_i — chunks allowed to run under the lock
  kPrecedence,    ///< pprec_ij
  kSyncPool,      ///< psync_pool — bounded budget of K shared sync resources
};

[[nodiscard]] const char* to_string(TransitionRole role);
[[nodiscard]] const char* to_string(PlaceRole role);

/// Priority value; smaller means higher priority (paper: min is preferred).
using Priority = std::uint32_t;
inline constexpr Priority kDefaultPriority = 1'000;

/// One endpoint of F with its weight W.
struct Arc {
  PlaceId place;
  std::uint32_t weight = 1;
};

struct Place {
  std::string name;
  std::uint32_t initial_tokens = 0;
  PlaceRole role = PlaceRole::kGeneric;
  TaskId task;  ///< owning task, when the role is task-specific
};

struct Transition {
  std::string name;
  TimeInterval interval;  ///< static firing interval I(t) = [EFT, LFT]
  Priority priority = kDefaultPriority;
  TransitionRole role = TransitionRole::kGeneric;
  TaskId task;  ///< owning task, when the role is task-specific
  /// CS(t): index into the specification's source-task codes, when this
  /// transition carries behavioural code (compute transitions do).
  std::optional<std::uint32_t> code;
};

/// What the firing rule and the search read of one transition on every
/// expansion, packed into 24 bytes by `TimePetriNet::validate()`: FT(s),
/// the partial-order reduction, FT_P and the candidate order read this
/// record instead of the 72-byte `Transition` (docs/semantics.md §5).
struct FiringRecord {
  Time eft = 0;
  Time lft = 0;  ///< kTimeInfinity when unbounded
  Priority priority = kDefaultPriority;
  /// No input place of t feeds any other transition.
  bool conflict_free = false;
  /// Some output place of t has a miss role (kMissPending, kMissed).
  bool feeds_miss = false;

  /// Dynamic lower bound max(0, EFT - c).
  [[nodiscard]] Time dlb(Time c) const { return eft > c ? eft - c : 0; }
  /// Dynamic upper bound LFT - c; kTimeInfinity when unbounded.
  [[nodiscard]] Time dub(Time c) const {
    return lft == kTimeInfinity ? kTimeInfinity : lft - c;
  }
};

/// The net structure. Build with add_place / add_transition / add_arc*,
/// then call `validate()` once; the net is immutable-by-convention after
/// that (the scheduler only reads it).
class TimePetriNet {
 public:
  TimePetriNet() = default;
  explicit TimePetriNet(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // -- Construction -------------------------------------------------------

  PlaceId add_place(Place place);
  PlaceId add_place(std::string name, std::uint32_t initial_tokens = 0,
                    PlaceRole role = PlaceRole::kGeneric,
                    TaskId task = TaskId());

  TransitionId add_transition(Transition transition);
  TransitionId add_transition(std::string name, TimeInterval interval,
                              Priority priority = kDefaultPriority,
                              TransitionRole role = TransitionRole::kGeneric,
                              TaskId task = TaskId());

  /// Adds an arc place -> transition with the given weight (input arc).
  void add_input(TransitionId t, PlaceId p, std::uint32_t weight = 1);
  /// Adds an arc transition -> place with the given weight (output arc).
  void add_output(TransitionId t, PlaceId p, std::uint32_t weight = 1);

  // -- Access -------------------------------------------------------------

  [[nodiscard]] std::size_t place_count() const { return places_.size(); }
  [[nodiscard]] std::size_t transition_count() const {
    return transitions_.size();
  }

  [[nodiscard]] const Place& place(PlaceId id) const { return places_[id]; }
  [[nodiscard]] const Transition& transition(TransitionId id) const {
    return transitions_[id];
  }
  [[nodiscard]] Place& place(PlaceId id) { return places_[id]; }
  [[nodiscard]] Transition& transition(TransitionId id) {
    return transitions_[id];
  }

  [[nodiscard]] auto place_ids() const { return places_.ids(); }
  [[nodiscard]] auto transition_ids() const { return transitions_.ids(); }

  /// Preset of t as arcs (place, weight), in the order they were added.
  [[nodiscard]] std::span<const Arc> inputs(TransitionId t) const {
    return inputs_.row(t.value());
  }
  /// Postset of t as arcs (place, weight), in the order they were added.
  [[nodiscard]] std::span<const Arc> outputs(TransitionId t) const {
    return outputs_.row(t.value());
  }

  /// Transitions that consume from p, in transition-id order (computed by
  /// validate(); CSR layout like affected()).
  [[nodiscard]] std::span<const TransitionId> consumers(PlaceId p) const {
    return {consumers_flat_.data() + consumer_offsets_[p.value()],
            consumer_offsets_[p.value() + 1] - consumer_offsets_[p.value()]};
  }

  /// Transitions whose enabledness can change when t fires: the consumers
  /// of t's input and output places, dedup'd and sorted by id (computed by
  /// validate(); CSR layout). Always contains t itself, since t consumes
  /// its own preset. This is the static dependency index the incremental
  /// firing engine rechecks instead of all of T (docs/semantics.md §5).
  [[nodiscard]] std::span<const TransitionId> affected(TransitionId t) const {
    return {affected_flat_.data() + affected_offsets_[t.value()],
            affected_offsets_[t.value() + 1] - affected_offsets_[t.value()]};
  }

  /// t's packed firing record (computed by validate() from t's interval,
  /// priority and arcs; a validated net is not mutated, so it stays equal
  /// to them).
  [[nodiscard]] const FiringRecord& firing_record(TransitionId t) const {
    return firing_[t.value()];
  }

  /// Cached structural conflict-freedom: no input place of t feeds any
  /// other transition (the firing record's bit).
  [[nodiscard]] bool conflict_free(TransitionId t) const {
    return firing_[t.value()].conflict_free;
  }

  /// The End-role places (goal) and the kMissPending/kMissed places
  /// (deadline miss), in id order (computed by validate()). The goal and
  /// miss tests read these on every searched state instead of scanning
  /// the role of every place.
  [[nodiscard]] std::span<const PlaceId> end_places() const {
    return end_places_;
  }
  [[nodiscard]] std::span<const PlaceId> miss_places() const {
    return miss_places_;
  }

  /// Initial marking m0 as a dense token vector.
  [[nodiscard]] std::vector<std::uint32_t> initial_marking() const;

  /// Looks up nodes by name (linear scan; intended for tests/IO, not the
  /// scheduler hot path).
  [[nodiscard]] std::optional<PlaceId> find_place(std::string_view name) const;
  [[nodiscard]] std::optional<TransitionId> find_transition(
      std::string_view name) const;

  /// Structural checks: unique non-empty node names, positive arc weights,
  /// every transition has at least one input (the building blocks never
  /// produce source transitions, and a source transition with a bounded
  /// interval would make every marking diverge). Also populates the
  /// consumer index, the affected-set index, the firing records and the
  /// role index. Must be called once after construction.
  [[nodiscard]] Status validate();

  [[nodiscard]] bool validated() const { return validated_; }

 private:
  /// The arc lists of every transition in one array: row r occupies
  /// arcs_[begin, begin + size). A row grows in place while it ends the
  /// array; a full row that other rows follow moves to the end with twice
  /// the room. So arcs may be added in any order, and a net built one
  /// transition at a time, as the builder and the PNML reader do, has its
  /// rows back to back in transition order.
  class ArcTable {
   public:
    void add_row() { rows_.push_back(Row{}); }
    void append(std::size_t row, Arc arc);
    [[nodiscard]] std::span<const Arc> row(std::size_t r) const {
      return {arcs_.data() + rows_[r].begin, rows_[r].size};
    }

   private:
    struct Row {
      std::uint32_t begin = 0;
      std::uint32_t size = 0;
      std::uint32_t room = 0;
    };
    std::vector<Arc> arcs_;
    std::vector<Row> rows_;
  };

  std::string name_;
  IdVector<PlaceId, Place> places_;
  IdVector<TransitionId, Transition> transitions_;
  ArcTable inputs_;
  ArcTable outputs_;
  // CSR storage for consumers(), like affected() below.
  std::vector<std::uint32_t> consumer_offsets_;
  std::vector<TransitionId> consumers_flat_;
  // CSR storage for affected(): transition t's neighborhood occupies
  // affected_flat_[affected_offsets_[t] .. affected_offsets_[t+1]).
  std::vector<std::uint32_t> affected_offsets_;
  std::vector<TransitionId> affected_flat_;
  std::vector<FiringRecord> firing_;
  std::vector<PlaceId> end_places_;
  std::vector<PlaceId> miss_places_;
  bool validated_ = false;
};

}  // namespace ezrt::tpn
