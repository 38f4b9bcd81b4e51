#include "tpn/net.hpp"

#include <algorithm>
#include <unordered_set>

#include "base/assert.hpp"

namespace ezrt::tpn {

const char* to_string(TransitionRole role) {
  switch (role) {
    case TransitionRole::kGeneric:
      return "generic";
    case TransitionRole::kFork:
      return "fork";
    case TransitionRole::kJoin:
      return "join";
    case TransitionRole::kPhase:
      return "phase";
    case TransitionRole::kPeriod:
      return "period";
    case TransitionRole::kRelease:
      return "release";
    case TransitionRole::kGrant:
      return "grant";
    case TransitionRole::kCompute:
      return "compute";
    case TransitionRole::kFinish:
      return "finish";
    case TransitionRole::kDeadlineHit:
      return "deadline-hit";
    case TransitionRole::kDeadlineMiss:
      return "deadline-miss";
    case TransitionRole::kExclusionAcquire:
      return "exclusion-acquire";
    case TransitionRole::kCommunication:
      return "communication";
  }
  return "unknown";
}

const char* to_string(PlaceRole role) {
  switch (role) {
    case PlaceRole::kGeneric:
      return "generic";
    case PlaceRole::kStart:
      return "start";
    case PlaceRole::kEnd:
      return "end";
    case PlaceRole::kWaitArrival:
      return "wait-arrival";
    case PlaceRole::kWaitRelease:
      return "wait-release";
    case PlaceRole::kWaitGrant:
      return "wait-grant";
    case PlaceRole::kWaitCompute:
      return "wait-compute";
    case PlaceRole::kWaitFinish:
      return "wait-finish";
    case PlaceRole::kFinished:
      return "finished";
    case PlaceRole::kWaitDeadline:
      return "wait-deadline";
    case PlaceRole::kMissPending:
      return "miss-pending";
    case PlaceRole::kMissed:
      return "missed";
    case PlaceRole::kProcessor:
      return "processor";
    case PlaceRole::kBus:
      return "bus";
    case PlaceRole::kExclusionLock:
      return "exclusion-lock";
    case PlaceRole::kLocked:
      return "locked";
    case PlaceRole::kPrecedence:
      return "precedence";
    case PlaceRole::kSyncPool:
      return "sync-pool";
  }
  return "unknown";
}

PlaceId TimePetriNet::add_place(Place place) {
  EZRT_CHECK(!validated_, "cannot mutate a validated net");
  return places_.push_back(std::move(place));
}

PlaceId TimePetriNet::add_place(std::string name,
                                std::uint32_t initial_tokens, PlaceRole role,
                                TaskId task) {
  return add_place(Place{std::move(name), initial_tokens, role, task});
}

TransitionId TimePetriNet::add_transition(Transition transition) {
  EZRT_CHECK(!validated_, "cannot mutate a validated net");
  const TransitionId id = transitions_.push_back(std::move(transition));
  inputs_.push_back({});
  outputs_.push_back({});
  return id;
}

TransitionId TimePetriNet::add_transition(std::string name,
                                          TimeInterval interval,
                                          Priority priority,
                                          TransitionRole role, TaskId task) {
  return add_transition(Transition{std::move(name), interval, priority, role,
                                   task, std::nullopt});
}

void TimePetriNet::add_input(TransitionId t, PlaceId p, std::uint32_t weight) {
  EZRT_CHECK(!validated_, "cannot mutate a validated net");
  EZRT_CHECK(weight > 0, "arc weight must be positive");
  EZRT_CHECK(t.value() < transitions_.size(), "unknown transition");
  EZRT_CHECK(p.value() < places_.size(), "unknown place");
  inputs_[t].push_back(Arc{p, weight});
}

void TimePetriNet::add_output(TransitionId t, PlaceId p,
                              std::uint32_t weight) {
  EZRT_CHECK(!validated_, "cannot mutate a validated net");
  EZRT_CHECK(weight > 0, "arc weight must be positive");
  EZRT_CHECK(t.value() < transitions_.size(), "unknown transition");
  EZRT_CHECK(p.value() < places_.size(), "unknown place");
  outputs_[t].push_back(Arc{p, weight});
}

std::vector<std::uint32_t> TimePetriNet::initial_marking() const {
  std::vector<std::uint32_t> m;
  m.reserve(places_.size());
  for (const Place& p : places_) {
    m.push_back(p.initial_tokens);
  }
  return m;
}

std::optional<PlaceId> TimePetriNet::find_place(std::string_view name) const {
  for (PlaceId id : places_.ids()) {
    if (places_[id].name == name) {
      return id;
    }
  }
  return std::nullopt;
}

std::optional<TransitionId> TimePetriNet::find_transition(
    std::string_view name) const {
  for (TransitionId id : transitions_.ids()) {
    if (transitions_[id].name == name) {
      return id;
    }
  }
  return std::nullopt;
}

Status TimePetriNet::validate() {
  std::unordered_set<std::string> names;
  for (const Place& p : places_) {
    if (p.name.empty()) {
      return make_error(ErrorCode::kValidationError, "place with empty name");
    }
    if (!names.insert("p:" + p.name).second) {
      return make_error(ErrorCode::kValidationError,
                        "duplicate place name '" + p.name + "'");
    }
  }
  for (const Transition& t : transitions_) {
    if (t.name.empty()) {
      return make_error(ErrorCode::kValidationError,
                        "transition with empty name");
    }
    if (!names.insert("t:" + t.name).second) {
      return make_error(ErrorCode::kValidationError,
                        "duplicate transition name '" + t.name + "'");
    }
  }
  for (TransitionId t : transitions_.ids()) {
    if (inputs_[t].empty()) {
      return make_error(ErrorCode::kValidationError,
                        "transition '" + transitions_[t].name +
                            "' has no input place (source transitions are "
                            "not supported)");
    }
  }

  consumers_.clear();
  consumers_.resize(places_.size());
  for (TransitionId t : transitions_.ids()) {
    for (const Arc& arc : inputs_[t]) {
      consumers_[arc.place].push_back(t);
    }
  }

  // Affected-set index (CSR): the transitions whose enabledness a firing
  // of t can change are exactly the consumers of •t ∪ t•. Dedup'd via a
  // scratch membership vector, sorted so iteration order is the id order
  // the dense reference scan uses.
  affected_offsets_.assign(transitions_.size() + 1, 0);
  affected_flat_.clear();
  std::vector<std::uint8_t> member(transitions_.size(), 0);
  std::vector<TransitionId> scratch;
  for (TransitionId t : transitions_.ids()) {
    scratch.clear();
    const auto collect = [&](const std::vector<Arc>& arcs) {
      for (const Arc& arc : arcs) {
        for (TransitionId u : consumers_[arc.place]) {
          if (!member[u.value()]) {
            member[u.value()] = 1;
            scratch.push_back(u);
          }
        }
      }
    };
    collect(inputs_[t]);
    collect(outputs_[t]);
    for (TransitionId u : scratch) {
      member[u.value()] = 0;
    }
    std::sort(scratch.begin(), scratch.end(),
              [](TransitionId a, TransitionId b) {
                return a.value() < b.value();
              });
    affected_flat_.insert(affected_flat_.end(), scratch.begin(),
                          scratch.end());
    affected_offsets_[t.value() + 1] =
        static_cast<std::uint32_t>(affected_flat_.size());
  }

  conflict_free_.assign(transitions_.size(), 1);
  for (TransitionId t : transitions_.ids()) {
    for (const Arc& arc : inputs_[t]) {
      if (consumers_[arc.place].size() > 1) {
        conflict_free_[t.value()] = 0;
        break;
      }
    }
  }

  end_places_.clear();
  miss_places_.clear();
  for (PlaceId p : places_.ids()) {
    const PlaceRole role = places_[p].role;
    if (role == PlaceRole::kEnd) {
      end_places_.push_back(p);
    } else if (role == PlaceRole::kMissPending || role == PlaceRole::kMissed) {
      miss_places_.push_back(p);
    }
  }

  validated_ = true;
  return Status();
}

}  // namespace ezrt::tpn
