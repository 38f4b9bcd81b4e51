#include "tpn/net.hpp"

#include <algorithm>
#include <bit>

#include "base/assert.hpp"
#include "base/name_table.hpp"

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
  inputs_.add_row();
  outputs_.add_row();
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
  inputs_.append(t.value(), Arc{p, weight});
}

void TimePetriNet::add_output(TransitionId t, PlaceId p,
                              std::uint32_t weight) {
  EZRT_CHECK(!validated_, "cannot mutate a validated net");
  EZRT_CHECK(weight > 0, "arc weight must be positive");
  EZRT_CHECK(t.value() < transitions_.size(), "unknown transition");
  EZRT_CHECK(p.value() < places_.size(), "unknown place");
  outputs_.append(t.value(), Arc{p, weight});
}

void TimePetriNet::ArcTable::append(std::size_t r, Arc arc) {
  Row& row = rows_[r];
  const auto end = static_cast<std::uint32_t>(arcs_.size());
  if (row.size == 0) {
    row.begin = end;
  }
  if (row.size == row.room) {
    if (row.begin + row.room == end) {
      // The row ends the array: grow it in place.
      arcs_.push_back(arc);
      ++row.room;
      ++row.size;
      return;
    }
    // Full, and other rows follow it: move it to the end with twice the
    // room. Its old cells stay as a gap.
    arcs_.resize(end + 2 * row.size);
    std::copy_n(arcs_.begin() + row.begin, row.size, arcs_.begin() + end);
    row.begin = end;
    row.room = 2 * row.size;
  }
  arcs_[row.begin + row.size++] = arc;
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
  // Places and transitions have separate namespaces; one table of views
  // over the nodes' own names checks each in turn.
  NameTable names(std::max(places_.size(), transitions_.size()));
  for (const Place& p : places_) {
    if (p.name.empty()) {
      return make_error(ErrorCode::kValidationError, "place with empty name");
    }
    if (!names.insert(p.name, 0)) {
      return make_error(ErrorCode::kValidationError,
                        "duplicate place name '" + p.name + "'");
    }
  }
  names.clear();
  for (const Transition& t : transitions_) {
    if (t.name.empty()) {
      return make_error(ErrorCode::kValidationError,
                        "transition with empty name");
    }
    if (!names.insert(t.name, 0)) {
      return make_error(ErrorCode::kValidationError,
                        "duplicate transition name '" + t.name + "'");
    }
  }
  for (TransitionId t : transitions_.ids()) {
    if (inputs(t).empty()) {
      return make_error(ErrorCode::kValidationError,
                        "transition '" + transitions_[t].name +
                            "' has no input place (source transitions are "
                            "not supported)");
    }
  }

  // Consumer index (CSR) by counting sort: count per place, turn counts
  // into starts, fill in transition-id order (each start advances to its
  // end), then shift the ends back into starts.
  const std::size_t place_count = places_.size();
  consumer_offsets_.assign(place_count + 1, 0);
  for (TransitionId t : transitions_.ids()) {
    for (const Arc& arc : inputs(t)) {
      ++consumer_offsets_[arc.place.value() + 1];
    }
  }
  for (std::size_t p = 1; p <= place_count; ++p) {
    consumer_offsets_[p] += consumer_offsets_[p - 1];
  }
  consumers_flat_.resize(consumer_offsets_[place_count]);
  for (TransitionId t : transitions_.ids()) {
    for (const Arc& arc : inputs(t)) {
      consumers_flat_[consumer_offsets_[arc.place.value()]++] = t;
    }
  }
  for (std::size_t p = place_count; p > 0; --p) {
    consumer_offsets_[p] = consumer_offsets_[p - 1];
  }
  consumer_offsets_[0] = 0;

  // Affected-set index (CSR): the transitions whose enabledness a firing
  // of t can change are exactly the consumers of •t ∪ t•. They are marked
  // in a bitmap of transitions and read back in id order, the order the
  // dense reference scan uses.
  affected_offsets_.assign(transitions_.size() + 1, 0);
  affected_flat_.clear();
  std::vector<std::uint64_t> marked((transitions_.size() + 63) / 64, 0);
  for (TransitionId t : transitions_.ids()) {
    std::size_t lo = marked.size();
    std::size_t hi = 0;
    const auto mark = [&](std::span<const Arc> arcs) {
      for (const Arc& arc : arcs) {
        const std::span<const TransitionId> users = consumers(arc.place);
        for (TransitionId u : users) {
          marked[u.value() / 64] |= std::uint64_t{1} << (u.value() % 64);
        }
        if (!users.empty()) {  // sorted: the ends bound the marked words
          lo = std::min<std::size_t>(lo, users.front().value() / 64);
          hi = std::max<std::size_t>(hi, users.back().value() / 64);
        }
      }
    };
    mark(inputs(t));
    mark(outputs(t));
    for (std::size_t w = lo; w <= hi; ++w) {
      for (; marked[w] != 0; marked[w] &= marked[w] - 1) {
        affected_flat_.push_back(TransitionId(static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(marked[w])))));
      }
    }
    affected_offsets_[t.value() + 1] =
        static_cast<std::uint32_t>(affected_flat_.size());
  }

  firing_.resize(transitions_.size());
  for (TransitionId t : transitions_.ids()) {
    const Transition& tr = transitions_[t];
    FiringRecord& r = firing_[t.value()];
    r.eft = tr.interval.eft();
    r.lft = tr.interval.lft();
    r.priority = tr.priority;
    r.conflict_free = std::ranges::all_of(inputs(t), [&](const Arc& arc) {
      return consumers(arc.place).size() == 1;
    });
    r.feeds_miss = std::ranges::any_of(outputs(t), [&](const Arc& arc) {
      const PlaceRole role = places_[arc.place].role;
      return role == PlaceRole::kMissPending || role == PlaceRole::kMissed;
    });
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
