#include "sched/attribution.hpp"

#include <algorithm>

namespace ezrt::sched {

namespace {

bool is_resource(tpn::PlaceRole role) {
  return role == tpn::PlaceRole::kProcessor || role == tpn::PlaceRole::kBus ||
         role == tpn::PlaceRole::kExclusionLock ||
         role == tpn::PlaceRole::kSyncPool;
}

}  // namespace

void AttributionCounters::merge(const AttributionCounters& other) {
  if (!other.collected) {
    return;
  }
  collected = true;
  auto add = [](std::vector<std::uint64_t>& into,
                const std::vector<std::uint64_t>& from) {
    if (into.size() < from.size()) {
      into.resize(from.size(), 0);
    }
    for (std::size_t i = 0; i < from.size(); ++i) {
      into[i] += from[i];
    }
  };
  add(deadline_hits, other.deadline_hits);
  add(contention, other.contention);
  add(doomed_hits, other.doomed_hits);
  doomed_unattributed += other.doomed_unattributed;
}

AttributionRecorder::AttributionRecorder(const tpn::TimePetriNet& net,
                                         bool enabled)
    : net_(&net), enabled_(enabled) {
  if (!enabled_) {
    return;
  }
  std::uint32_t task_limit = 0;
  for (PlaceId p : net.place_ids()) {
    const tpn::Place& place = net.place(p);
    if (is_resource(place.role)) {
      resource_places_.push_back(p);
    }
    if (place.task.valid()) {
      task_limit = std::max(task_limit, place.task.value() + 1);
    }
  }
  for (TransitionId t : net.transition_ids()) {
    if (net.transition(t).task.valid()) {
      task_limit = std::max(task_limit, net.transition(t).task.value() + 1);
    }
  }
  counters_.collected = true;
  counters_.deadline_hits.assign(net.place_count(), 0);
  counters_.contention.assign(net.place_count(), 0);
  counters_.doomed_hits.assign(task_limit, 0);
}

void AttributionRecorder::record_contention(const tpn::Marking& m) {
  for (PlaceId p : resource_places_) {
    if (m[p] == 0) {
      ++counters_.contention[p.value()];
    }
  }
}

void AttributionRecorder::record_deadline(const tpn::Marking& m) {
  if (!enabled_) {
    return;
  }
  for (PlaceId p : net_->miss_places()) {
    if (m[p] > 0) {
      ++counters_.deadline_hits[p.value()];
    }
  }
  record_contention(m);
}

void AttributionRecorder::record_doomed(std::int32_t watchdog_transition,
                                        const tpn::Marking& m) {
  if (!enabled_) {
    return;
  }
  if (watchdog_transition >= 0) {
    const TaskId task =
        net_->transition(
                TransitionId(static_cast<std::uint32_t>(watchdog_transition)))
            .task;
    if (task.valid() && task.value() < counters_.doomed_hits.size()) {
      ++counters_.doomed_hits[task.value()];
    } else {
      ++counters_.doomed_unattributed;
    }
  } else {
    ++counters_.doomed_unattributed;
  }
  record_contention(m);
}

}  // namespace ezrt::sched
