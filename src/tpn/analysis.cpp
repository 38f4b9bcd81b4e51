#include "tpn/analysis.hpp"

#include <sstream>

namespace ezrt::tpn {

NetStats stats(const TimePetriNet& net) {
  NetStats s;
  s.places = net.place_count();
  s.transitions = net.transition_count();
  for (TransitionId t : net.transition_ids()) {
    s.arcs += net.inputs(t).size() + net.outputs(t).size();
  }
  for (PlaceId p : net.place_ids()) {
    s.initial_tokens += net.place(p).initial_tokens;
  }
  return s;
}

bool structurally_conflict_free(const TimePetriNet& net, TransitionId t) {
  if (net.validated()) {
    return net.conflict_free(t);  // cached by validate()
  }
  for (const Arc& arc : net.inputs(t)) {
    if (net.consumers(arc.place).size() > 1) {
      return false;
    }
  }
  return true;
}

std::string describe_marking(const TimePetriNet& net, const Marking& m) {
  std::ostringstream os;
  bool first = true;
  for (PlaceId p : net.place_ids()) {
    if (m[p] == 0) {
      continue;
    }
    if (!first) {
      os << ", ";
    }
    first = false;
    os << net.place(p).name;
    if (m[p] > 1) {
      os << "(" << m[p] << ")";
    }
  }
  if (first) {
    os << "(empty)";
  }
  return os.str();
}

}  // namespace ezrt::tpn
