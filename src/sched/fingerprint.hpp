// 128-bit state fingerprints for the branch-and-bound cost map.
//
// The first-feasible engines and reachability key the flat CasVisitedSet
// (sched/visited_set.hpp) on the state's Zobrist digest directly;
// branch-and-bound keeps a best-cost-per-state map instead, keyed by the
// same digest (extended with the per-core running tasks), so every engine
// agrees on the key function.
#pragma once

#include <cstddef>
#include <cstdint>

#include "base/hash.hpp"
#include "tpn/state.hpp"

namespace ezrt::sched {

struct Fingerprint {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  friend bool operator==(Fingerprint, Fingerprint) = default;
};

struct FingerprintHash {
  std::size_t operator()(Fingerprint f) const noexcept {
    return hash_mix(f.a, f.b);
  }
};

/// The state's Zobrist digest: maintained incrementally by the firing
/// engine, recomputed densely for cacheless (reference-engine) states —
/// same function either way, so identical timed states always collide.
[[nodiscard]] inline Fingerprint fingerprint(const tpn::State& s) {
  const tpn::StateDigest d = s.digest();
  return Fingerprint{d.a, d.b};
}

/// Estimated heap footprint of a node-based hash container (libstdc++
/// layout: one pointer per bucket, nodes of payload + next pointer).
template <typename Container>
[[nodiscard]] std::uint64_t node_container_bytes(const Container& c,
                                                 std::size_t payload) {
  return static_cast<std::uint64_t>(c.bucket_count()) * sizeof(void*) +
         static_cast<std::uint64_t>(c.size()) * (payload + sizeof(void*));
}

}  // namespace ezrt::sched
