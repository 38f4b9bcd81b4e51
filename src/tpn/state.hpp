// TLTS states: (marking, clock vector) pairs (paper §3.1).
//
// The semantics of a TPN is a timed labeled transition system whose states
// are S ⊆ (M × C). The clock vector c assigns every *enabled* transition
// the time elapsed since it last became enabled; disabled transitions are
// canonically stored as clock 0 so that structurally equal states hash
// equally.
//
// Every State also carries two values derived from its marking and clocks:
// the enabled set ET(m) as a bitset over transitions, and the identity
// digest. They are invariants, not caches: State::initial computes both,
// the firing rule (Semantics) maintains both, and nothing else can change
// the marking (docs/semantics.md §5). A default-constructed State is an
// empty placeholder for the firing rule to write into.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "base/hash.hpp"
#include "base/time.hpp"
#include "tpn/marking.hpp"
#include "tpn/net.hpp"

namespace ezrt::tpn {

/// 128-bit state identity digest for the scheduler's visited set: two
/// independent XORs of `hash_cell` values over every (place, tokens) and
/// (transition, clock) cell. XOR-combinable, so Semantics maintains it
/// incrementally across firings instead of rehashing the whole state.
struct StateDigest {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class Semantics;

class State {
 public:
  State() = default;

  /// The initial state s0 = (m0, 0). Precondition: `net` is validated.
  [[nodiscard]] static State initial(const TimePetriNet& net);

  [[nodiscard]] const Marking& marking() const { return marking_; }

  [[nodiscard]] Time clock(TransitionId t) const {
    return clocks_[t.value()];
  }
  /// Overrides one clock, for tests that pose a state directly; the
  /// digest follows.
  void set_clock(TransitionId t, Time value) {
    fold_clock(digest_, t, clocks_[t.value()], value);
    clocks_[t.value()] = value;
  }

  /// Model time elapsed since s0 along the path that produced this state.
  /// Not part of state identity (two interleavings reaching the same
  /// marking+clocks at different absolute times are the same TLTS state),
  /// but kept here because schedule extraction needs absolute times.
  [[nodiscard]] Time elapsed() const { return elapsed_; }
  void set_elapsed(Time t) { elapsed_ = t; }

  // -- Enabled set ---------------------------------------------------------
  // Dense bitset over transitions, one word per 64, derived from the
  // marking and excluded from identity.

  [[nodiscard]] bool enabled(TransitionId t) const {
    return (enabled_words_[t.value() >> 6] >> (t.value() & 63)) & 1u;
  }
  [[nodiscard]] std::uint32_t enabled_count() const { return enabled_count_; }
  [[nodiscard]] std::span<const std::uint64_t> enabled_words() const {
    return {enabled_words_.data(), enabled_words_.size()};
  }

  // -- Identity digest -----------------------------------------------------

  [[nodiscard]] StateDigest digest() const { return digest_; }

  /// Dense recomputation of the digest from marking + clocks: how
  /// State::initial and fire_reference set it, and the oracle the
  /// maintained digest is checked against.
  [[nodiscard]] StateDigest compute_digest() const {
    StateDigest d;
    const auto toks = marking_.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
      toggle_cell(d, i, toks[i], 0);
    }
    for (std::size_t i = 0; i < clocks_.size(); ++i) {
      toggle_cell(d, i, clocks_[i], kClockDomain);
    }
    return d;
  }

  /// Folds a change of t's clock from `before` to `after` into `d`: the
  /// one entry to the digest's clock cells, for the firing rule and for
  /// the state classifier's capped digest (tpn/state_class.hpp).
  static void fold_clock(StateDigest& d, TransitionId t, Time before,
                         Time after) {
    toggle_cell(d, t.value(), before, kClockDomain);
    toggle_cell(d, t.value(), after, kClockDomain);
  }

  /// Identity comparison: marking + clocks.
  [[nodiscard]] bool same_timed_state(const State& other) const {
    return marking_ == other.marking_ && clocks_ == other.clocks_;
  }

 private:
  friend class Semantics;

  static constexpr std::uint64_t kSeedA = kHashSeed;
  static constexpr std::uint64_t kSeedB = 0x9e3779b97f4a7c15ull;
  /// Separates the clock cells from the token cells in the digest's index
  /// space (place i and transition i must not cancel each other out).
  static constexpr std::uint64_t kClockDomain = 0x636c6f636b73ull;

  static void toggle_cell(StateDigest& d, std::uint64_t index,
                          std::uint64_t value, std::uint64_t domain) {
    d.a ^= hash_cell(index, value, kSeedA ^ domain);
    d.b ^= hash_cell(index, value, kSeedB ^ domain);
  }
  void fold_tokens(PlaceId p, std::uint64_t before, std::uint64_t after) {
    toggle_cell(digest_, p.value(), before, 0);
    toggle_cell(digest_, p.value(), after, 0);
  }

  /// Calls `body(t)` for every enabled t, in transition-id order.
  template <typename Body>
  void for_each_enabled(Body&& body) const {
    for (std::size_t wi = 0; wi < enabled_words_.size(); ++wi) {
      std::uint64_t w = enabled_words_[wi];
      while (w != 0) {
        const auto bit = static_cast<std::uint32_t>(std::countr_zero(w));
        w &= w - 1;
        body(TransitionId(static_cast<std::uint32_t>(wi * 64) + bit));
      }
    }
  }
  void set_enabled_bit(TransitionId t) {
    enabled_words_[t.value() >> 6] |= std::uint64_t{1} << (t.value() & 63);
    ++enabled_count_;
  }
  void clear_enabled_bit(TransitionId t) {
    enabled_words_[t.value() >> 6] &= ~(std::uint64_t{1} << (t.value() & 63));
    --enabled_count_;
  }
  /// Sets the enabled set and the digest from the marking and clocks by
  /// dense scans (semantics.cpp).
  void rebuild(const Semantics& sem);

  Marking marking_;
  std::vector<Time> clocks_;
  Time elapsed_ = 0;
  std::vector<std::uint64_t> enabled_words_;
  std::uint32_t enabled_count_ = 0;
  StateDigest digest_;
};

}  // namespace ezrt::tpn
