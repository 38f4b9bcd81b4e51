// Content-addressed schedule cache with single-flight deduplication
// (docs/serve.md §3).
//
// Key insight: scheduling is a pure function of (canonical spec bytes,
// search-relevant options). The server therefore keys results by a
// 128-bit digest of exactly those inputs — the spec is re-serialized
// through pnml::write_ezspec after parsing, so two textually different
// documents describing the same model share one entry, and the digest
// hashes the canonical bytes with the Zobrist/FNV machinery from
// src/base/hash.hpp (two independent 64-bit lanes; a collision needs both
// lanes to collide).
//
// Alias index: a second, smaller table maps a *raw* digest (the request's
// spec bytes as received, plus the same option words) to the canonical
// digest its spec canonicalized to, so a byte-identical repeat finds its
// entry without parsing or re-serializing the spec. The mapping memoizes
// a pure function, so an alias can never name the wrong entry. An alias is
// recorded only for a resident entry, each entry owns at most
// kMaxAliasesPerEntry of them (the oldest gives way) and eviction erases
// them with their entry: the table is bounded by the cache capacity and
// never answers for a digest that is absent or still in flight.
//
// Single-flight: when N identical requests arrive concurrently, the first
// becomes the *owner* and runs the search; the rest park on a condition
// variable (on their connection threads — the worker pool never blocks on
// the cache) and wake when the owner publishes or abandons. Exactly one
// search per digest is the acceptance criterion the serve tests assert.
//
// Only deterministic, definitive results are stored (kFeasible /
// kInfeasible reports emitted with RunReportExtras::deterministic), so a
// cache hit is byte-identical to a fresh run and guard-tripped or
// degraded verdicts can never poison later requests.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ezrt::serve {

/// 128-bit content digest: two independent 64-bit hash lanes.
struct Digest {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Digest& a, const Digest& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }

  [[nodiscard]] std::string hex() const;
};

struct DigestHash {
  std::size_t operator()(const Digest& d) const noexcept {
    return static_cast<std::size_t>(d.lo ^ (d.hi * 0x9e3779b97f4a7c15ull));
  }
};

/// Digest of (canonical spec bytes, search-relevant option words). The
/// option words must already encode everything that can change the
/// report: engine, state-class mode, limits, sync budget, optimization…
/// (see request.cpp's fingerprint_options).
[[nodiscard]] Digest compute_digest(std::string_view canonical_spec,
                                    std::span<const std::uint64_t> options);

/// Monotonic counters, sampled under the cache lock. Plain integers on
/// purpose: cache behavior is correctness-relevant (single-flight
/// assertions) and must not vanish under EZRT_NO_TELEMETRY.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t alias_hits = 0;  ///< the hits answered by the alias index
  std::uint64_t misses = 0;      ///< owner admissions (searches started)
  std::uint64_t coalesced = 0;   ///< waiters that joined an in-flight search
  std::uint64_t evictions = 0;   ///< LRU evictions
  std::uint64_t abandoned = 0;   ///< owner finished without a cacheable result
  std::uint64_t entries = 0;     ///< current resident entries
  std::uint64_t aliases = 0;     ///< current alias-index size
};

class ScheduleCache {
 public:
  /// `capacity` bounds resident entries (LRU beyond it); 0 disables
  /// storage entirely but single-flight dedup still coalesces concurrent
  /// identical requests.
  explicit ScheduleCache(std::size_t capacity) : capacity_(capacity) {}

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  enum class Role {
    kHit,     ///< result copied out; no work to do
    kOwner,   ///< caller must run the search, then publish() or abandon()
    kShared,  ///< joined an in-flight search; result copied out on success
    kTimeout  ///< waited as kShared but the deadline passed first
  };

  struct Ticket {
    Role role = Role::kHit;
    std::string report_json;  ///< set for kHit and successful kShared
    int exit_code = 0;        ///< CLI-equivalent code stored with the report
    std::string verdict;      ///< verdict string stored with the report
  };

  /// Looks up `digest`; on miss either claims ownership (kOwner) or, when
  /// another request already owns this digest, blocks until it resolves
  /// or `deadline` passes. Runs on connection threads only.
  [[nodiscard]] Ticket acquire(const Digest& digest,
                               std::chrono::steady_clock::time_point deadline);

  /// Owner publishes a cacheable result: stores it (evicting LRU entries
  /// past capacity) and wakes all kShared waiters with a copy.
  void publish(const Digest& digest, std::string report_json, int exit_code,
               std::string verdict);

  /// Alias fast path: when `raw` was recorded for a resident entry, counts
  /// a hit and returns that entry's result as a kHit ticket; otherwise
  /// nullopt, and the caller takes the canonical path.
  [[nodiscard]] std::optional<Ticket> lookup_alias(const Digest& raw);

  /// Records that `raw` canonicalizes to `canonical`. A no-op unless
  /// `canonical` is resident, so call it after a kHit/kShared acquire or
  /// after the owner's publish.
  void add_alias(const Digest& raw, const Digest& canonical);

  /// Owner declines to cache (guard verdict, degraded run, error).
  /// Waiters wake and are re-admitted one at a time (the first becomes
  /// the new owner), so a transient failure never wedges a digest.
  void abandon(const Digest& digest);

  [[nodiscard]] CacheStats stats() const;

  static constexpr std::size_t kMaxAliasesPerEntry = 4;

 private:
  struct Entry {
    std::string report_json;
    int exit_code = 0;
    std::string verdict;
    std::list<Digest>::iterator lru_pos;
    std::vector<Digest> aliases;  ///< raw digests naming it, oldest first
  };

  struct InFlight {
    bool resolved = false;
    bool published = false;
    std::size_t waiters = 0;  ///< parked kShared acquires; gates erasure
    std::string report_json;
    int exit_code = 0;
    std::string verdict;
  };

  void touch_locked(std::unordered_map<Digest, Entry, DigestHash>::iterator it);

  mutable std::mutex mutex_;
  std::condition_variable resolved_cv_;
  std::size_t capacity_;
  std::unordered_map<Digest, Entry, DigestHash> entries_;
  std::list<Digest> lru_;  ///< front = most recent
  std::unordered_map<Digest, InFlight, DigestHash> in_flight_;
  /// Raw → canonical digest; every key is listed in its entry's `aliases`.
  std::unordered_map<Digest, Digest, DigestHash> aliases_;
  CacheStats stats_;
};

}  // namespace ezrt::serve
