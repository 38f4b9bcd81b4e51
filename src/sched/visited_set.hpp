// The visited tables over 128-bit state digests.
//
// Every search engine keys one "have we seen this state" table on each
// admitted state (sched/search_kernel.hpp); which table follows the
// objective. The first-feasible engines and `reach` use CasVisitedSet,
// which shards the lock-free two-word-publish table
// (sched/lockfree_table.hpp): the hot insert path is a CAS claim plus a
// release publish, probes are lock-free, and growth is epoch-based per
// shard (docs/concurrency.md). The serial engines use one shard and one
// thread slot; the parallel engine shards it per worker. Branch-and-bound
// uses BestCostTable, which also remembers the cheapest cost per key.
//
// Storing digests instead of full states keeps memory at 16 bytes per
// state; the collision probability over two independent 64-bit hashes is
// negligible against the state counts reachable in practice.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "base/hash.hpp"
#include "sched/lockfree_table.hpp"
#include "sched/trace.hpp"
#include "tpn/state.hpp"

namespace ezrt::sched {

/// Lock-free visited set: the digest's low bits route to a shard, each
/// shard is one LockFreeDigestTable. Digests with a zero word cannot use
/// the two-word publish protocol (0 is the empty/unpublished marker), so
/// each shard keeps a tiny mutexed side list for them — probability 2^-63
/// per digest, so the lock is structurally cold.
//
// Header-only (and inside the lock-free inline namespace) because the
// underlying table's code differs between plain and interleave-hooked
// builds; keeping the wrapper in the same namespace keeps every TU's view
// of the class consistent.
inline namespace EZRT_LOCKFREE_NS {

class CasVisitedSet {
 public:
  /// `shard_count` is rounded up to a power of two (minimum 1).
  /// `max_threads` bounds the `tid` values passed to insert (it sizes each
  /// table's epoch announce array).
  explicit CasVisitedSet(std::size_t shard_count, std::uint32_t max_threads) {
    std::size_t n = 1;
    while (n < shard_count) {
      n *= 2;
    }
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>(kInitialSlots, max_threads));
    }
    shard_mask_ = n - 1;
  }

  CasVisitedSet(const CasVisitedSet&) = delete;
  CasVisitedSet& operator=(const CasVisitedSet&) = delete;

  /// Exactly-once insert: for a given digest, the first caller (in the
  /// slot CAS's arbitration order) gets true, everyone else false. `tid`
  /// must be < max_threads and unique among concurrent callers.
  bool insert(tpn::StateDigest digest, std::uint32_t tid) {
    Shard& shard = *shards_[static_cast<std::size_t>(digest.a) & shard_mask_];
    if (digest.a == 0 || digest.b == 0) {
      std::lock_guard<std::mutex> lock(shard.overflow_mu);
      for (const tpn::StateDigest& d : shard.overflow) {
        if (d.a == digest.a && d.b == digest.b) {
          return false;
        }
      }
      shard.overflow.push_back(digest);
      return true;
    }
    return shard.table.insert(digest.a, digest.b, tid);
  }

  /// Membership test without insertion; the search itself only inserts,
  /// and the property tests check membership through this. A false
  /// result is only a snapshot under concurrency — insert() remains the
  /// authoritative exactly-once admission.
  [[nodiscard]] bool contains(tpn::StateDigest digest) const {
    const Shard& shard =
        *shards_[static_cast<std::size_t>(digest.a) & shard_mask_];
    if (digest.a == 0 || digest.b == 0) {
      std::lock_guard<std::mutex> lock(shard.overflow_mu);
      for (const tpn::StateDigest& d : shard.overflow) {
        if (d.a == digest.a && d.b == digest.b) {
          return true;
        }
      }
      return false;
    }
    return shard.table.contains(digest.a, digest.b);
  }

  /// Distinct digests inserted. Exact after quiescence; racy lower bound
  /// while inserts are in flight.
  [[nodiscard]] std::uint64_t size() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->table.size();
      std::lock_guard<std::mutex> lock(shard->overflow_mu);
      total += shard->overflow.size();
    }
    return total;
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Bytes held by the slot arrays of every live table generation
  /// (retired epochs included — they stay alive for stale probes).
  [[nodiscard]] std::uint64_t memory_bytes() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->table.memory_bytes();
    }
    return total;
  }

  /// Sum of per-shard growth epochs.
  [[nodiscard]] std::uint64_t growths() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->table.growths();
    }
    return total;
  }

  /// Per-shard occupancy and probe-length distribution (ShardTelemetry's
  /// contract: 8 exact displacement buckets plus an overflow bucket;
  /// side-list keys count as displacement 0). Call after writers quiesce.
  [[nodiscard]] std::vector<ShardTelemetry> shard_stats() const {
    std::vector<ShardTelemetry> stats;
    stats.reserve(shards_.size());
    for (const auto& shard : shards_) {
      ShardTelemetry t;
      t.slots = shard->table.slot_count();
      t.probe_hist.assign(9, 0);  // displacements 0..7 exact, [8] = 8+
      std::uint64_t probe_sum = 0;
      std::uint64_t keys = 0;
      shard->table.for_each_key([&](std::uint64_t, std::uint64_t,
                                    std::size_t home, std::size_t index,
                                    std::size_t mask) {
        const std::uint64_t displacement = (index - home) & mask;
        probe_sum += displacement;
        t.probe_max = std::max(t.probe_max, displacement);
        ++t.probe_hist[displacement < 8 ? displacement : 8];
        ++keys;
      });
      {
        std::lock_guard<std::mutex> lock(shard->overflow_mu);
        keys += shard->overflow.size();
        t.probe_hist[0] += shard->overflow.size();
      }
      t.occupied = keys;
      t.load_factor = t.slots == 0 ? 0.0
                                   : static_cast<double>(t.occupied) /
                                         static_cast<double>(t.slots);
      if (keys > 0) {
        t.probe_mean =
            static_cast<double>(probe_sum) / static_cast<double>(keys);
      }
      stats.push_back(std::move(t));
    }
    return stats;
  }

 private:
  static constexpr std::size_t kInitialSlots = 1024;  // 16 KiB/shard

  struct Shard {
    Shard(std::size_t slots, std::uint32_t max_threads)
        : table(slots, max_threads) {}

    LockFreeDigestTable table;
    mutable std::mutex overflow_mu;
    std::vector<tpn::StateDigest> overflow;  ///< digests with a zero word
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
};

}  // namespace EZRT_LOCKFREE_NS

/// The optimizing objectives' visited table: the cheapest path cost per
/// key in one flat linear-probing array. A key reached strictly more
/// cheaply is claimed again, so branch-and-bound re-expands it. Serial.
class BestCostTable {
 public:
  /// True when `key` is new or `cost` beats its recorded cost, which
  /// `cost` then replaces.
  bool claim(tpn::StateDigest key, std::uint64_t cost) {
    if (2 * (size_ + 1) > slots_.size()) {
      std::vector<Slot> old(std::max<std::size_t>(1024, 2 * slots_.size()));
      old.swap(slots_);
      for (const Slot& s : old) {
        if (s.cost != kEmpty) {
          find(tpn::StateDigest{s.a, s.b}) = s;
        }
      }
    }
    Slot& slot = find(key);
    if (slot.cost <= cost) {  // an empty slot's cost exceeds every path's
      return false;
    }
    size_ += slot.cost == kEmpty ? 1 : 0;
    slot = Slot{key.a, key.b, cost};
    return true;
  }

  [[nodiscard]] std::uint64_t memory_bytes() const {
    return slots_.size() * sizeof(Slot);
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Slot {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t cost = kEmpty;
  };

  /// The key's slot, or the empty slot where it goes.
  Slot& find(tpn::StateDigest key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(key.a) & mask;
    while (slots_[i].cost != kEmpty &&
           (slots_[i].a != key.a || slots_[i].b != key.b)) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace ezrt::sched
