#include "serve/cache.hpp"

#include "base/hash.hpp"

namespace ezrt::serve {
namespace {

/// A ticket carrying a stored result: a resident entry's, or a published
/// in-flight record's.
template <class Stored>
ScheduleCache::Ticket ticket_with(ScheduleCache::Role role,
                                  const Stored& stored) {
  ScheduleCache::Ticket ticket;
  ticket.role = role;
  ticket.report_json = stored.report_json;
  ticket.exit_code = stored.exit_code;
  ticket.verdict = stored.verdict;
  return ticket;
}

}  // namespace

std::string Digest::hex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint64_t word : {hi, lo}) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(kDigits[(word >> shift) & 0xF]);
    }
  }
  return out;
}

Digest compute_digest(std::string_view canonical_spec,
                      std::span<const std::uint64_t> options) {
  // Two lanes over the same bytes with decorrelated seeds; hash_cell gives
  // the second lane a full avalanche away from the first so both lanes
  // colliding at once needs ~2^128 work, not 2^64.
  std::uint64_t lo = kHashSeed;
  std::uint64_t hi = hash_cell(0x5eed, 0xfacade, kHashSeed);
  // Hash the spec bytes word-at-a-time (tail bytes padded with length so
  // "abc" and "abc\0" differ).
  std::uint64_t word = 0;
  int fill = 0;
  for (const char c : canonical_spec) {
    word = (word << 8) | static_cast<unsigned char>(c);
    if (++fill == 8) {
      lo = hash_mix(lo, word);
      hi = hash_mix(hi, hash_cell(1, word, hi));
      word = 0;
      fill = 0;
    }
  }
  if (fill != 0) {
    lo = hash_mix(lo, word);
    hi = hash_mix(hi, hash_cell(2, word, hi));
  }
  lo = hash_mix(lo, canonical_spec.size());
  hi = hash_mix(hi, hash_cell(3, canonical_spec.size(), hi));
  for (const std::uint64_t opt : options) {
    lo = hash_mix(lo, opt);
    hi = hash_mix(hi, hash_cell(4, opt, hi));
  }
  return Digest{lo, hi};
}

ScheduleCache::Ticket ScheduleCache::acquire(
    const Digest& digest, std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  bool waited = false;
  while (true) {
    if (auto it = entries_.find(digest); it != entries_.end()) {
      touch_locked(it);
      if (!waited) {
        ++stats_.hits;
      }
      return ticket_with(waited ? Role::kShared : Role::kHit, it->second);
    }
    auto flight = in_flight_.find(digest);
    if (flight == in_flight_.end()) {
      in_flight_.emplace(digest, InFlight{});
      ++stats_.misses;
      Ticket ticket;
      ticket.role = Role::kOwner;
      return ticket;
    }
    InFlight& f = flight->second;
    if (f.resolved) {
      if (f.published) {
        // Published but capacity 0 (or last-waiter cleanup pending): the
        // result is right here.
        if (!waited) {
          ++stats_.hits;
        }
        Ticket ticket = ticket_with(waited ? Role::kShared : Role::kHit, f);
        if (f.waiters == 0) {
          in_flight_.erase(flight);
        }
        return ticket;
      }
      // Abandoned: re-arm the record and take over ownership. Remaining
      // waiters stay parked (their predicate goes false again) and will
      // see this request's outcome instead.
      f.resolved = false;
      f.published = false;
      f.report_json.clear();
      f.verdict.clear();
      f.exit_code = 0;
      ++stats_.misses;
      Ticket ticket;
      ticket.role = Role::kOwner;
      return ticket;
    }
    if (!waited) {
      waited = true;
      ++stats_.coalesced;
    }
    ++f.waiters;
    const bool resolved = resolved_cv_.wait_until(
        lock, deadline, [&f] { return f.resolved; });
    --f.waiters;
    if (!resolved) {
      Ticket ticket;
      ticket.role = Role::kTimeout;
      return ticket;
    }
    if (f.published) {
      Ticket ticket = ticket_with(Role::kShared, f);
      if (f.waiters == 0) {
        in_flight_.erase(flight);
      }
      return ticket;
    }
    // Abandoned while we waited: loop — either the stored result appears
    // (another thread republished), or this request becomes the new owner.
  }
}

void ScheduleCache::publish(const Digest& digest, std::string report_json,
                            int exit_code, std::string verdict) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ > 0) {
    auto [it, inserted] = entries_.try_emplace(digest);
    if (inserted) {
      lru_.push_front(digest);
      it->second.lru_pos = lru_.begin();
    } else {
      touch_locked(it);
    }
    it->second.report_json = report_json;
    it->second.exit_code = exit_code;
    it->second.verdict = verdict;
    while (entries_.size() > capacity_) {
      const auto victim = entries_.find(lru_.back());
      for (const Digest& raw : victim->second.aliases) {
        aliases_.erase(raw);
      }
      entries_.erase(victim);
      lru_.pop_back();
      ++stats_.evictions;
    }
  }
  auto flight = in_flight_.find(digest);
  if (flight != in_flight_.end()) {
    InFlight& f = flight->second;
    f.resolved = true;
    f.published = true;
    f.report_json = std::move(report_json);
    f.exit_code = exit_code;
    f.verdict = std::move(verdict);
    if (f.waiters == 0) {
      in_flight_.erase(flight);
    }
  }
  resolved_cv_.notify_all();
}

std::optional<ScheduleCache::Ticket> ScheduleCache::lookup_alias(
    const Digest& raw) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto alias = aliases_.find(raw);
  if (alias == aliases_.end()) {
    return std::nullopt;
  }
  // Eviction erases an entry's aliases, so the target is resident.
  const auto it = entries_.find(alias->second);
  touch_locked(it);
  ++stats_.hits;
  ++stats_.alias_hits;
  return ticket_with(Role::kHit, it->second);
}

void ScheduleCache::add_alias(const Digest& raw, const Digest& canonical) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(canonical);
  if (it == entries_.end() || !aliases_.try_emplace(raw, canonical).second) {
    return;  // not resident, or already recorded
  }
  std::vector<Digest>& owned = it->second.aliases;
  if (owned.size() == kMaxAliasesPerEntry) {
    aliases_.erase(owned.front());
    owned.erase(owned.begin());
  }
  owned.push_back(raw);
}

void ScheduleCache::abandon(const Digest& digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.abandoned;
  auto flight = in_flight_.find(digest);
  if (flight != in_flight_.end()) {
    InFlight& f = flight->second;
    f.resolved = true;
    f.published = false;
    if (f.waiters == 0) {
      in_flight_.erase(flight);
    }
  }
  resolved_cv_.notify_all();
}

CacheStats ScheduleCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats out = stats_;
  out.entries = entries_.size();
  out.aliases = aliases_.size();
  return out;
}

void ScheduleCache::touch_locked(
    std::unordered_map<Digest, Entry, DigestHash>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  it->second.lru_pos = lru_.begin();
}

}  // namespace ezrt::serve
