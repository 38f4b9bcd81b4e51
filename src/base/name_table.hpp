// Open-addressed table from names to 32-bit values.
//
// Name-uniqueness checks and identifier lookups (net validation,
// specification validation, the ez-spec reader) used to copy every name
// into a node-based std::unordered_set or std::map. This table stores
// views of strings that the caller keeps alive (node names, DOM text), in
// one flat array sized once: linear probing, at most two-thirds full, no
// erase.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

namespace ezrt {

class NameTable {
 public:
  /// Room for `count` names.
  explicit NameTable(std::size_t count)
      : slots_(std::bit_ceil(count + count / 2 + 1)),
        mask_(slots_.size() - 1) {}

  /// Inserts `name` with `value` unless the name is present; returns
  /// whether it was new.
  bool insert(std::string_view name, std::uint32_t value) {
    Slot& slot = slots_[probe(name)];
    if (slot.data != nullptr) {
      return false;
    }
    // A used slot never holds a null pointer, even for an empty name.
    slot = Slot{name.empty() ? "" : name.data(),
                static_cast<std::uint32_t>(name.size()), value};
    return true;
  }

  [[nodiscard]] std::optional<std::uint32_t> find(
      std::string_view name) const {
    const Slot& slot = slots_[probe(name)];
    if (slot.data != nullptr) {
      return slot.value;
    }
    return std::nullopt;
  }

  /// Empties the table, keeping its room.
  void clear() { slots_.assign(slots_.size(), Slot{}); }

 private:
  struct Slot {
    const char* data = nullptr;  ///< null: the slot is empty
    std::uint32_t size = 0;
    std::uint32_t value = 0;
  };

  /// Index of the slot holding `name`, or of the empty slot where it
  /// would go.
  [[nodiscard]] std::size_t probe(std::string_view name) const {
    std::size_t i = std::hash<std::string_view>{}(name) & mask_;
    while (slots_[i].data != nullptr &&
           std::string_view(slots_[i].data, slots_[i].size) != name) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  std::vector<Slot> slots_;
  std::size_t mask_;
};

}  // namespace ezrt
