// Run options: one table row per option a user can set on a run.
//
// The `ezrt` CLI and `ezrt serve` requests both read this table, and the
// serve cache key is built from it, so an option is declared once. A row
// gives the option's name (the serve key; the CLI flag is the same name
// with '-' for '_', and each surface accepts only its own spelling), its
// value kind and accepted range, whether a serve request may set it (only
// those rows enter the cache key), and where the pipeline stores it.
// Every value travels as one 64-bit word: a switch is 0 or 1, a choice is
// its index, integers and byte counts are themselves.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.hpp"
#include "builder/tpn_builder.hpp"
#include "sched/dfs.hpp"
#include "spec/specification.hpp"

namespace ezrt::core {

/// Most search worker threads a run may ask for.
inline constexpr std::uint64_t kMaxThreads = 256;

/// Everything a user can set on a run, where the pipeline keeps it.
struct RunOptions {
  builder::BuildOptions build;
  sched::SchedulerOptions scheduler;
  /// Replaces the specification's shared-synchronization pool K
  /// (docs/multiprocessor.md).
  std::optional<std::uint32_t> sync_budget;

  /// Applies the options that live on the specification itself.
  void apply_to(spec::Specification& specification) const;
};

/// How a value is spelled: a CLI switch takes none (a serve request sends
/// true|false), an integer is decimal, a byte count may carry a k/m/g
/// suffix (CLI only), a choice is one of the row's spellings.
enum class OptionKind : std::uint8_t { kSwitch, kInteger, kBytes, kChoice };

/// One row of the table.
struct RunOption {
  std::string_view name;  ///< the serve key
  OptionKind kind;
  bool served;  ///< a serve request may set it; part of the cache key
  std::uint64_t min;  ///< accepted words, inclusive
  std::uint64_t max;
  /// kChoice spellings indexed by word; an empty one cannot be chosen.
  std::array<std::string_view, 3> choices;
  std::uint64_t (*get)(const RunOptions&);  ///< the stored word
  void (*set)(RunOptions&, std::uint64_t);  ///< stores a checked word
};

/// Every row, in the order their words enter the cache key.
[[nodiscard]] std::span<const RunOption> run_options();

/// The row's CLI flag without the leading "--": "max_states" ->
/// "max-states".
[[nodiscard]] std::string cli_flag(const RunOption& row);

/// The one message for a value the row does not accept. `label` names the
/// option as its surface spells it ("--threads", "option 'threads'").
[[nodiscard]] Error invalid_value(const RunOption& row, std::string_view label);

/// Checks `word` against the row's range and stores it.
[[nodiscard]] Status set_word(RunOptions& options, const RunOption& row,
                              std::uint64_t word, std::string_view label);

/// Parses a textual value (a CLI argument, a serve choice) and stores it.
/// A switch is set by its presence, whatever the text.
[[nodiscard]] Status set_text(RunOptions& options, const RunOption& row,
                              std::string_view text, std::string_view label);

/// The one rule that links options: an optimizing objective searches the
/// complete space. Runs after every option is set, so the order in which
/// they were given does not matter.
void resolve(RunOptions& options);

/// The served rows' words in table order: the option part of the serve
/// cache key.
[[nodiscard]] std::vector<std::uint64_t> served_words(
    const RunOptions& options);

/// A decimal integer in [min, max]; the error names `label`.
[[nodiscard]] Result<std::uint64_t> parse_integer(std::string_view text,
                                                  std::uint64_t min,
                                                  std::uint64_t max,
                                                  std::string_view label);

/// A byte count with an optional k/m/g (binary) suffix: "64m", "2G",
/// "1048576". Products above 2^64-1 are rejected.
[[nodiscard]] Result<std::uint64_t> parse_bytes(std::string_view text);

}  // namespace ezrt::core
