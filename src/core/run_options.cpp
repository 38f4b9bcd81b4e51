#include "core/run_options.hpp"

#include <algorithm>
#include <type_traits>

#include "base/strings.hpp"

namespace ezrt::core {
namespace {

using sched::SchedulerOptions;
constexpr std::uint64_t kU32 = 0xFFFF'FFFF;
constexpr std::uint64_t kU64 = ~std::uint64_t{0};

/// Accessors for a SchedulerOptions field that holds the word as it is.
/// A choice's spellings follow its enum's declaration order.
template <auto Field>
std::uint64_t get(const RunOptions& o) {
  return static_cast<std::uint64_t>(o.scheduler.*Field);
}
template <auto Field>
void set(RunOptions& o, std::uint64_t word) {
  using T = std::remove_reference_t<decltype(o.scheduler.*Field)>;
  o.scheduler.*Field = static_cast<T>(word);
}

constexpr RunOption kRows[] = {
    {"complete", OptionKind::kSwitch, true, 0, 1, {},
     [](const RunOptions& o) -> std::uint64_t {
       return o.scheduler.pruning == sched::PruningMode::kNone;
     },
     [](RunOptions& o, std::uint64_t word) {
       o.scheduler.pruning = word != 0 ? sched::PruningMode::kNone
                                       : sched::PruningMode::kPriorityFilter;
     }},
    {"optimize", OptionKind::kChoice, true, 0, 2, {"", "makespan", "switches"},
     get<&SchedulerOptions::objective>, set<&SchedulerOptions::objective>},
    {"engine", OptionKind::kChoice, true, 0, 2, {"dfs", "bestfirst", "beam"},
     get<&SchedulerOptions::search_engine>,
     set<&SchedulerOptions::search_engine>},
    {"state_classes", OptionKind::kChoice, true, 0, 2, {"auto", "on", "off"},
     get<&SchedulerOptions::state_classes>,
     set<&SchedulerOptions::state_classes>},
    {"max_states", OptionKind::kInteger, true, 0, kU64, {},
     get<&SchedulerOptions::max_states>, set<&SchedulerOptions::max_states>},
    {"wall_limit", OptionKind::kInteger, false, 0, kU64, {},
     get<&SchedulerOptions::wall_limit_ms>,
     set<&SchedulerOptions::wall_limit_ms>},
    {"mem_limit", OptionKind::kBytes, false, 0, kU64, {},
     get<&SchedulerOptions::memory_limit_bytes>,
     set<&SchedulerOptions::memory_limit_bytes>},
    {"threads", OptionKind::kInteger, true, 0, kMaxThreads, {},
     get<&SchedulerOptions::threads>, set<&SchedulerOptions::threads>},
    {"deterministic", OptionKind::kSwitch, false, 0, 1, {},
     get<&SchedulerOptions::deterministic>,
     set<&SchedulerOptions::deterministic>},
    {"beam_width", OptionKind::kInteger, true, 1, kU32, {},
     get<&SchedulerOptions::beam_width>, set<&SchedulerOptions::beam_width>},
    {"widen", OptionKind::kSwitch, true, 0, 1, {},
     get<&SchedulerOptions::widen>, set<&SchedulerOptions::widen>},
    {"paper_blocks", OptionKind::kSwitch, true, 0, 1, {},
     [](const RunOptions& o) -> std::uint64_t {
       return o.build.style == builder::BlockStyle::kPaper;
     },
     [](RunOptions& o, std::uint64_t word) {
       o.build.style = word != 0 ? builder::BlockStyle::kPaper
                                 : builder::BlockStyle::kCompact;
     }},
    // No override reads as a word outside the range, so the cache key
    // tells it apart from every override.
    {"sync_budget", OptionKind::kInteger, true, 0, kU32, {},
     [](const RunOptions& o) {
       return o.sync_budget.has_value() ? std::uint64_t{*o.sync_budget} : kU64;
     },
     [](RunOptions& o, std::uint64_t word) {
       o.sync_budget = static_cast<std::uint32_t>(word);
     }},
};

Error expects(std::string_view label, const std::string& what) {
  return make_error(ErrorCode::kInvalidArgument,
                    std::string(label) + " expects " + what);
}

std::string range(std::uint64_t min, std::uint64_t max) {
  return std::to_string(min) + ".." + std::to_string(max);
}

std::string expectation(const RunOption& row) {
  switch (row.kind) {
    case OptionKind::kSwitch:
      return "true|false";
    case OptionKind::kInteger:
      return "an integer in " + range(row.min, row.max);
    case OptionKind::kBytes:
      return "a byte count N[k|m|g] in " + range(row.min, row.max);
    case OptionKind::kChoice:
      break;
  }
  std::string out;
  for (std::string_view choice : row.choices) {
    if (!choice.empty()) {
      out += (out.empty() ? "" : "|") + std::string(choice);
    }
  }
  return out;
}

}  // namespace

Error invalid_value(const RunOption& row, std::string_view label) {
  return expects(label, expectation(row));
}

void RunOptions::apply_to(spec::Specification& specification) const {
  if (sync_budget.has_value()) {
    specification.set_sync_budget(*sync_budget);
  }
}

std::span<const RunOption> run_options() { return kRows; }

std::string cli_flag(const RunOption& row) {
  std::string flag(row.name);
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

Status set_word(RunOptions& options, const RunOption& row,
                std::uint64_t word, std::string_view label) {
  if (word < row.min || word > row.max) {
    return invalid_value(row, label);
  }
  row.set(options, word);
  return {};
}

Status set_text(RunOptions& options, const RunOption& row,
                std::string_view text, std::string_view label) {
  std::uint64_t word = 1;
  if (row.kind == OptionKind::kChoice) {
    const auto* it = std::find(row.choices.begin(), row.choices.end(), text);
    if (it == row.choices.end() || text.empty()) {
      return invalid_value(row, label);
    }
    word = static_cast<std::uint64_t>(it - row.choices.begin());
  } else if (row.kind != OptionKind::kSwitch) {
    auto parsed =
        row.kind == OptionKind::kBytes ? parse_bytes(text) : parse_uint(text);
    if (!parsed.ok()) {
      return invalid_value(row, label);
    }
    word = parsed.value();
  }
  return set_word(options, row, word, label);
}

void resolve(RunOptions& options) {
  if (options.scheduler.objective != sched::Objective::kFirstFeasible) {
    options.scheduler.pruning = sched::PruningMode::kNone;
  }
}

std::vector<std::uint64_t> served_words(const RunOptions& options) {
  std::vector<std::uint64_t> words;
  for (const RunOption& row : kRows) {
    if (row.served) {
      words.push_back(row.get(options));
    }
  }
  return words;
}

Result<std::uint64_t> parse_integer(std::string_view text, std::uint64_t min,
                                    std::uint64_t max,
                                    std::string_view label) {
  auto parsed = parse_uint(text);
  if (!parsed.ok() || parsed.value() < min || parsed.value() > max) {
    return expects(label, "an integer in " + range(min, max));
  }
  return parsed.value();
}

Result<std::uint64_t> parse_bytes(std::string_view text) {
  std::uint64_t multiplier = 1;
  if (!text.empty()) {
    switch (text.back()) {
      case 'k':
      case 'K':
        multiplier = 1ull << 10;
        break;
      case 'm':
      case 'M':
        multiplier = 1ull << 20;
        break;
      case 'g':
      case 'G':
        multiplier = 1ull << 30;
        break;
      default:
        break;
    }
    if (multiplier != 1) {
      text.remove_suffix(1);
    }
  }
  auto parsed = parse_uint(text);
  if (!parsed.ok()) {
    return parsed.error();
  }
  if (parsed.value() > kU64 / multiplier) {
    return make_error(ErrorCode::kInvalidArgument,
                      "byte count above 2^64-1: '" + std::string(text) + "'");
  }
  return parsed.value() * multiplier;
}

}  // namespace ezrt::core
