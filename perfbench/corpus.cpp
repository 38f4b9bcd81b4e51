// Corpus rows and the ez-spec renderer (README.md, "Inputs").
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "spec/specification.hpp"

namespace perfbench {
namespace {

template <typename T>
T take(std::istringstream& in, const std::string& line) {
  T value{};
  if (!(in >> value)) {
    throw std::runtime_error("malformed corpus row: " + line.substr(0, 80));
  }
  return value;
}

Entry parse_row(const std::string& line) {
  std::istringstream in(line);
  Entry e;
  e.name = take<std::string>(in, line);
  e.verdict = take<char>(in, line);
  if (e.verdict != 'F' && e.verdict != 'I') {
    throw std::runtime_error("corpus row '" + e.name + "': verdict must be F or I");
  }
  e.sync_budget = take<std::uint32_t>(in, line);
  const auto processors = take<std::uint32_t>(in, line);
  for (std::uint32_t i = 0; i < processors; ++i) {
    e.processors.push_back(take<std::string>(in, line));
  }
  const auto tasks = take<std::uint32_t>(in, line);
  for (std::uint32_t i = 0; i < tasks; ++i) {
    TaskRow t;
    t.name = take<std::string>(in, line);
    t.period = take<std::uint64_t>(in, line);
    t.phase = take<std::uint64_t>(in, line);
    t.release = take<std::uint64_t>(in, line);
    t.computing = take<std::uint64_t>(in, line);
    t.deadline = take<std::uint64_t>(in, line);
    t.preemptive = take<char>(in, line) == 'P';
    t.processor = take<std::uint32_t>(in, line);
    if (t.processor >= processors) {
      throw std::runtime_error("corpus row '" + e.name + "': bad processor");
    }
    e.tasks.push_back(std::move(t));
  }
  for (auto* relation : {&e.precedes, &e.excludes}) {
    const auto count = take<std::uint32_t>(in, line);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto a = take<std::uint32_t>(in, line);
      const auto b = take<std::uint32_t>(in, line);
      if (a >= tasks || b >= tasks) {
        throw std::runtime_error("corpus row '" + e.name + "': bad relation");
      }
      relation->emplace_back(a, b);
    }
  }
  const auto messages = take<std::uint32_t>(in, line);
  for (std::uint32_t i = 0; i < messages; ++i) {
    MessageRow m;
    m.name = take<std::string>(in, line);
    m.sender = take<std::uint32_t>(in, line);
    m.receiver = take<std::uint32_t>(in, line);
    m.bus = take<std::string>(in, line);
    m.grant = take<std::uint64_t>(in, line);
    m.communication = take<std::uint64_t>(in, line);
    if (m.sender >= tasks || m.receiver >= tasks) {
      throw std::runtime_error("corpus row '" + e.name + "': bad message");
    }
    e.messages.push_back(std::move(m));
  }
  std::string rest;
  if (in >> rest) {
    throw std::runtime_error("corpus row '" + e.name + "': trailing tokens");
  }
  return e;
}

}  // namespace

std::vector<Entry> load_corpus(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open corpus " + path);
  }
  std::vector<Entry> out;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line.front() == '#') {
      continue;
    }
    out.push_back(parse_row(line));
  }
  if (out.empty()) {
    throw std::runtime_error("empty corpus " + path);
  }
  return out;
}

void save_corpus(const std::string& path, const std::vector<Entry>& entries,
                 const std::string& header) {
  std::ofstream file(path);
  std::istringstream lines(header);
  std::string h;
  while (std::getline(lines, h)) {
    file << "# " << h << '\n';
  }
  for (const Entry& e : entries) {
    file << e.name << ' ' << e.verdict << ' ' << e.sync_budget << ' '
         << e.processors.size();
    for (const std::string& p : e.processors) {
      file << ' ' << p;
    }
    file << ' ' << e.tasks.size();
    for (const TaskRow& t : e.tasks) {
      file << ' ' << t.name << ' ' << t.period << ' ' << t.phase << ' '
           << t.release << ' ' << t.computing << ' ' << t.deadline << ' '
           << (t.preemptive ? 'P' : 'N') << ' ' << t.processor;
    }
    for (const auto* relation : {&e.precedes, &e.excludes}) {
      file << ' ' << relation->size();
      for (const auto& [a, b] : *relation) {
        file << ' ' << a << ' ' << b;
      }
    }
    file << ' ' << e.messages.size();
    for (const MessageRow& m : e.messages) {
      file << ' ' << m.name << ' ' << m.sender << ' ' << m.receiver << ' '
           << m.bus << ' ' << m.grant << ' ' << m.communication;
    }
    file << '\n';
  }
  if (!file) {
    throw std::runtime_error("cannot write corpus " + path);
  }
}

Entry entry_from_spec(const ezrt::spec::Specification& spec, char verdict) {
  Entry e;
  e.name = spec.name();
  e.verdict = verdict;
  e.sync_budget = spec.sync_budget();
  for (auto id : spec.processor_ids()) {
    e.processors.push_back(spec.processor(id).name);
  }
  for (auto id : spec.task_ids()) {
    const auto& t = spec.task(id);
    TaskRow row;
    row.name = t.name;
    row.period = t.timing.period;
    row.phase = t.timing.phase;
    row.release = t.timing.release;
    row.computing = t.timing.computation;
    row.deadline = t.timing.deadline;
    row.preemptive = t.scheduling == ezrt::spec::SchedulingType::kPreemptive;
    row.processor = t.processor.value();
    e.tasks.push_back(row);
    for (auto other : t.precedes) {
      e.precedes.emplace_back(id.value(), other.value());
    }
    for (auto other : t.excludes) {
      e.excludes.emplace_back(id.value(), other.value());
    }
  }
  for (auto id : spec.message_ids()) {
    const auto& m = spec.message(id);
    e.messages.push_back({m.name, m.sender.value(), m.receiver.value(), m.bus,
                          m.grant_bus, m.communication});
  }
  return e;
}

std::string render(const Entry& e, std::string_view name, int layout) {
  // Identifiers: processors ez1.., then tasks, then messages.
  const std::size_t task_base = e.processors.size() + 1;
  const std::size_t msg_base = task_base + e.tasks.size();
  const char* nl = layout == 1 ? "" : "\n";
  const std::string in1 = layout == 0 ? "  " : layout == 2 ? "\t" : "";
  const std::string in2 = layout == 0 ? "    " : layout == 2 ? "\t\t" : "";
  const char* sp = layout == 2 ? "  " : " ";
  auto id = [](std::size_t n) { return "ez" + std::to_string(n); };

  std::string out;
  out.reserve(160 + 330 * e.tasks.size());
  out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  out += nl;
  out += "<rt:ez-spec xmlns:rt=\"http://pnmp.sf.net/EZRealtime\"";
  out += sp;
  out += "name=\"";
  out += name;
  out += "\"";
  out += sp;
  out += "dispOveh=\"false\"";
  if (e.sync_budget > 0) {
    out += sp;
    out += "syncBudget=\"" + std::to_string(e.sync_budget) + "\"";
  }
  out += ">";
  out += nl;
  for (std::size_t p = 0; p < e.processors.size(); ++p) {
    out += in1 + "<Processor identifier=\"" + id(p + 1) + "\">" + nl;
    out += in2 + "<name>" + e.processors[p] + "</name>" + nl;
    out += in1 + "</Processor>" + nl;
  }
  auto field = [&](const char* tag, const std::string& value) {
    out += in2 + "<" + tag + ">" + value + "</" + tag + ">" + nl;
  };
  for (std::size_t t = 0; t < e.tasks.size(); ++t) {
    const TaskRow& row = e.tasks[t];
    out += in1 + "<Task identifier=\"" + id(task_base + t) + "\"";
    std::string precedes, excludes, messages;
    auto append = [&](std::string& list, std::size_t n) {
      list += (list.empty() ? "#" : " #") + id(n);
    };
    for (const auto& [a, b] : e.precedes) {
      if (a == t) append(precedes, task_base + b);
    }
    for (const auto& [a, b] : e.excludes) {
      if (a == t) append(excludes, task_base + b);
    }
    for (std::size_t m = 0; m < e.messages.size(); ++m) {
      if (e.messages[m].sender == t) append(messages, msg_base + m);
    }
    auto attribute = [&](const char* attr, const std::string& list) {
      if (!list.empty()) {
        out += std::string(sp) + attr + "=\"" + list + "\"";
      }
    };
    attribute("precedesTasks", precedes);
    attribute("excludesTasks", excludes);
    attribute("precedesMsgs", messages);
    out += std::string(">") + nl;
    field("processor", id(row.processor + 1));
    field("name", row.name);
    field("period", std::to_string(row.period));
    field("phase", std::to_string(row.phase));
    field("release", std::to_string(row.release));
    field("power", "0");
    field("schedulingMode", row.preemptive ? "P" : "NP");
    field("computing", std::to_string(row.computing));
    field("deadline", std::to_string(row.deadline));
    out += in1 + "</Task>" + nl;
  }
  for (std::size_t m = 0; m < e.messages.size(); ++m) {
    const MessageRow& row = e.messages[m];
    out += in1 + "<Message identifier=\"" + id(msg_base + m) + "\"" + sp +
           "precedes=\"#" + id(task_base + row.receiver) + "\">" + nl;
    field("name", row.name);
    field("bus", row.bus);
    field("grantBus", std::to_string(row.grant));
    field("communication", std::to_string(row.communication));
    out += in1 + "</Message>" + nl;
  }
  out += "</rt:ez-spec>";
  out += nl;
  return out;
}

}  // namespace perfbench
