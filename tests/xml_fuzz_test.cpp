// Robustness sweeps for the XML substrate: randomly generated documents
// must round-trip exactly, and randomly mutated documents must either
// parse to *something* or be rejected cleanly — never crash or hang.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "base/strings.hpp"
#include "pnml/ezspec_io.hpp"
#include "workload/generator.hpp"
#include "xml/dom.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace ezrt::xml {
namespace {

/// Random structure generator: bounded depth/fanout, hostile-ish content.
class DocBuilder {
 public:
  explicit DocBuilder(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] Document build() {
    Document doc;
    doc.root = std::make_unique<Element>(name());
    populate(*doc.root, 0);
    return doc;
  }

 private:
  [[nodiscard]] std::string name() {
    static constexpr const char* kNames[] = {"task", "net", "place",
                                             "code", "a",   "rt-spec"};
    return kNames[rng_.below(std::size(kNames))];
  }

  [[nodiscard]] std::string text() {
    static constexpr const char* kTexts[] = {
        "plain",           "a < b && c > d", "quote\"inside",
        "ampers&nd",       "  spaced out  ", "tab\tand\nnewline",
        "'apostrophe'",    "<looks-like-tag>", "unicode \xC3\xA9",
    };
    return kTexts[rng_.below(std::size(kTexts))];
  }

  void populate(Element& element, int depth) {
    const std::uint64_t attributes = rng_.below(3);
    for (std::uint64_t i = 0; i < attributes; ++i) {
      element.set_attribute("attr" + std::to_string(i), text());
    }
    if (depth >= 3 || rng_.below(3) == 0) {
      element.set_text(text());
      return;
    }
    const std::uint64_t children = 1 + rng_.below(3);
    for (std::uint64_t i = 0; i < children; ++i) {
      populate(element.add_child(name()), depth + 1);
    }
  }

  workload::Rng rng_;
};

/// Structural equality of two elements (names, attributes, trimmed text,
/// children recursively).
[[nodiscard]] bool same_structure(const Element& a, const Element& b) {
  if (a.name() != b.name()) {
    return false;
  }
  if (a.attributes().size() != b.attributes().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.attributes().size(); ++i) {
    if (a.attributes()[i].name != b.attributes()[i].name ||
        a.attributes()[i].value != b.attributes()[i].value) {
      return false;
    }
  }
  if (trim(a.text()) != trim(b.text())) {
    return false;
  }
  if (a.children().size() != b.children().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.children().size(); ++i) {
    if (!same_structure(*a.children()[i], *b.children()[i])) {
      return false;
    }
  }
  return true;
}

class XmlFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlFuzz, RandomDocumentsRoundTrip) {
  DocBuilder builder(GetParam());
  const Document original = builder.build();
  const std::string serialized = to_string(original);
  auto reparsed = parse(serialized);
  ASSERT_TRUE(reparsed.ok()) << serialized;
  EXPECT_TRUE(same_structure(*original.root, *reparsed.value().root))
      << serialized;
}

TEST_P(XmlFuzz, MutatedDocumentsNeverCrash) {
  DocBuilder builder(GetParam());
  std::string document = to_string(builder.build());
  workload::Rng rng(GetParam() * 31 + 7);
  // Apply a handful of byte-level mutations; the parser must terminate
  // with either a document or an error for every variant.
  for (int round = 0; round < 20; ++round) {
    std::string mutated = document;
    const std::uint64_t kind = rng.below(4);
    const std::size_t pos = rng.below(mutated.size());
    switch (kind) {
      case 0:
        mutated.erase(pos, 1 + rng.below(4));
        break;
      case 1:
        mutated.insert(pos, std::string("<&\">") +
                                static_cast<char>('a' + rng.below(26)));
        break;
      case 2:
        mutated[pos] = static_cast<char>(rng.below(128));
        break;
      default:
        mutated = mutated.substr(0, pos);  // truncation
        break;
    }
    auto result = parse(mutated);
    if (result.ok()) {
      // Whatever parsed must re-serialize and re-parse.
      EXPECT_TRUE(parse(to_string(*result.value().root)).ok());
    } else {
      EXPECT_FALSE(result.error().message().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzz,
                         testing::Range<std::uint64_t>(1, 26));

// -- The ez-spec reader under mutation ---------------------------------------
//
// Seeded mutations of the checked-in example documents go through
// `pnml::read_ezspec`. Every variant must be rejected with a non-empty
// diagnostic or accepted; an accepted spec must survive write -> read ->
// write unchanged (the first write canonicalizes, so the fixpoint is
// checked from there).

[[nodiscard]] std::vector<std::string> example_documents() {
  std::vector<std::string> docs;
  for (const char* model : {"harmonic_u40", "mine_pump", "uav_dual_processor"}) {
    std::ifstream in(std::string(EZRT_EXAMPLE_SPECS_DIR) + "/" + model +
                     ".ezspec");
    std::stringstream text;
    text << in.rdbuf();
    docs.push_back(text.str());
  }
  return docs;
}

/// Tokens that aim at the reader's edge cases: character references,
/// markup fragments, reference lists and repeated identifiers.
constexpr const char* kTokens[] = {
    "&#",        "&#x",         "&#65;",        "&#x41;",
    "&#xD800;",  "&#65abc;",    "&#+65;",       "&# 65;",
    "&#x 41;",   "&#x110000;",  "&#9;",         "&amp;",
    "&lt;",      "&",           ";",            "<",
    ">",         "/>",          "\"",           "'",
    "=",         "#",           "#ez1",         "<!--",
    "-->",       "<![CDATA[",   "]]>",          "</Task>",
    "<Task>",    "<name>",      "</name>",      " identifier=\"ez1\"",
    " identifier=\"ez2\"",    " precedesTasks=\"#ez1\"",
    " excludesTasks=\"#ez2 #ez1\"",             " precedesMsgs=\"#ez1\"",
    "<Processor identifier=\"ez1\"><name>cpuB</name></Processor>",
    "<Message identifier=\"ez1\"><name>m</name></Message>",
    "<period>0</period>",       "<computing>99999999999999999999</computing>",
    "<schedulingMode>P</schedulingMode>",        "<processor>ez1</processor>",
};

/// One seeded mutation of `doc`; `other` is a second document to splice
/// from. Two of the kinds aim at character data and numbers, which keep
/// the markup intact, so that a share of the variants is accepted and
/// reaches the round-trip check.
void mutate(std::string& doc, const std::string& other, workload::Rng& rng) {
  if (doc.empty()) {
    doc = other.substr(0, rng.below(other.size() + 1));
    return;
  }
  std::size_t pos = rng.below(doc.size());
  switch (rng.below(8)) {
    case 0:  // bit flip
      doc[pos] = static_cast<char>(doc[pos] ^ (1u << rng.below(8)));
      break;
    case 1:  // truncation
      doc.resize(pos);
      break;
    case 2: {  // splice a slice of the other document in, or over
      const std::size_t from = rng.below(other.size());
      const std::string slice = other.substr(from, 1 + rng.below(64));
      if (rng.below(2) == 0) {
        doc.insert(pos, slice);
      } else {
        doc.replace(pos, std::min<std::size_t>(slice.size(), doc.size() - pos),
                    slice);
      }
      break;
    }
    case 3:  // dictionary token anywhere
      doc.insert(pos, kTokens[rng.below(std::size(kTokens))]);
      break;
    case 6:  // dictionary token at the start of a character-data run
      pos = doc.find('>', pos);
      if (pos != std::string::npos) {
        doc.insert(pos + 1, kTokens[rng.below(std::size(kTokens))]);
      }
      break;
    case 7: {  // another number in place of a digit run
      pos = doc.find_first_of("0123456789", pos);
      if (pos != std::string::npos) {
        const std::size_t end = doc.find_first_not_of("0123456789", pos);
        doc.replace(pos, end - pos, std::to_string(rng.below(2000)));
      }
      break;
    }
    case 4: {  // repeat an attribute of the tag the position falls in
      const std::size_t eq = doc.find("=\"", pos);
      const std::size_t start =
          eq == std::string::npos ? eq : doc.rfind(' ', eq);
      const std::size_t end =
          eq == std::string::npos ? eq : doc.find('"', eq + 2);
      if (start != std::string::npos && end != std::string::npos) {
        doc.insert(end + 1, doc.substr(start, end + 1 - start));
      }
      break;
    }
    default:  // delete a short run
      doc.erase(pos, 1 + rng.below(8));
      break;
  }
}

class EzSpecFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(EzSpecFuzz, MutatedDocumentsAreRejectedCleanlyOrRoundTrip) {
  const std::vector<std::string> docs = example_documents();
  workload::Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 1);
  for (int round = 0; round < 100; ++round) {
    const std::size_t base = rng.below(docs.size());
    std::string doc = docs[base];
    const std::uint64_t mutations = 1 + rng.below(2);
    for (std::uint64_t i = 0; i < mutations; ++i) {
      mutate(doc, docs[rng.below(docs.size())], rng);
    }
    auto read = pnml::read_ezspec(doc);
    if (!read.ok()) {
      EXPECT_FALSE(read.error().message().empty()) << doc;
      continue;
    }
    auto written = pnml::write_ezspec(read.value());
    ASSERT_TRUE(written.ok()) << doc;
    auto reread = pnml::read_ezspec(written.value());
    ASSERT_TRUE(reread.ok()) << reread.error().to_string() << "\n"
                             << written.value();
    auto rewritten = pnml::write_ezspec(reread.value());
    ASSERT_TRUE(rewritten.ok());
    EXPECT_EQ(rewritten.value(), written.value()) << doc;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EzSpecFuzz,
                         testing::Range<std::uint64_t>(1, 41));

// -- Hard input limits (docs/robustness.md) ---------------------------------

TEST(XmlLimits, AcceptsNestingAtTheLimit) {
  std::string doc;
  for (std::size_t i = 0; i < kMaxNestingDepth; ++i) {
    doc += "<a>";
  }
  for (std::size_t i = 0; i < kMaxNestingDepth; ++i) {
    doc += "</a>";
  }
  EXPECT_TRUE(parse(doc).ok());
}

TEST(XmlLimits, RejectsNestingBeyondTheLimit) {
  // One level past the limit; without the guard this recursion is what a
  // hostile "<a><a><a>..." bomb uses to blow the call stack.
  std::string doc;
  for (std::size_t i = 0; i < kMaxNestingDepth + 1; ++i) {
    doc += "<a>";
  }
  for (std::size_t i = 0; i < kMaxNestingDepth + 1; ++i) {
    doc += "</a>";
  }
  auto result = parse(doc);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("nesting"), std::string::npos);
}

TEST(XmlLimits, RejectsOversizedInput) {
  std::string doc = "<a>";
  doc.append(kMaxInputBytes, ' ');
  doc += "</a>";
  auto result = parse(doc);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("-byte limit"),
            std::string::npos);
}

}  // namespace
}  // namespace ezrt::xml
