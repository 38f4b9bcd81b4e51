// Unit tests for the XML substrate: DOM, parser, writer, round-trips.
#include <gtest/gtest.h>

#include "base/strings.hpp"
#include "xml/dom.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace ezrt::xml {
namespace {

TEST(XmlParser, ParsesMinimalDocument) {
  auto doc = parse("<root/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->name(), "root");
  EXPECT_TRUE(doc.value().root->children().empty());
}

TEST(XmlParser, ParsesDeclarationAndComments) {
  auto doc = parse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!-- a comment -->\n"
      "<root><!-- inner --><child/></root>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->children().size(), 1u);
}

TEST(XmlParser, ParsesAttributes) {
  auto doc = parse("<task name=\"T1\" period='80'/>");
  ASSERT_TRUE(doc.ok());
  const Element& root = *doc.value().root;
  EXPECT_EQ(root.attribute("name"), "T1");
  EXPECT_EQ(root.attribute("period"), "80");
  EXPECT_FALSE(root.attribute("missing").has_value());
}

TEST(XmlParser, ParsesNestedElementsAndText) {
  auto doc = parse("<a><b>hello</b><b>world</b></a>");
  ASSERT_TRUE(doc.ok());
  const auto children = doc.value().root->find_children("b");
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0]->text(), "hello");
  EXPECT_EQ(children[1]->text(), "world");
}

TEST(XmlParser, DecodesPredefinedEntities) {
  auto doc = parse("<x>a &lt; b &amp;&amp; c &gt; d &quot;&apos;</x>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->text(), "a < b && c > d \"'");
}

TEST(XmlParser, DecodesCharacterReferences) {
  auto doc = parse("<x>&#65;&#x42;</x>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->text(), "AB");
}

TEST(XmlParser, DecodesUtf8CharacterReference) {
  auto doc = parse("<x>&#233;</x>");  // é
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->text(), "\xC3\xA9");
}

TEST(XmlParser, ParsesCdata) {
  auto doc = parse("<code><![CDATA[if (a < b) { x &= 1; }]]></code>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->text(), "if (a < b) { x &= 1; }");
}

TEST(XmlParser, AttributeEntitiesDecoded) {
  auto doc = parse("<x v=\"a&amp;b\"/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->attribute("v"), "a&b");
}

TEST(XmlParser, SkipsDoctype) {
  auto doc = parse("<!DOCTYPE pnml><pnml/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->name(), "pnml");
}

TEST(XmlParser, RejectsMismatchedTags) {
  auto doc = parse("<a><b></a></b>");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().code(), ErrorCode::kParseError);
}

TEST(XmlParser, RejectsUnterminatedElement) {
  EXPECT_FALSE(parse("<a><b>").ok());
}

TEST(XmlParser, RejectsContentAfterRoot) {
  EXPECT_FALSE(parse("<a/><b/>").ok());
}

TEST(XmlParser, RejectsUnknownEntity) {
  EXPECT_FALSE(parse("<a>&nope;</a>").ok());
}

TEST(XmlParser, RejectsMissingRoot) {
  EXPECT_FALSE(parse("   ").ok());
}

TEST(XmlParser, ErrorCarriesLineInformation) {
  auto doc = parse("<a>\n\n<b oops</b></a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.error().message().find("line 3"), std::string::npos);
}

// -- Diagnostics: the exact text, line and column of every error path -------

/// The message of the error `parse(input)` returns ("" when it parses).
[[nodiscard]] std::string parse_error(std::string_view input) {
  auto doc = parse(input);
  return doc.ok() ? std::string() : doc.error().message();
}

TEST(XmlErrors, DocumentLevelPositions) {
  EXPECT_EQ(parse_error("   "),
            "XML parse error at line 1, column 4: expected root element");
  EXPECT_EQ(parse_error("x"),
            "XML parse error at line 1, column 1: expected root element");
  EXPECT_EQ(parse_error("<a/><b/>"),
            "XML parse error at line 1, column 5: content after the root "
            "element");
  EXPECT_EQ(parse_error("<!-- open"),
            "XML parse error at line 1, column 10: expected root element");
  EXPECT_EQ(parse_error("<?xml version='1.0'"),
            "XML parse error at line 1, column 20: expected root element");
  EXPECT_EQ(parse_error("<!DOCTYPE x"),
            "XML parse error at line 1, column 12: expected root element");
}

TEST(XmlErrors, NamePositions) {
  EXPECT_EQ(parse_error("<1/>"),
            "XML parse error at line 1, column 2: expected a name");
  EXPECT_EQ(parse_error("<a 1='x'/>"),
            "XML parse error at line 1, column 4: expected a name");
  EXPECT_EQ(parse_error("<a></ >"),
            "XML parse error at line 1, column 6: expected a name");
}

TEST(XmlErrors, StartTagPositions) {
  EXPECT_EQ(parse_error("<a "),
            "XML parse error at line 1, column 4: unterminated start tag <a");
  EXPECT_EQ(parse_error("<a k/>"),
            "XML parse error at line 1, column 5: expected '=' after "
            "attribute name 'k'");
  EXPECT_EQ(parse_error("<a k=v/>"),
            "XML parse error at line 1, column 6: expected quoted attribute "
            "value");
  EXPECT_EQ(parse_error("<a k='v/>"),
            "XML parse error at line 1, column 10: unterminated attribute "
            "value");
  EXPECT_EQ(parse_error("<a k = \"v/>"),
            "XML parse error at line 1, column 12: unterminated attribute "
            "value");
}

TEST(XmlErrors, ContentPositions) {
  EXPECT_EQ(parse_error("<a>"),
            "XML parse error at line 1, column 4: missing end tag </a>");
  EXPECT_EQ(parse_error("<a>text"),
            "XML parse error at line 1, column 8: missing end tag </a>");
  EXPECT_EQ(parse_error("<a><![CDATA[x"),
            "XML parse error at line 1, column 14: missing end tag </a>");
  EXPECT_EQ(parse_error("<a><!-- x"),
            "XML parse error at line 1, column 10: missing end tag </a>");
  EXPECT_EQ(parse_error("<a></b>"),
            "XML parse error at line 1, column 7: mismatched end tag </b>, "
            "expected </a>");
  EXPECT_EQ(parse_error("<a></a x>"),
            "XML parse error at line 1, column 8: malformed end tag");
}

TEST(XmlErrors, NestingLimitPosition) {
  std::string doc;
  for (std::size_t i = 0; i < kMaxNestingDepth + 1; ++i) {
    doc += "<a>";
  }
  EXPECT_EQ(parse_error(doc),
            "XML parse error at line 1, column 601: element nesting deeper "
            "than 200 levels");
}

TEST(XmlErrors, LineAndColumnCountBytesAfterTheLastNewline) {
  EXPECT_EQ(parse_error("<a>\n\n<b oops</b></a>"),
            "XML parse error at line 3, column 8: expected '=' after "
            "attribute name 'oops'");
  // '\r' is an ordinary byte; '\t' counts one column.
  EXPECT_EQ(parse_error("<a>\r\n\t<b k>"),
            "XML parse error at line 2, column 6: expected '=' after "
            "attribute name 'k'");
  // Columns count bytes, not characters: U+00E9 is two.
  EXPECT_EQ(parse_error("<a>\xC3\xA9<b k>"),
            "XML parse error at line 1, column 10: expected '=' after "
            "attribute name 'k'");
  EXPECT_EQ(parse_error("<a>\n  <b>\n  </b>\n</c>"),
            "XML parse error at line 4, column 4: mismatched end tag </c>, "
            "expected </a>");
}

TEST(XmlErrors, EntityErrorsCarryNoPosition) {
  EXPECT_EQ(parse_error("<a>&nope;</a>"), "unknown entity &nope;");
  EXPECT_EQ(parse_error("<a k='&nope;'/>"), "unknown entity &nope;");
  EXPECT_EQ(parse_error("<a>&lt</a>"), "unterminated entity reference");
  EXPECT_EQ(parse_error("<a>&#zz;</a>"), "bad character reference &#zz;");
  EXPECT_EQ(parse_error("<a>&#0;</a>"), "character reference out of range");
  EXPECT_EQ(parse_error("<a>&#x110000;</a>"),
            "character reference out of range");
}

TEST(XmlErrors, RepeatedAttributeIsRejectedAtItsName) {
  // XML 1.0 §3.1: an attribute name appears at most once in a tag.
  EXPECT_EQ(parse_error("<a k='1' k='2'/>"),
            "XML parse error at line 1, column 10: duplicate attribute 'k' "
            "in <a>");
  EXPECT_EQ(parse_error("<r>\n  <task id=\"a\" name=\"x\"\n        id=\"b\"/></r>"),
            "XML parse error at line 3, column 9: duplicate attribute 'id' "
            "in <task>");
  // Same name, different prefixes: distinct attributes.
  EXPECT_EQ(parse_error("<a x:k='1' y:k='2' k='3'/>"), "");
}

TEST(XmlEntities, CharacterReferencesAreExactlyADigitRun) {
  for (const char* bad : {"&#65abc;", "&#+65;", "&# 65;", "&#-65;", "&#x41zz;",
                          "&#x 41;", "&#x+41;", "&#;", "&#x;", "&#6 5;",
                          "&#99999999999999999999999;"}) {
    auto r = decode_entities(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.error().message(),
              "bad character reference " + std::string(bad))
        << bad;
    EXPECT_EQ(parse_error(std::string("<a>") + bad + "</a>"),
              "bad character reference " + std::string(bad));
  }
}

TEST(XmlEntities, CharacterReferencesNameOnlyXmlChars) {
  // XML 1.0 §2.2 Char: #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD]
  // | [#x10000-#x10FFFF]. Surrogates would encode invalid UTF-8.
  for (const char* bad : {"&#0;", "&#1;", "&#x8;", "&#xB;", "&#xC;", "&#xE;",
                          "&#x1F;", "&#xD800;", "&#xDFFF;", "&#xFFFE;",
                          "&#xFFFF;", "&#x110000;", "&#4294967296;"}) {
    auto r = decode_entities(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.error().message(), "character reference out of range") << bad;
  }
  const std::pair<const char*, const char*> good[] = {
      {"&#9;", "\t"},
      {"&#xA;", "\n"},
      {"&#13;", "\r"},
      {"&#x20;", " "},
      {"&#065;", "A"},
      {"&#X41;", "A"},
      {"&#xD7FF;", "\xED\x9F\xBF"},
      {"&#xE000;", "\xEE\x80\x80"},
      {"&#xFFFD;", "\xEF\xBF\xBD"},
      {"&#x10000;", "\xF0\x90\x80\x80"},
      {"&#x10FFFF;", "\xF4\x8F\xBF\xBF"},
  };
  for (const auto& [reference, utf8] : good) {
    auto r = decode_entities(reference);
    ASSERT_TRUE(r.ok()) << reference;
    EXPECT_EQ(r.value(), utf8) << reference;
  }
}

TEST(XmlParser, TextWithoutReferencesIsKeptByteForByte) {
  auto doc = parse("<a>\n  x\t<b/> y &amp; z\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->text(), "\n  x\t y & z\n");
}

TEST(XmlDom, RequireAttributeReportsElement) {
  Element e("place");
  auto r = e.require_attribute("id");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message().find("place"), std::string::npos);
}

TEST(XmlDom, SetAttributeReplaces) {
  Element e("x");
  e.set_attribute("k", "1");
  e.set_attribute("k", "2");
  EXPECT_EQ(e.attributes().size(), 1u);
  EXPECT_EQ(e.attribute("k"), "2");
}

TEST(XmlDom, LabelTextReadsPnmlConvention) {
  auto doc = parse("<place><name><text> pst_T1 </text></name></place>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->label_text("name"), "pst_T1");
}

TEST(XmlDom, LabelTextFallsBackToDirectText) {
  auto doc = parse("<task><name>T1</name></task>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->label_text("name"), "T1");
}

TEST(XmlWriter, EscapesTextAndAttributes) {
  Element e("x");
  e.set_attribute("v", "a<b\"c&d");
  e.set_text("1 < 2 & 3");
  const std::string out = to_string(e);
  EXPECT_NE(out.find("a&lt;b&quot;c&amp;d"), std::string::npos);
  EXPECT_NE(out.find("1 &lt; 2 &amp; 3"), std::string::npos);
}

TEST(XmlWriter, SelfClosesEmptyElements) {
  Element e("empty");
  EXPECT_EQ(to_string(e), "<empty/>\n");
}

TEST(XmlWriter, CompactLeafForm) {
  Element e("name");
  e.set_text("T1");
  EXPECT_EQ(to_string(e), "<name>T1</name>\n");
}

TEST(XmlWriter, DocumentIncludesDeclaration) {
  Document doc;
  doc.root = std::make_unique<Element>("pnml");
  const std::string out = to_string(doc);
  EXPECT_EQ(out.rfind("<?xml version=\"1.0\"", 0), 0u);
}

TEST(XmlRoundTrip, StructurePreserved) {
  Document doc;
  doc.root = std::make_unique<Element>("net");
  doc.root->set_attribute("id", "n1");
  Element& p = doc.root->add_child("place");
  p.set_attribute("id", "p0");
  p.add_child("name").add_child("text").set_text("pstart");
  Element& t = doc.root->add_child("transition");
  t.set_attribute("id", "t0");

  auto reparsed = parse(to_string(doc));
  ASSERT_TRUE(reparsed.ok());
  const Element& root = *reparsed.value().root;
  EXPECT_EQ(root.name(), "net");
  EXPECT_EQ(root.attribute("id"), "n1");
  ASSERT_EQ(root.children().size(), 2u);
  EXPECT_EQ(root.find_child("place")->label_text("name"), "pstart");
}

TEST(XmlRoundTrip, SpecialCharactersSurvive) {
  Document doc;
  doc.root = std::make_unique<Element>("code");
  doc.root->set_text("while (a < b && c > d) { s = \"x\"; }");
  auto reparsed = parse(to_string(doc));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(std::string(trim(reparsed.value().root->text())),
            "while (a < b && c > d) { s = \"x\"; }");
}

TEST(XmlEntities, DecodeEntitiesDirect) {
  auto r = decode_entities("x &lt; y");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "x < y");
}

TEST(XmlEntities, RejectsUnterminated) {
  EXPECT_FALSE(decode_entities("a &lt b").ok());
}

TEST(XmlEntities, RejectsOutOfRangeCharRef) {
  EXPECT_FALSE(decode_entities("&#x110000;").ok());
  EXPECT_FALSE(decode_entities("&#0;").ok());
}

}  // namespace
}  // namespace ezrt::xml
