// Unit tests for src/xml: document model, writer, parser.
#include <gtest/gtest.h>

#include "util/error.h"
#include "xml/xml.h"

namespace p2p::xml {
namespace {

using util::ParseError;

TEST(XmlModelTest, AttributesSetAndGet) {
  Element e("root");
  e.set_attr("a", "1").set_attr("b", "2");
  EXPECT_EQ(e.attr("a"), "1");
  EXPECT_EQ(e.attr("b"), "2");
  EXPECT_FALSE(e.attr("missing").has_value());
  e.set_attr("a", "updated");
  EXPECT_EQ(e.attr("a"), "updated");
  EXPECT_EQ(e.attrs().size(), 2u);
}

TEST(XmlModelTest, ChildrenAndLookup) {
  Element e("root");
  e.add_text_child("name", "alpha");
  e.add_text_child("name", "beta");
  e.add_text_child("other", "x");
  ASSERT_NE(e.child("name"), nullptr);
  EXPECT_EQ(e.child("name")->text(), "alpha");
  EXPECT_EQ(e.children_named("name").size(), 2u);
  EXPECT_EQ(e.child_text("other"), "x");
  EXPECT_EQ(e.child_text("missing"), "");
  EXPECT_EQ(e.child("missing"), nullptr);
}

TEST(XmlModelTest, CloneIsDeepAndEqual) {
  Element e("root");
  e.set_attr("k", "v");
  e.add_text_child("c", "text").set_attr("ck", "cv");
  const Element copy = e.clone();
  EXPECT_TRUE(copy.equals(e));
}

TEST(XmlModelTest, EqualsDetectsDifferences) {
  Element a("root");
  a.add_text_child("c", "1");
  Element b("root");
  b.add_text_child("c", "2");
  EXPECT_FALSE(a.equals(b));
  Element c("other");
  EXPECT_FALSE(a.equals(c));
}

TEST(XmlWriteTest, EscapesSpecialCharacters) {
  Element e("t");
  e.set_attr("a", "x\"y<z>&'");
  e.set_text("a<b>&c");
  const std::string out = write(e);
  EXPECT_NE(out.find("&quot;"), std::string::npos);
  EXPECT_NE(out.find("&lt;b&gt;"), std::string::npos);
  EXPECT_NE(out.find("&amp;"), std::string::npos);
  EXPECT_EQ(out.find("<b>"), std::string::npos);
}

TEST(XmlWriteTest, EmptyElementSelfCloses) {
  EXPECT_NE(write(Element("empty")).find("<empty/>"), std::string::npos);
}

TEST(XmlParseTest, MinimalDocument) {
  const Element e = parse("<root/>");
  EXPECT_EQ(e.name(), "root");
  EXPECT_TRUE(e.children().empty());
  EXPECT_EQ(e.text(), "");
}

TEST(XmlParseTest, DeclarationAndWhitespace) {
  const Element e = parse("  <?xml version=\"1.0\"?>  \n <root>hi</root> ");
  EXPECT_EQ(e.name(), "root");
  EXPECT_EQ(e.text(), "hi");
}

TEST(XmlParseTest, AttributesBothQuoteStyles) {
  const Element e = parse(R"(<r a="1" b='2'/>)");
  EXPECT_EQ(e.attr("a"), "1");
  EXPECT_EQ(e.attr("b"), "2");
}

TEST(XmlParseTest, EntitiesInTextAndAttributes) {
  const Element e =
      parse(R"(<r a="&lt;&amp;&gt;&quot;&apos;">x &amp; y &#65;&#x42;</r>)");
  EXPECT_EQ(e.attr("a"), "<&>\"'");
  EXPECT_EQ(e.text(), "x & y AB");
}

TEST(XmlParseTest, NumericEntityUtf8) {
  const Element e = parse("<r>&#233;&#x20AC;</r>");  // é €
  EXPECT_EQ(e.text(), "\xc3\xa9\xe2\x82\xac");
}

TEST(XmlParseTest, CommentsSkipped) {
  const Element e =
      parse("<!-- hi --><root><!-- inner --><c/><!-- bye --></root>");
  EXPECT_EQ(e.children().size(), 1u);
}

TEST(XmlParseTest, NestedStructure) {
  const Element e = parse("<a><b><c>deep</c></b><b2/></a>");
  ASSERT_NE(e.child("b"), nullptr);
  ASSERT_NE(e.child("b")->child("c"), nullptr);
  EXPECT_EQ(e.child("b")->child("c")->text(), "deep");
  EXPECT_NE(e.child("b2"), nullptr);
}

struct BadXmlCase {
  const char* name;
  const char* text;
};

// Printed into each case's test name; the default prints the struct's raw
// bytes, pointers included, so the name would change every run.
void PrintTo(const BadXmlCase& c, std::ostream* os) { *os << c.name; }

class XmlParseErrorTest : public ::testing::TestWithParam<BadXmlCase> {};

TEST_P(XmlParseErrorTest, Throws) {
  EXPECT_THROW(parse(GetParam().text), ParseError) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, XmlParseErrorTest,
    ::testing::Values(
        BadXmlCase{"empty", ""}, BadXmlCase{"no_root", "   "},
        BadXmlCase{"mismatched", "<a></b>"},
        BadXmlCase{"unterminated", "<a>"},
        BadXmlCase{"unterminated_attr", "<a k=\"v>"},
        BadXmlCase{"bad_entity", "<a>&bogus;</a>"},
        BadXmlCase{"trailing", "<a/><b/>"},
        BadXmlCase{"duplicate_attr", "<a k=\"1\" k=\"2\"/>"},
        BadXmlCase{"lt_in_attr", "<a k=\"<\"/>"},
        BadXmlCase{"unterminated_comment", "<!-- <a/>"},
        BadXmlCase{"huge_charref", "<a>&#1114112;</a>"},
        BadXmlCase{"empty_charref", "<a>&#;</a>"}),
    [](const auto& info) { return std::string(info.param.name); });

// Property: write(parse(write(e))) is stable for a corpus of documents.
class XmlRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(XmlRoundTrip, ParseWriteStable) {
  const Element original = parse(GetParam());
  const std::string text1 = write(original);
  const Element reparsed = parse(text1);
  EXPECT_TRUE(reparsed.equals(original));
  EXPECT_EQ(write(reparsed), text1);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, XmlRoundTrip,
    ::testing::Values(
        "<r/>", "<r>plain text</r>", R"(<r a="1" b="two"/>)",
        "<r><a/><b/><c/></r>",
        R"(<adv t="jxta:Pipe"><Id>urn:jxta:pipe:00ff</Id><Name>Ski</Name></adv>)",
        "<r>mixed &amp; escaped &lt;text&gt;</r>",
        R"(<deep><l1><l2><l3 k="v">x</l3></l2></l1></deep>)"));

TEST(XmlWriteTest, PrettyPrintingParses) {
  Element e("root");
  e.add_text_child("a", "1");
  e.add_child("b").add_text_child("c", "2");
  const std::string pretty = write(e, /*compact=*/false);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_TRUE(parse(pretty).equals(e));
}

}  // namespace
}  // namespace p2p::xml
