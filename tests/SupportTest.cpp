//===-- tests/SupportTest.cpp - support library unit tests ----------------===//

#include "support/Diagnostics.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace gpuc;

TEST(StrFormat, Basic) {
  EXPECT_EQ(strFormat("x=%d", 42), "x=42");
  EXPECT_EQ(strFormat("%s-%s", "a", "b"), "a-b");
  EXPECT_EQ(strFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(strFormat("empty"), "empty");
}

TEST(StrFormat, LongOutput) {
  std::string Long(500, 'x');
  EXPECT_EQ(strFormat("%s", Long.c_str()).size(), 500u);
}

TEST(SplitString, KeepsEmptyFields) {
  auto Parts = splitString("a,,b", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[1], "");
  EXPECT_EQ(Parts[2], "b");
}

TEST(SplitString, NoSeparator) {
  auto Parts = splitString("abc", ',');
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_EQ(Parts[0], "abc");
}

TEST(TrimString, Whitespace) {
  EXPECT_EQ(trimString("  a b  "), "a b");
  EXPECT_EQ(trimString("\t\n"), "");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("x"), "x");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(startsWith("#pragma gpuc x", "#pragma gpuc"));
  EXPECT_FALSE(startsWith("abc", "abcd"));
  EXPECT_TRUE(startsWith("abc", ""));
}

TEST(JsonEscape, Quote) {
  EXPECT_EQ(jsonEscape("q\"dir"), "q\\\"dir");
}

TEST(JsonEscape, Backslash) {
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, ControlCharacters) {
  EXPECT_EQ(jsonEscape("a\nb\tc\x01"), "a\\nb\\tc\\u0001");
  EXPECT_EQ(jsonEscape("plain /path"), "plain /path");
}

TEST(CountCodeLines, SkipsBracesCommentsAndPragmas) {
  std::string Src = "#pragma gpuc output(c)\n"
                    "__global__ void f() {\n"
                    "  float x = 0;\n"
                    "  // comment\n"
                    "\n"
                    "  x = 1;\n"
                    "}\n";
  // signature line + 2 statements
  EXPECT_EQ(countCodeLines(Src), 3);
}

TEST(Diagnostics, ErrorsAndRendering) {
  DiagnosticsEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.warning(SourceLocation(1, 2), "watch out");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLocation(3, 4), "boom");
  D.note(SourceLocation(), "context");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  std::string S = D.str();
  EXPECT_NE(S.find("1:2: warning: watch out"), std::string::npos);
  EXPECT_NE(S.find("3:4: error: boom"), std::string::npos);
  EXPECT_NE(S.find("note: context"), std::string::npos);
  D.clear();
  EXPECT_FALSE(D.hasErrors());
  EXPECT_TRUE(D.diagnostics().empty());
}
