// Tests for string helpers.

#include "common/string_util.h"

#include <gtest/gtest.h>

namespace fairidx {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, NoDelimiterYieldsWholeString) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("hello"), "hello");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"one"}, ","), "one");
}

TEST(ToLowerTest, LowersAsciiOnly) {
  EXPECT_EQ(ToLower("HeLLo123"), "hello123");
}

TEST(ParseDoubleTest, ParsesValidInputs) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble(" -1e3 ").value(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("0").value(), 0.0);
}

TEST(ParseDoubleTest, RejectsMalformedInputs) {
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.2x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("  ").ok());
  // Non-finite values and overflow: strtod accepts all of these.
  EXPECT_FALSE(ParseDouble("nan").ok());
  EXPECT_FALSE(ParseDouble("NaN").ok());
  EXPECT_FALSE(ParseDouble("inf").ok());
  EXPECT_FALSE(ParseDouble("-infinity").ok());
  EXPECT_FALSE(ParseDouble("1e999").ok());
  EXPECT_FALSE(ParseDouble("-1e999").ok());
}

TEST(ParseIntTest, ParsesValidInputs) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt(" -7 ").value(), -7);
}

TEST(ParseIntTest, RejectsMalformedInputs) {
  EXPECT_FALSE(ParseInt("4.2").ok());
  EXPECT_FALSE(ParseInt("x").ok());
  EXPECT_FALSE(ParseInt("").ok());
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("no args"), "no args");
}

TEST(StrFormatTest, HandlesLongOutput) {
  const std::string long_out = StrFormat("%0120d", 7);
  EXPECT_EQ(long_out.size(), 120u);
}

}  // namespace
}  // namespace fairidx
