#include "util/string_utils.hpp"

#include <gtest/gtest.h>

namespace apt::util {
namespace {

TEST(Split, BasicAndEmptySegments) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Trim, StripsAsciiWhitespace) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\na b\r "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(ToLower, Ascii) {
  EXPECT_EQ(to_lower("CpU-FpGa_42"), "cpu-fpga_42");
}

TEST(Affixes, StartsEndsWith) {
  EXPECT_TRUE(starts_with("--policy", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
  EXPECT_TRUE(ends_with("graph.dot", ".dot"));
  EXPECT_FALSE(ends_with("dot", ".dot"));
}

TEST(EditDistance, CountsSingleCharacterEdits) {
  EXPECT_EQ(edit_distance("policy", "policy"), 0u);
  EXPECT_EQ(edit_distance("polcy", "policy"), 1u);  // insertion
  EXPECT_EQ(edit_distance("policies", "policy"), 3u);
  EXPECT_EQ(edit_distance("ag", "ga"), 2u);  // no transpositions
  EXPECT_EQ(edit_distance("", "met"), 3u);
  EXPECT_EQ(edit_distance("spn", ""), 3u);
}

TEST(ClosestMatch, SuggestsOnlyNearCandidates) {
  const std::vector<std::string> names = {"--policy", "--policies", "--gantt"};
  EXPECT_EQ(closest_match("--polcy", names), 0u);
  EXPECT_EQ(closest_match("--policie", names), 1u);
  EXPECT_EQ(closest_match("--gant", names), 2u);
  EXPECT_EQ(closest_match("--hedging", names), names.size());  // too far
  EXPECT_EQ(closest_match("ab", {"aa", "bb"}), 0u);  // first of equals
  EXPECT_EQ(closest_match("met", {}), 0u);
}

TEST(Join, WithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
  EXPECT_EQ(format_double(318.0930001, 3), "318.093");
}

TEST(FormatDouble, RejectsBadPrecision) {
  EXPECT_THROW(format_double(1.0, -1), std::invalid_argument);
  EXPECT_THROW(format_double(1.0, 99), std::invalid_argument);
}

TEST(ParseDouble, StrictFullString) {
  EXPECT_DOUBLE_EQ(parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("  -1e3 "), -1000.0);
  EXPECT_THROW(parse_double("2.5x"), std::invalid_argument);
  EXPECT_THROW(parse_double(""), std::invalid_argument);
  EXPECT_THROW(parse_double("abc"), std::invalid_argument);
}

TEST(ParseInt, StrictFullString) {
  EXPECT_EQ(parse_int("-42"), -42);
  EXPECT_EQ(parse_int(" 7 "), 7);
  EXPECT_THROW(parse_int("7.5"), std::invalid_argument);
  EXPECT_THROW(parse_int(""), std::invalid_argument);
}

TEST(ParseUint, RejectsNegativeAndGarbage) {
  EXPECT_EQ(parse_uint("64000000"), 64000000u);
  EXPECT_THROW(parse_uint("-1"), std::invalid_argument);
  EXPECT_THROW(parse_uint("12ab"), std::invalid_argument);
}

}  // namespace
}  // namespace apt::util
