#include "rna/dot_bracket.hpp"

#include <gtest/gtest.h>

#include "rna/generators.hpp"

namespace srna {
namespace {

TEST(DotBracket, ParseSimpleHairpin) {
  const auto s = parse_dot_bracket("((...))");
  EXPECT_EQ(s.length(), 7);
  EXPECT_EQ(s.arc_count(), 2u);
  EXPECT_EQ(s.partner(0), 6);
  EXPECT_EQ(s.partner(1), 5);
  EXPECT_TRUE(s.is_nonpseudoknot());
}

TEST(DotBracket, ParseEmptyAndDotsOnly) {
  EXPECT_EQ(parse_dot_bracket("").length(), 0);
  const auto s = parse_dot_bracket("....");
  EXPECT_EQ(s.length(), 4);
  EXPECT_EQ(s.arc_count(), 0u);
}

TEST(DotBracket, AlternativeUnpairedCharacters) {
  const auto s = parse_dot_bracket("-(:)-");
  EXPECT_EQ(s.length(), 5);
  EXPECT_EQ(s.arc_count(), 1u);
  EXPECT_EQ(s.partner(1), 3);
}

TEST(DotBracket, ParsePseudoknotLevels) {
  // Classic H-type knot: ( [ ) ]
  const auto s = parse_dot_bracket("([)]");
  EXPECT_EQ(s.arc_count(), 2u);
  EXPECT_FALSE(s.is_nonpseudoknot());
}

TEST(DotBracket, ParseRejectsUnbalanced) {
  EXPECT_THROW(parse_dot_bracket("(("), std::invalid_argument);
  EXPECT_THROW(parse_dot_bracket("())"), std::invalid_argument);
  EXPECT_THROW(parse_dot_bracket("(]"), std::invalid_argument);
  EXPECT_THROW(parse_dot_bracket("]"), std::invalid_argument);
}

TEST(DotBracket, ParseRejectsUnknownCharacters) {
  EXPECT_THROW(parse_dot_bracket("(x)"), std::invalid_argument);
  EXPECT_THROW(parse_dot_bracket("( )"), std::invalid_argument);
}

TEST(DotBracket, SerializeSimple) {
  const auto s = SecondaryStructure::from_arcs(6, {{0, 5}, {1, 4}});
  EXPECT_EQ(to_dot_bracket(s), "((..))");
}

TEST(DotBracket, SerializePseudoknotUsesLevels) {
  const auto s = SecondaryStructure::from_arcs(4, {{0, 2}, {1, 3}});
  EXPECT_EQ(to_dot_bracket(s), "([)]");
}

TEST(DotBracket, RoundTripRandomStructures) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const auto original = random_structure(80, 0.35, seed);
    const auto text = to_dot_bracket(original);
    EXPECT_EQ(parse_dot_bracket(text), original) << "seed " << seed;
  }
}

TEST(DotBracket, RoundTripPseudoknots) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto original = pseudoknot_structure(40, seed);
    const auto text = to_dot_bracket(original);
    EXPECT_EQ(parse_dot_bracket(text), original) << "seed " << seed;
  }
}

TEST(DotBracket, EveryBracketKindBuildsTheSameStructureAsFromArcs) {
  const std::vector<Arc> arcs = {{1, 4}, {0, 5}, {6, 9}};
  const SecondaryStructure expected = SecondaryStructure::from_arcs(10, arcs);
  for (const char* text : {"((..))(..)", "[[..]][..]", "{{..}}{..}", "<<..>><..>",
                           "([..])(..)", "<{..}>[..]"})
    EXPECT_EQ(parse_dot_bracket(text), expected) << text;
}

TEST(DotBracket, RoundTripWorstCase) {
  const auto s = worst_case_structure(100);
  EXPECT_EQ(parse_dot_bracket(to_dot_bracket(s)), s);
}

}  // namespace
}  // namespace srna
