#include "rna/dot_bracket.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <vector>

namespace srna {

namespace {

constexpr std::array<char, 4> kOpen = {'(', '[', '{', '<'};
constexpr std::array<char, 4> kClose = {')', ']', '}', '>'};

int open_level(char c) {
  for (std::size_t i = 0; i < kOpen.size(); ++i)
    if (kOpen[i] == c) return static_cast<int>(i);
  return -1;
}

int close_level(char c) {
  for (std::size_t i = 0; i < kClose.size(); ++i)
    if (kClose[i] == c) return static_cast<int>(i);
  return -1;
}

}  // namespace

SecondaryStructure parse_dot_bracket(std::string_view text) {
  std::vector<Arc> arcs;
  arcs.reserve(text.size() / 2);
  std::array<std::vector<Pos>, 4> stacks;
  stacks[0].reserve(text.size() / 2);
  unsigned levels_used = 0;  // bit per bracket kind seen

  Pos i = 0;
  for (char c : text) {
    if (c == '.' || c == '-' || c == ':') {
      ++i;
      continue;
    }
    if (int level = open_level(c); level >= 0) {
      stacks[static_cast<std::size_t>(level)].push_back(i++);
      levels_used |= 1u << level;
      continue;
    }
    if (int level = close_level(c); level >= 0) {
      auto& stack = stacks[static_cast<std::size_t>(level)];
      if (stack.empty())
        throw std::invalid_argument("unbalanced dot-bracket: unmatched '" + std::string(1, c) +
                                    "' at position " + std::to_string(i));
      arcs.push_back(Arc{stack.back(), i++});
      stack.pop_back();
      continue;
    }
    throw std::invalid_argument("unexpected character '" + std::string(1, c) +
                                "' in dot-bracket string");
  }
  for (const auto& stack : stacks)
    if (!stack.empty())
      throw std::invalid_argument("unbalanced dot-bracket: " + std::to_string(stack.size()) +
                                  " unclosed bracket(s)");
  if (std::popcount(levels_used) > 1) return SecondaryStructure::from_arcs(i, std::move(arcs));

  // One bracket kind: the arcs nest. They close in increasing position, so
  // they are already sorted by right endpoint, and the scan above made every
  // endpoint distinct and in range — none of from_arcs's validation can fail.
  SecondaryStructure s(i);
  for (const Arc& a : arcs) {
    s.partner_[static_cast<std::size_t>(a.left)] = a.right;
    s.partner_[static_cast<std::size_t>(a.right)] = a.left;
  }
  s.arcs_ = std::move(arcs);
  return s;
}

std::string to_dot_bracket(const SecondaryStructure& s) {
  std::string out(static_cast<std::size_t>(s.length()), '.');

  // Greedy layering: assign each arc (in left-endpoint order) the lowest
  // bracket level whose previously assigned arcs it does not cross. For a
  // non-pseudoknot structure everything lands on level 0.
  std::vector<Arc> arcs = s.arcs_by_right();
  std::sort(arcs.begin(), arcs.end());
  std::array<std::vector<Arc>, 4> levels;
  for (const Arc& a : arcs) {
    bool placed = false;
    for (std::size_t level = 0; level < levels.size() && !placed; ++level) {
      bool crosses = false;
      for (const Arc& other : levels[level]) {
        if (a.crosses(other)) {
          crosses = true;
          break;
        }
      }
      if (!crosses) {
        levels[level].push_back(a);
        out[static_cast<std::size_t>(a.left)] = kOpen[level];
        out[static_cast<std::size_t>(a.right)] = kClose[level];
        placed = true;
      }
    }
    if (!placed)
      throw std::invalid_argument("structure needs more than four crossing levels");
  }
  return out;
}

}  // namespace srna
