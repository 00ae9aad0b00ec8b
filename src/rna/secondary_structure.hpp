// Arc-annotated RNA secondary structures.
//
// A SecondaryStructure is a sequence length n plus a set of arcs over
// positions {0..n-1}. The representation enforces the "each base bonds at
// most once" rule at construction (a partner table would otherwise be
// ill-defined); crossing arcs (pseudoknots) are representable so they can be
// detected and reported, but the MCOS algorithms require — and check — the
// non-pseudoknot restriction.
//
// Two access paths matter for the DP algorithms:
//   * arcs sorted by increasing right endpoint — the traversal order of
//     SRNA1/SRNA2 stage one ("by increasing order of j");
//   * O(1) partner lookup — the recurrence's dynamic case asks "is there an
//     arc (k, j) ending at this position?" once per tabulated cell.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rna/arc.hpp"

namespace srna {

struct ValidationIssue {
  enum class Kind {
    kEndpointOrder,    // arc with left >= right
    kOutOfRange,       // endpoint outside [0, n)
    kDuplicateArc,     // identical arc listed twice
    kSharedEndpoint,   // two arcs touching the same base
    kCrossing,         // pseudoknot: arcs interleave
  };
  Kind kind;
  Arc a;
  Arc b;  // second arc for pairwise issues; equal to `a` otherwise

  [[nodiscard]] std::string to_string() const;
};

struct ValidationReport {
  std::vector<ValidationIssue> issues;

  // True when the arc set is a well-formed structure in the paper's model
  // (possibly pseudoknotted).
  [[nodiscard]] bool well_formed() const noexcept;
  // True when additionally no arcs cross.
  [[nodiscard]] bool nonpseudoknot() const noexcept;
  [[nodiscard]] std::size_t count(ValidationIssue::Kind kind) const noexcept;
};

// Full validation of an arbitrary arc list (pairwise checks are reported
// exhaustively; crossing detection is O(a log a + issues) via a stack scan
// when endpoints are unique, O(a^2) otherwise).
ValidationReport validate_arcs(Pos n, std::span<const Arc> arcs);

class SecondaryStructure {
 public:
  // Empty structure of length n (no arcs).
  explicit SecondaryStructure(Pos n = 0);

  // Builds a structure from an arc list. Throws std::invalid_argument if any
  // arc is malformed (left >= right, out of range) or two arcs share an
  // endpoint. Crossing arcs are accepted; query is_nonpseudoknot().
  static SecondaryStructure from_arcs(Pos n, std::vector<Arc> arcs);

  [[nodiscard]] Pos length() const noexcept { return n_; }
  [[nodiscard]] std::size_t arc_count() const noexcept { return arcs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return arcs_.empty(); }

  // Arcs sorted by increasing right endpoint (ties impossible: endpoints are
  // unique). This is the canonical traversal order of the SRNA algorithms.
  [[nodiscard]] const std::vector<Arc>& arcs_by_right() const noexcept { return arcs_; }

  // Partner of position i, or -1 if unpaired.
  [[nodiscard]] Pos partner(Pos i) const noexcept {
    return partner_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] bool paired(Pos i) const noexcept { return partner(i) >= 0; }

  // Left endpoint k of the arc (k, j) ending at j, or -1 if j is unpaired or
  // is itself a left endpoint. This is the recurrence's dynamic-case probe.
  [[nodiscard]] Pos arc_left_of(Pos j) const noexcept {
    const Pos p = partner(j);
    return (p >= 0 && p < j) ? p : Pos{-1};
  }

  // Right endpoint of the arc starting at i, or -1.
  [[nodiscard]] Pos arc_right_of(Pos i) const noexcept {
    const Pos p = partner(i);
    return (p > i) ? p : Pos{-1};
  }

  // Arcs fully contained in [lo, hi], sorted by increasing right endpoint.
  [[nodiscard]] std::vector<Arc> arcs_within(Pos lo, Pos hi) const;

  // Count of arcs fully contained in [lo, hi] (no allocation).
  [[nodiscard]] std::size_t count_arcs_within(Pos lo, Pos hi) const noexcept;

  // True when no two arcs cross (computed once at construction).
  [[nodiscard]] bool is_nonpseudoknot() const noexcept { return nonpseudoknot_; }

  // Maximum arc nesting depth (0 for an arc-free structure).
  [[nodiscard]] Pos max_nesting_depth() const noexcept;

  friend bool operator==(const SecondaryStructure&, const SecondaryStructure&) = default;

 private:
  // The parser builds single-bracket-kind structures directly: its scan
  // already guarantees everything from_arcs would check.
  friend SecondaryStructure parse_dot_bracket(std::string_view text);

  Pos n_ = 0;
  std::vector<Arc> arcs_;      // sorted by right endpoint
  std::vector<Pos> partner_;   // -1 = unpaired
  bool nonpseudoknot_ = true;
};

}  // namespace srna
