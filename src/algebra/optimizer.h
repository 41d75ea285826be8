/// \file optimizer.h
/// \brief Conversion of broadcast-file conditions to minimum-density *nice*
/// pinwheel conjuncts (paper, Section 4.2).
///
/// The Chan & Chin style schedulers accept only nice conjuncts (one
/// condition per task, Definition 1), so a generalized broadcast file
/// bc(i, m, d⃗) — equivalent to the non-nice conjunct ∧_j pc(i, m+j, d^(j))
/// — must be *converted*: replaced by a nice conjunct that implies it, at
/// the smallest density increase we can find. The paper conjectures optimal
/// conversion is NP-hard and gives heuristics; this module implements them:
///
///  * TR1        — one single-unit condition covering every fault level;
///  * TR2        — base pc(m, d0) plus one unit helper per fault level;
///  * R-chain    — TR2 improved by the algebra rules R0-R5: the base is
///                 R1-reduced or R3-strengthened, dominated levels are
///                 dropped (R0), and each remaining level is covered by the
///                 cheaper of an R4 helper and an R5 helper (Example 4);
///  * single     — one condition pc(a, b) with a > 1 implying every level
///                 (Examples 5 and 6, where it reaches the density lower
///                 bound).
///
/// Convert() evaluates all candidates and returns them with the best marked.

#ifndef BDISK_ALGEBRA_OPTIMIZER_H_
#define BDISK_ALGEBRA_OPTIMIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/condition.h"
#include "algebra/rules.h"
#include "common/status.h"
#include "pinwheel/task.h"

namespace bdisk::algebra {

/// \brief One candidate nice conjunct for a broadcast condition.
struct ConversionCandidate {
  /// Strategy that produced it: "TR1", "TR2", "R-chain", "single".
  std::string strategy;
  MappedConjunct conjunct;

  double density() const { return conjunct.density(); }
};

/// \brief Result of converting one broadcast condition.
struct Conversion {
  BroadcastCondition bc;
  /// max_j (m+j)/d^(j); no implying nice conjunct can be less dense.
  double density_lower_bound = 0.0;
  std::vector<ConversionCandidate> candidates;
  std::size_t best_index = 0;

  const ConversionCandidate& best() const { return candidates[best_index]; }

  /// best density / lower bound (>= 1; 1 means provably optimal).
  double OverheadRatio() const {
    return best().density() / density_lower_bound;
  }
};

/// \brief The conversion engine.
class NiceConverter {
 public:
  /// Converts one broadcast condition. Fails only on invalid input.
  static Result<Conversion> Convert(const BroadcastCondition& bc);
};

/// \brief A whole broadcast-disk system lowered to one nice pinwheel
/// instance plus the virtual-task → file mapping (map(i', i) semantics).
struct SystemConversion {
  /// The nice instance; task ids are dense virtual ids.
  pinwheel::Instance instance;
  /// virtual_to_file[v] = index of the file condition task v serves.
  std::vector<std::uint32_t> virtual_to_file;
  /// Per-file conversion details, aligned with the input order.
  std::vector<Conversion> conversions;

  /// Sum of the chosen conjunct densities.
  double total_density() const;
};

/// \brief Converts a set of broadcast conditions into one nice instance.
Result<SystemConversion> ConvertSystem(
    const std::vector<BroadcastCondition>& conditions);

}  // namespace bdisk::algebra

#endif  // BDISK_ALGEBRA_OPTIMIZER_H_
