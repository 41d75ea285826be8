#include "algebra/optimizer.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/check.h"
#include "common/stats.h"

namespace bdisk::algebra {

namespace {

/// Levels of the equivalent conjunct with R0-dominated entries removed:
/// level j is dropped when another retained level k implies it.
std::vector<PinwheelCondition> EffectiveLevels(const BroadcastCondition& bc) {
  const std::vector<PinwheelCondition> all = bc.ToPinwheelConjunct();
  std::vector<PinwheelCondition> kept;
  for (std::size_t j = 0; j < all.size(); ++j) {
    bool dominated = false;
    for (std::size_t k = 0; k < all.size(); ++k) {
      if (k == j) continue;
      // Strict dominance ordering to avoid dropping both of an equal pair:
      // prefer the later (stronger requirement) level on ties.
      if (Implies(all[k], all[j]) && !(Implies(all[j], all[k]) && j > k)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(all[j]);
  }
  return kept;
}

std::vector<PinwheelCondition> RawConditions(const MappedConjunct& conjunct) {
  std::vector<PinwheelCondition> out;
  out.reserve(conjunct.conditions.size());
  for (const MappedCondition& mc : conjunct.conditions) {
    out.push_back(mc.condition);
  }
  return out;
}

/// True iff the conjunct provably covers every level.
bool ConjunctCovers(const MappedConjunct& conjunct,
                    const std::vector<PinwheelCondition>& levels) {
  const std::vector<PinwheelCondition> raw = RawConditions(conjunct);
  for (const PinwheelCondition& level : levels) {
    if (ConjunctGuaranteedCount(raw, level.b) < level.a) return false;
  }
  return true;
}

MappedConjunct SingleConditionConjunct(const PinwheelCondition& c) {
  MappedConjunct out;
  out.conditions.push_back(MappedCondition{0, c, false});
  return out;
}

/// Candidate "TR1": one single-unit condition.
std::optional<ConversionCandidate> MakeTr1(const BroadcastCondition& bc) {
  Result<PinwheelCondition> r = RuleTR1(bc);
  if (!r.ok()) return std::nullopt;
  return ConversionCandidate{"TR1", SingleConditionConjunct(*r)};
}

/// Candidate "TR2": base plus one unit helper per fault level.
std::optional<ConversionCandidate> MakeTr2(const BroadcastCondition& bc) {
  Result<MappedConjunct> r = RuleTR2(bc);
  if (!r.ok()) return std::nullopt;
  return ConversionCandidate{"TR2", std::move(*r)};
}

/// Candidate "R-chain": base variant plus cheapest-of-R4/R5 helpers per
/// uncovered level (see header).
std::vector<ConversionCandidate> MakeRChains(
    const std::vector<PinwheelCondition>& levels) {
  std::vector<ConversionCandidate> out;
  const PinwheelCondition level0 = levels.front();

  std::vector<PinwheelCondition> base_variants;
  base_variants.push_back(level0);
  const std::uint64_t g = Gcd(level0.a, level0.b);
  if (g > 1) {
    base_variants.push_back(PinwheelCondition{level0.a / g, level0.b / g});
  }
  const PinwheelCondition r3 = RuleR3(level0);
  if (r3.b >= 1) base_variants.push_back(r3);

  for (const PinwheelCondition& base : base_variants) {
    if (!Implies(base, level0)) continue;
    MappedConjunct conjunct;
    conjunct.conditions.push_back(MappedCondition{0, base, false});
    std::uint32_t next_virtual = 1;
    bool ok = true;

    for (std::size_t j = 1; j < levels.size(); ++j) {
      const PinwheelCondition& level = levels[j];
      const std::uint64_t covered =
          ConjunctGuaranteedCount(RawConditions(conjunct), level.b);
      if (covered >= level.a) continue;

      // Option A (R4): helper of window d^(j) supplying the shortfall.
      const PinwheelCondition r4_helper{level.a - covered, level.b};

      // Option B (R5): base-only helper pc(x, n*b), x = n*b - d^(j).
      std::optional<PinwheelCondition> r5_helper;
      const std::uint64_t n = (level.a + base.a - 1) / base.a;
      if (n >= 1 && base.b <= std::numeric_limits<std::uint64_t>::max() / n) {
        const std::uint64_t nb = n * base.b;
        if (nb > level.b) {
          const std::uint64_t x = nb - level.b;
          if (x < nb && n * base.a >= level.a) {
            r5_helper = PinwheelCondition{x, nb};
          }
        } else if (n * base.a >= level.a) {
          // R1 alone: base implies (n*a, n*b) which implies the level.
          continue;
        }
      }

      PinwheelCondition chosen = r4_helper;
      if (r5_helper.has_value() &&
          r5_helper->density() < r4_helper.density()) {
        // R5's implied condition pc(n*a, d^(j)) must re-cover what the R4
        // accounting assumed; it covers the level on its own by
        // construction, so it is always admissible here.
        chosen = *r5_helper;
      }
      if (chosen.a == 0 || chosen.a > chosen.b) {
        ok = false;
        break;
      }
      conjunct.conditions.push_back(
          MappedCondition{next_virtual++, chosen, true});
    }
    if (!ok) continue;
    if (!ConjunctCovers(conjunct, levels)) continue;
    out.push_back(ConversionCandidate{"R-chain", std::move(conjunct)});
  }
  return out;
}

/// Candidate "single": one condition pc(a, b), a possibly > 1, implying all
/// levels; for each a the largest admissible b is found by binary search
/// plus a downward verification scan.
std::optional<ConversionCandidate> MakeSingle(
    const std::vector<PinwheelCondition>& levels, std::uint64_t max_a) {
  std::uint64_t max_window = 0;
  for (const PinwheelCondition& level : levels) {
    max_window = std::max(max_window, level.b);
  }
  std::optional<PinwheelCondition> best;
  for (std::uint64_t a = 1; a <= max_a; ++a) {
    const auto covers_all = [&levels, a](std::uint64_t b) {
      const PinwheelCondition c{a, b};
      for (const PinwheelCondition& level : levels) {
        if (!Implies(c, level)) return false;
      }
      return true;
    };
    // The guarantee is monotone non-increasing in b for the windows we care
    // about, so binary search for the largest covering b; a final check
    // guards against local non-monotonicity of the bound.
    std::uint64_t lo = a;
    std::uint64_t hi = max_window;
    if (!covers_all(lo)) continue;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo + 1) / 2;
      if (covers_all(mid)) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    BDISK_DCHECK(covers_all(lo));
    const PinwheelCondition c{a, lo};
    if (!best.has_value() || c.density() < best->density()) best = c;
  }
  if (!best.has_value()) return std::nullopt;
  return ConversionCandidate{"single", SingleConditionConjunct(*best)};
}

}  // namespace

double SystemConversion::total_density() const {
  double s = 0.0;
  for (const Conversion& c : conversions) s += c.best().density();
  return s;
}

Result<Conversion> NiceConverter::Convert(const BroadcastCondition& bc) {
  BDISK_RETURN_NOT_OK(bc.Validate());
  Conversion out;
  out.bc = bc;
  out.density_lower_bound = bc.DensityLowerBound();

  const std::vector<PinwheelCondition> levels = EffectiveLevels(bc);

  if (auto c = MakeTr1(bc)) out.candidates.push_back(std::move(*c));
  if (auto c = MakeTr2(bc)) out.candidates.push_back(std::move(*c));
  for (ConversionCandidate& c : MakeRChains(levels)) {
    out.candidates.push_back(std::move(c));
  }
  // Cap on the requirement `a` the single-condition search tries.
  const std::uint64_t max_a =
      std::min<std::uint64_t>(4 * (bc.m + bc.fault_tolerance()) + 8, 512);
  if (auto c = MakeSingle(levels, max_a)) out.candidates.push_back(std::move(*c));

  if (out.candidates.empty()) {
    return Status::Infeasible("NiceConverter: no candidate conversion for " +
                              bc.ToString());
  }
  // Minimum density; ties broken toward fewer conditions (fewer virtual
  // tasks burden the scheduler less).
  out.best_index = 0;
  for (std::size_t i = 1; i < out.candidates.size(); ++i) {
    const ConversionCandidate& cur = out.candidates[i];
    const ConversionCandidate& best = out.candidates[out.best_index];
    const double delta = cur.density() - best.density();
    if (delta < -1e-12 ||
        (delta <= 1e-12 && cur.conjunct.conditions.size() <
                               best.conjunct.conditions.size())) {
      out.best_index = i;
    }
  }
  return out;
}

Result<SystemConversion> ConvertSystem(
    const std::vector<BroadcastCondition>& conditions) {
  if (conditions.empty()) {
    return Status::InvalidArgument("ConvertSystem: no broadcast conditions");
  }
  std::vector<pinwheel::Task> tasks;
  std::vector<std::uint32_t> virtual_to_file;
  std::vector<Conversion> conversions;
  for (std::size_t f = 0; f < conditions.size(); ++f) {
    BDISK_ASSIGN_OR_RETURN(Conversion conv,
                           NiceConverter::Convert(conditions[f]));
    for (const MappedCondition& mc : conv.best().conjunct.conditions) {
      const auto vid = static_cast<pinwheel::TaskId>(tasks.size());
      tasks.push_back(
          pinwheel::Task{vid, mc.condition.a, mc.condition.b});
      virtual_to_file.push_back(static_cast<std::uint32_t>(f));
    }
    conversions.push_back(std::move(conv));
  }
  BDISK_ASSIGN_OR_RETURN(pinwheel::Instance instance,
                         pinwheel::Instance::Create(std::move(tasks)));
  return SystemConversion{std::move(instance), std::move(virtual_to_file),
                          std::move(conversions)};
}

}  // namespace bdisk::algebra
