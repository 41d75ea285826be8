/// \file chain_schedulers.h
/// \brief The specialization-based pinwheel schedulers.
///
/// * SaScheduler — Holte et al. [19]: specialize windows to powers of two.
///   Guaranteed for any instance of density <= 1/2.
/// * SxScheduler — single-integer reduction (Chan & Chin [13] style):
///   specialize windows to one geometric chain {x * 2^j}, searching all
///   useful bases x. Subsumes Sa (x = 1 is always a candidate).
/// * SxyScheduler — double-integer-reduction style (Chan & Chin [12]):
///   specialize windows to 3-smooth multiples {x * 2^j * 3^k} of a base x.
///   Richer window sets lose less density to rounding; allocation on the
///   resulting non-chain periods is best-effort, and the result is verified.
///
/// Each task (a, b) is realized by whichever of two sound encodings is
/// denser-friendly for it:
///   unit:   one residue class of period  spec(floor(b / a))   (rule R3), or
///   spread: a residue classes of period  spec(b),
/// where spec() rounds down into the scheduler's window set. Both encodings
/// guarantee at least `a` slots in every window of `b` consecutive slots;
/// `spread` additionally spaces the slots evenly, which the broadcast-disk
/// layer prefers (it minimizes the paper's inter-block gap Delta).

#ifndef BDISK_PINWHEEL_CHAIN_SCHEDULERS_H_
#define BDISK_PINWHEEL_CHAIN_SCHEDULERS_H_

#include <cstdint>
#include <string>

#include "pinwheel/scheduler.h"

namespace bdisk::pinwheel {

/// \brief Sa: power-of-two specialization. Guaranteed density 1/2.
class SaScheduler : public Scheduler {
 public:
  std::string name() const override { return "Sa"; }
  double guaranteed_density() const override { return 0.5; }
  Result<Schedule> BuildSchedule(const Instance& instance) const override;
};

/// \brief Sx: single-chain specialization {x * 2^j} with base search.
class SxScheduler : public Scheduler {
 public:
  std::string name() const override { return "Sx"; }
  /// Subsumes Sa, so inherits its 1/2 guarantee; empirically schedules most
  /// instances up to ~0.65 (bench_scheduler_density quantifies this).
  double guaranteed_density() const override { return 0.5; }
  Result<Schedule> BuildSchedule(const Instance& instance) const override;
};

/// \brief Sxy: 3-smooth specialization {x * 2^j * 3^k} with base search.
class SxyScheduler : public Scheduler {
 public:
  std::string name() const override { return "Sxy"; }
  /// Subsumes Sa; empirically schedules most instances up to ~0.7-0.8
  /// (bench_scheduler_density), in line with Chan & Chin's 7/10 analysis.
  double guaranteed_density() const override { return 0.5; }
  Result<Schedule> BuildSchedule(const Instance& instance) const override;
};

}  // namespace bdisk::pinwheel

#endif  // BDISK_PINWHEEL_CHAIN_SCHEDULERS_H_
