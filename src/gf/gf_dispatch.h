/// \file gf_dispatch.h
/// \brief Runtime CPU dispatch for the bulk GF(2^8) kernels.
///
/// The binary carries every kernel implementation it was compiled with
/// (generic always; SSSE3, AVX2 and GFNI on x86-64 via per-file -mssse3,
/// -mavx2 and -mavx512f -mavx512bw -mgfni, so no global -march is needed
/// and the binary stays portable; NEON on AArch64). At first use, Dispatch
/// probes the CPU once and selects the fastest implementation the hardware
/// supports: gfni needs GFNI, AVX512F and AVX512BW. All implementations are
/// byte-identical by construction — GF(2^8) algebra is exact — so the
/// choice affects throughput only, never output.
///
/// The environment variable BDISK_GF_IMPL=generic|ssse3|avx2|gfni|neon
/// overrides the probe (read once, before the first kernel call). An
/// unknown or unsupported value falls back to the probed best with a
/// one-time warning on stderr, so a stale setting can never produce wrong
/// results or a crash. CI runs the full test suite once per implementation
/// through this override.

#ifndef BDISK_GF_GF_DISPATCH_H_
#define BDISK_GF_GF_DISPATCH_H_

#include <string_view>
#include <vector>

#include "gf/gf_kernels.h"

namespace bdisk::gf {

/// \brief Process-wide kernel selection. All methods are thread-safe; the
/// selection is made once and never changes afterwards.
class Dispatch {
 public:
  /// The selected implementation (probe result or BDISK_GF_IMPL override).
  static const internal::KernelTable& Active();

  /// Name of the selected implementation ("generic", "ssse3", ...).
  static const char* ActiveName() { return Active().name; }

  /// The named implementation, or nullptr if this binary/CPU cannot run it
  /// (unknown name, compiled out, or missing the CPU feature).
  static const internal::KernelTable* ByName(std::string_view name);

  /// Every implementation this host can execute, ordered slowest first
  /// ("generic" is always present and first; the probed best is last).
  static const std::vector<const internal::KernelTable*>& Supported();
};

}  // namespace bdisk::gf

#endif  // BDISK_GF_GF_DISPATCH_H_
