/// \file delay_analysis.h
/// \brief Exact worst-case retrieval-delay analysis under adversarial block
/// loss (paper, Lemmas 1 and 2, Figure 7).
///
/// Retrieval model. A client starts listening at slot s and wants file F.
/// Every slot in which the program transmits a block of F delivers that
/// block unless the adversary corrupts the transmission; the adversary may
/// corrupt at most r transmissions of F, placed to maximize the client's
/// completion time.
///
/// * IDA client  — needs any m distinct dispersed blocks (the program's
///   data-cycle rotation determines which block each transmission carries).
/// * Flat client — needs every one of the m specific raw blocks (the
///   paper's "without IDA" regime, where a lost block must be awaited on
///   its next retransmission).
///
/// All quantities are computed *exactly* (closed form or exhaustive
/// adversary DP), not sampled. Delays are in slots and measured as
///   completion(s, r adversarial errors) - completion(s, 0 errors),
/// maximized over every start slot s — the "worst-case delay incurred when
/// retrieving the file" of Lemmas 1 and 2. Lemma 1 bounds the flat-client
/// figure by r * tau (tau = period); Lemma 2 bounds the IDA-client figure
/// by r * Delta (Delta = max inter-block gap).
///
/// Cost. A start's figures depend only on the first transmission of the
/// file it hears, and repeat every c transmissions (c = transmissions per
/// period): transmission j + c sits one period after transmission j
/// (BroadcastProgram::SlotOfTransmission), and the run from it carries the
/// same blocks shifted by c mod n, which no figure here can tell apart,
/// since only which blocks are distinct counts. So a row scores c starts,
/// one period's, never a data cycle's: O(c) on the closed-form paths
/// (r <= n - m, or the flat n == m == c case), and the adversary DP's own
/// state space per start otherwise.

#ifndef BDISK_BDISK_DELAY_ANALYSIS_H_
#define BDISK_BDISK_DELAY_ANALYSIS_H_

#include <cstdint>

#include "bdisk/program.h"
#include "common/status.h"

namespace bdisk::broadcast {

/// \brief Client retrieval semantics.
enum class ClientModel {
  /// Any m distinct dispersed blocks reconstruct the file (Section 2.1).
  kIda,
  /// All m specific raw blocks are required (no dispersal).
  kFlat,
};

/// \brief Exact worst-case delay analysis for one program.
class DelayAnalyzer {
 public:
  explicit DelayAnalyzer(const BroadcastProgram& program)
      : program_(&program) {}

  /// \brief Completion slot (the slot index whose transmission completes
  /// the retrieval) for a client starting at slot `start`, under the worst
  /// adversarial placement of `errors` corrupted transmissions.
  ///
  /// Fails with ResourceExhausted when the DP path would need a state space
  /// beyond ~2^20 (n > 20).
  Result<std::uint64_t> WorstCaseCompletion(FileIndex file,
                                            std::uint64_t start,
                                            std::uint32_t errors,
                                            ClientModel model) const;

  /// \brief max over starts s of [completion(s, errors) - completion(s, 0)]
  /// — the Lemma 1 / Lemma 2 "worst-case delay".
  Result<std::uint64_t> WorstCaseDelay(FileIndex file, std::uint32_t errors,
                                       ClientModel model) const;

  /// \brief max over starts s of [completion(s, errors) - s + 1] — the
  /// worst-case end-to-end retrieval latency in slots, the quantity the
  /// latency vectors d⃗ constrain.
  Result<std::uint64_t> WorstCaseLatency(FileIndex file, std::uint32_t errors,
                                         ClientModel model) const;

  /// Lemma 1 upper bound: r * tau.
  std::uint64_t Lemma1Bound(std::uint32_t errors) const {
    return errors * program_->period();
  }

  /// Lemma 2 upper bound: r * Delta(file).
  std::uint64_t Lemma2Bound(FileIndex file, std::uint32_t errors) const {
    return errors * program_->MaxGapOf(file);
  }

 private:
  const BroadcastProgram* program_;
};

}  // namespace bdisk::broadcast

#endif  // BDISK_BDISK_DELAY_ANALYSIS_H_
