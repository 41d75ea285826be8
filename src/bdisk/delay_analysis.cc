#include "bdisk/delay_analysis.h"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>

#include "common/check.h"

namespace bdisk::broadcast {

namespace {

/// Exhaustive adversary DP (see header): maximum completion slot for a
/// client whose stream starts at the file's `first`-th transmission,
/// needing m distinct blocks out of n rotated ones, against at most
/// `errors` corruptions.
class AdversaryDp {
 public:
  // Horizon: each corruption delays completion by at most n occurrences
  // (after n further transmissions every block index has reappeared), and
  // with no errors left the client completes within n occurrences, so
  // m + (r + 1) * n + 2 transmissions always suffice.
  AdversaryDp(const BroadcastProgram& program, FileIndex file,
              std::uint64_t first, std::uint32_t errors)
      : program_(&program), file_(file),
        m_(program.files()[file].m), n_(program.files()[file].n),
        first_(first),
        horizon_(m_ + (static_cast<std::uint64_t>(errors) + 1) * n_ + 2) {}

  std::uint64_t MaxCompletion(std::uint32_t errors) {
    return Solve(0, errors, 0);
  }

 private:
  struct Key {
    std::uint64_t k;
    std::uint32_t e;
    std::uint32_t mask;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::size_t h = key.k;
      h = h * 1099511628211ULL ^ key.e;
      h = h * 1099511628211ULL ^ key.mask;
      return h;
    }
  };

  std::uint64_t Solve(std::uint64_t k, std::uint32_t e, std::uint32_t mask) {
    BDISK_CHECK(k <= horizon_);
    const Key key{k, e, mask};
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    const auto block = static_cast<std::uint32_t>((first_ + k) % n_);
    const std::uint32_t received = mask | (1u << block);
    std::uint64_t best;
    if (static_cast<std::uint32_t>(std::popcount(received)) >= m_) {
      // Receiving completes the retrieval now...
      best = program_->SlotOfTransmission(file_, first_ + k);
      // ...unless the adversary can afford to corrupt this transmission.
      if (e > 0) best = std::max(best, Solve(k + 1, e - 1, mask));
    } else {
      // Not complete either way; corrupting is pointless here only if it
      // cannot change the future — explore both options.
      best = Solve(k + 1, e, received);
      if (e > 0) best = std::max(best, Solve(k + 1, e - 1, mask));
    }
    memo_.emplace(key, best);
    return best;
  }

  const BroadcastProgram* program_;
  FileIndex file_;
  std::uint32_t m_;
  std::uint32_t n_;
  std::uint64_t first_;
  std::uint64_t horizon_;
  std::unordered_map<Key, std::uint64_t, KeyHash> memo_;
};

Status CheckFile(const BroadcastProgram& program, FileIndex file,
                 ClientModel model) {
  if (file >= program.file_count()) {
    return Status::InvalidArgument("DelayAnalyzer: unknown file");
  }
  const ProgramFile& pf = program.files()[file];
  if (model == ClientModel::kFlat && pf.n != pf.m) {
    return Status::InvalidArgument(
        "DelayAnalyzer: flat client model requires n == m (file '" + pf.name +
        "' rotates " + std::to_string(pf.n) + " blocks)");
  }
  return Status::OK();
}

/// Worst-case completion slot of a retrieval of a checked `file` whose
/// first transmission is the file's `first`-th.
Result<std::uint64_t> CompletionFrom(const BroadcastProgram& program,
                                     FileIndex file, std::uint64_t first,
                                     std::uint32_t errors) {
  const ProgramFile& pf = program.files()[file];
  // Fast path: with n >= m + r every m + r consecutive transmissions carry
  // distinct blocks, so the adversary's best is to corrupt any r of the
  // first m + r - 1; completion is exactly the (m + r)-th transmission.
  if (pf.n >= pf.m + errors) {
    return program.SlotOfTransmission(file, first + pf.m + errors - 1);
  }

  // Fast path for the flat regime where each block is transmitted exactly
  // once per period (n == m == transmissions per period): the error-free
  // client finishes at the m-th transmission, and the adversary's optimum
  // is to corrupt the last-needed block on each of its next r appearances
  // — exactly one period each (Lemma 1, tight).
  if (pf.n == pf.m && program.CountOf(file) == pf.n) {
    return program.SlotOfTransmission(file, first + pf.m - 1) +
           errors * program.period();
  }

  if (pf.n > 20) {
    return Status::ResourceExhausted(
        "DelayAnalyzer: adversary DP gated at n <= 20 blocks (file '" +
        pf.name + "' has n = " + std::to_string(pf.n) + ")");
  }
  AdversaryDp dp(program, file, first, errors);
  return dp.MaxCompletion(errors);
}

}  // namespace

Result<std::uint64_t> DelayAnalyzer::WorstCaseCompletion(
    FileIndex file, std::uint64_t start, std::uint32_t errors,
    ClientModel model) const {
  BDISK_RETURN_NOT_OK(CheckFile(*program_, file, model));
  return CompletionFrom(*program_, file,
                        program_->TransmissionAtOrAfter(file, start), errors);
}

Result<std::uint64_t> DelayAnalyzer::WorstCaseDelay(FileIndex file,
                                                    std::uint32_t errors,
                                                    ClientModel model) const {
  BDISK_RETURN_NOT_OK(CheckFile(*program_, file, model));
  // Every start in (slot of j - 1, slot of j] sees transmission j first, and
  // the figures repeat every c transmissions (see header): one start per
  // transmission of one period covers every start.
  const std::uint64_t c = program_->CountOf(file);
  std::uint64_t worst = 0;
  for (std::uint64_t j = 0; j < c; ++j) {
    BDISK_ASSIGN_OR_RETURN(std::uint64_t with_errors,
                           CompletionFrom(*program_, file, j, errors));
    BDISK_ASSIGN_OR_RETURN(std::uint64_t without_errors,
                           CompletionFrom(*program_, file, j, 0));
    worst = std::max(worst, with_errors - without_errors);
  }
  return worst;
}

Result<std::uint64_t> DelayAnalyzer::WorstCaseLatency(FileIndex file,
                                                      std::uint32_t errors,
                                                      ClientModel model) const {
  BDISK_RETURN_NOT_OK(CheckFile(*program_, file, model));
  const std::uint64_t c = program_->CountOf(file);
  std::uint64_t worst = 0;
  for (std::uint64_t j = c; j < 2 * c; ++j) {
    // Worst start aiming at transmission j: the slot right after the
    // previous one (the client "just missed" it). Aiming one period ahead
    // keeps transmission j - 1 at a non-negative ordinal.
    const std::uint64_t start = program_->SlotOfTransmission(file, j - 1) + 1;
    BDISK_ASSIGN_OR_RETURN(std::uint64_t completion,
                           CompletionFrom(*program_, file, j, errors));
    worst = std::max(worst, completion - start + 1);
  }
  return worst;
}

}  // namespace bdisk::broadcast
