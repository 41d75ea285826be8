/// \file server.h
/// \brief Byte-level data plane: a broadcast server that actually disperses
/// file contents with IDA and emits self-identifying coded blocks per slot.
///
/// The index-level Simulator is sufficient for latency experiments; this
/// server (with client.h's ReconstructingClient) closes the loop end to end
/// — real GF(2^8) dispersal, real block payloads, real reconstruction —
/// and is exercised by the integration tests and examples.

#ifndef BDISK_SIM_SERVER_H_
#define BDISK_SIM_SERVER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "bdisk/program.h"
#include "common/status.h"
#include "ida/dispersal.h"
#include "sim/epoch.h"
#include "store/block_store.h"

namespace bdisk::sim {

/// \brief Broadcast server executing a program — or an epoch schedule of
/// hot-swapping programs — over real file contents.
///
/// Files are dispersed exactly once: the epoch geometry contract
/// (sim/epoch.h) fixes (m, n, block size, contents) across epochs, so the
/// coded-block store is epoch-invariant and a swap changes only the
/// slot-to-block mapping. That is what makes the transition atomic for
/// clients: the block a client already holds is equally valid after the
/// swap.
class BroadcastServer {
 public:
  /// \param program   the broadcast program (copied).
  /// \param contents  one byte vector per program file; contents[f] must be
  ///                  exactly files()[f].m * block_size bytes (callers
  ///                  zero-pad a shorter file).
  /// \param block_size payload bytes per block.
  static Result<BroadcastServer> Create(
      broadcast::BroadcastProgram program,
      const std::vector<std::vector<std::uint8_t>>& contents,
      std::size_t block_size);

  /// Epoch-aware variant: executes `schedule` (copied), hot-swapping
  /// programs at the schedule's epoch boundaries.
  static Result<BroadcastServer> Create(
      EpochSchedule schedule,
      const std::vector<std::vector<std::uint8_t>>& contents,
      std::size_t block_size);

  /// Disk-backed variant: the dispersed blocks are committed to `store`
  /// (one staging transaction, one commit) instead of held in memory, and
  /// transmissions are served through the store's checksum-verified read
  /// path. `store` is not owned and must outlive the server.
  static Result<BroadcastServer> CreateDiskBacked(
      EpochSchedule schedule,
      const std::vector<std::vector<std::uint8_t>>& contents,
      std::size_t block_size, store::BlockStore* store);

  /// The coded block transmitted in slot t (nullopt for idle slots), in
  /// either mode. Disk-backed reads surface device and checksum failures
  /// as typed statuses; in-memory fetches cannot fail.
  Result<std::optional<ida::Block>> FetchTransmission(std::uint64_t t) const;

  bool disk_backed() const { return store_ != nullptr; }

  /// The program of the first epoch (the file table is identical across
  /// epochs; single-program servers have exactly one epoch).
  const broadcast::BroadcastProgram& program() const {
    return schedule_.epochs().front().program;
  }

  /// The full epoch timeline this server executes.
  const EpochSchedule& schedule() const { return schedule_; }

  std::size_t block_size() const { return block_size_; }

 private:
  BroadcastServer(EpochSchedule schedule, std::size_t block_size)
      : schedule_(std::move(schedule)), block_size_(block_size) {}

  /// Both modes: `store` == nullptr keeps the blocks in memory.
  static Result<BroadcastServer> Build(
      EpochSchedule schedule,
      const std::vector<std::vector<std::uint8_t>>& contents,
      std::size_t block_size, store::BlockStore* store);

  EpochSchedule schedule_;
  std::size_t block_size_;
  // coded_[f][k] = k-th dispersed block of file f (k < files()[f].n).
  // Epoch-invariant: dispersal depends only on geometry and contents.
  // Empty for disk-backed servers, whose blocks live in *store_.
  std::vector<std::vector<ida::Block>> coded_;
  store::BlockStore* store_ = nullptr;
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_SERVER_H_
