#include "sim/versioned.h"

#include "common/check.h"
#include "common/random.h"
#include "sim/client.h"

namespace bdisk::sim {

Result<VersionedBroadcastServer> VersionedBroadcastServer::Create(
    broadcast::BroadcastProgram program, VersionedServerOptions options) {
  if (options.block_size == 0) {
    return Status::InvalidArgument(
        "VersionedBroadcastServer: block_size must be positive");
  }
  if (options.update_interval_slots.size() != program.file_count()) {
    return Status::InvalidArgument(
        "VersionedBroadcastServer: need one update interval per file (" +
        std::to_string(program.file_count()) + "), got " +
        std::to_string(options.update_interval_slots.size()));
  }
  VersionedBroadcastServer server(std::move(program), std::move(options));
  for (broadcast::FileIndex f = 0; f < server.program_.file_count(); ++f) {
    const broadcast::ProgramFile& pf = server.program_.files()[f];
    BDISK_ASSIGN_OR_RETURN(
        ida::Dispersal engine,
        ida::Dispersal::Create(pf.m, pf.n, server.options_.block_size));
    server.engines_.push_back(std::move(engine));
  }
  return server;
}

std::uint64_t VersionedBroadcastServer::VersionAt(broadcast::FileIndex file,
                                                  std::uint64_t slot) const {
  BDISK_CHECK(file < program_.file_count());
  const std::uint64_t interval = options_.update_interval_slots[file];
  return interval == 0 ? 0 : slot / interval;
}

std::uint64_t VersionedBroadcastServer::VersionStartSlot(
    broadcast::FileIndex file, std::uint64_t version) const {
  const std::uint64_t interval = options_.update_interval_slots[file];
  return interval == 0 ? 0 : version * interval;
}

std::vector<std::uint8_t> VersionedBroadcastServer::ContentsOf(
    broadcast::FileIndex file, std::uint64_t version) const {
  BDISK_CHECK(file < program_.file_count());
  const broadcast::ProgramFile& pf = program_.files()[file];
  // Deterministic synthetic snapshot: seeded by (seed, file, version).
  Rng rng(options_.content_seed * 0x9E3779B97F4A7C15ULL + file * 1000003ULL +
          version);
  std::vector<std::uint8_t> data(pf.m * options_.block_size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Uniform(256));
  return data;
}

Result<std::optional<ida::Block>> VersionedBroadcastServer::TransmissionAt(
    std::uint64_t slot) const {
  const auto tx = program_.TransmissionAt(slot);
  if (!tx.has_value()) return std::optional<ida::Block>();
  const std::uint64_t version = VersionAt(tx->file, slot);
  const auto file_id = static_cast<ida::FileId>(tx->file);
  if (options_.store != nullptr) {
    // Disk-backed: on first sight of a (file, version), disperse and
    // persist it (a commit per version exercises the two-generation swap
    // under natural update churn); every transmission is served from
    // disk — the memory cache stays empty.
    if (options_.store->FindEntry(file_id, version) == nullptr) {
      BDISK_ASSIGN_OR_RETURN(
          std::vector<ida::Block> blocks,
          engines_[tx->file].Disperse(file_id, ContentsOf(tx->file, version),
                                      version));
      ida::StampChecksums(&blocks);
      BDISK_RETURN_NOT_OK(options_.store->StageFile(blocks));
      BDISK_RETURN_NOT_OK(options_.store->Commit());
    }
    BDISK_ASSIGN_OR_RETURN(
        ida::Block block,
        options_.store->ReadCodedBlock(file_id, version, tx->block_index));
    return std::optional<ida::Block>(std::move(block));
  }
  const auto key = std::make_pair(tx->file, version);
  auto it = coded_.find(key);
  if (it == coded_.end()) {
    BDISK_ASSIGN_OR_RETURN(
        std::vector<ida::Block> blocks,
        engines_[tx->file].Disperse(file_id, ContentsOf(tx->file, version),
                                    version));
    // Stamped once per (file, version) at dispersal time, like the static
    // server's store.
    ida::StampChecksums(&blocks);
    it = coded_.emplace(key, std::move(blocks)).first;
  }
  return std::optional<ida::Block>(it->second[tx->block_index]);
}

Result<VersionedSessionResult> RunVersionedRetrieval(
    const VersionedBroadcastServer& server,
    const faults::ChannelModel& channel, broadcast::FileIndex file,
    std::uint64_t start, std::uint64_t horizon) {
  if (file >= server.program().file_count()) {
    return Status::InvalidArgument("RunVersionedRetrieval: unknown file");
  }
  const broadcast::ProgramFile& pf = server.program().files()[file];
  ReconstructingClient client(static_cast<ida::FileId>(file), pf.m, pf.n,
                              server.block_size());
  // Every version is stamped at dispersal, so an unstamped block can only
  // be a corruption artifact.
  client.set_require_checksums(true);

  VersionedSessionResult result;
  // The channel trace is random-access, so listening starts at `start`.
  for (std::uint64_t t = start; t < horizon; ++t) {
    // Fetched before the channel verdict: the server transmits (and, when
    // store-backed, commits each new version) whether or not the slot
    // arrives.
    BDISK_ASSIGN_OR_RETURN(std::optional<ida::Block> block,
                           server.TransmissionAt(t));
    const faults::FaultType fault = channel.FaultAt(t);
    if (!block.has_value() || fault == faults::FaultType::kLost) continue;
    if (fault == faults::FaultType::kCorrupted) {
      channel.CorruptBlock(t, &*block);
    }
    if (client.OfferEx(*block) == OfferOutcome::kCompleted) {
      result.completed = true;
      result.completion_slot = t;
      result.latency = t - start + 1;
      result.version = block->header.version;
      result.data_age = t - server.VersionStartSlot(file, result.version) + 1;
      break;
    }
  }
  result.restarts = client.restarts();
  if (result.completed) {
    BDISK_ASSIGN_OR_RETURN(result.data, client.Reconstruct());
  }
  return result;
}

}  // namespace bdisk::sim
