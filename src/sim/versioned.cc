#include "sim/versioned.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "sim/client.h"
#include "sim/contents.h"

namespace bdisk::sim {

namespace {

/// Stages the erase of `file`'s committed versions beyond the
/// kRetainedVersions nearest `version`, which is being added: farthest
/// from `version` first, the older one on a tie.
Status StageEvictions(store::BlockStore* store, ida::FileId file,
                      std::uint64_t version) {
  const store::Catalog& committed = store->catalog();
  std::vector<std::uint64_t> others;
  for (auto it = committed.lower_bound({file, 0});
       it != committed.end() && it->first.first == file; ++it) {
    others.push_back(it->first.second);
  }
  const auto distance = [version](std::uint64_t v) {
    return v > version ? v - version : version - v;
  };
  std::sort(others.begin(), others.end(),
            [&distance](std::uint64_t a, std::uint64_t b) {
              return distance(a) != distance(b) ? distance(a) > distance(b)
                                                : a < b;
            });
  // `version` itself takes one place in the window.
  const std::size_t kept = VersionedBroadcastServer::kRetainedVersions - 1;
  for (std::size_t i = 0; i + kept < others.size(); ++i) {
    BDISK_RETURN_NOT_OK(store->StageErase(file, others[i]));
  }
  return Status::OK();
}

}  // namespace

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

std::uint64_t VersionedBroadcastServer::ContentSeed(
    broadcast::FileIndex file, std::uint64_t version) const {
  return options_.content_seed * 0x9E3779B97F4A7C15ULL + file * 1000003ULL +
         version;
}

std::vector<std::uint8_t> VersionedBroadcastServer::ContentsOf(
    broadcast::FileIndex file, std::uint64_t version) const {
  BDISK_CHECK(file < program_.file_count());
  const std::size_t m = program_.files()[file].m;
  const std::size_t block_size = options_.block_size;
  std::vector<std::uint8_t> data(m * block_size);
  std::array<std::uint8_t*, ida::Dispersal::kMaxBlocks> rows;
  for (std::size_t j = 0; j < m; ++j) rows[j] = data.data() + j * block_size;
  SynthesizeRows(ContentSeed(file, version), rows.data(), m, block_size);
  return data;
}

Result<std::vector<ida::Block>> VersionedBroadcastServer::BuildVersion(
    broadcast::FileIndex file, std::uint64_t version) const {
  // One pass: the snapshot is synthesized straight into the data payloads
  // (sized unwritten, ida::Payload) and the parity rows are encoded next
  // to them, with no intermediate file to copy from.
  const ida::Dispersal& engine = engines_[file];
  const std::size_t m = engine.reconstruct_threshold();
  std::vector<ida::Block> blocks(engine.total_blocks());
  std::array<std::uint8_t*, ida::Dispersal::kMaxBlocks> rows;
  for (std::size_t j = 0; j < m; ++j) {
    blocks[j].payload.resize(options_.block_size);
    rows[j] = blocks[j].payload.data();
  }
  SynthesizeRows(ContentSeed(file, version), rows.data(), m,
                 options_.block_size);
  BDISK_RETURN_NOT_OK(engine.DisperseInPlace(static_cast<ida::FileId>(file),
                                             version, &blocks));
  // Stamped once per (file, version) at dispersal time, like the static
  // server's store.
  ida::StampChecksums(&blocks);
  return blocks;
}

Result<std::optional<ida::Block>> VersionedBroadcastServer::FetchTransmission(
    std::uint64_t slot) const {
  const auto tx = program_.TransmissionAt(slot);
  if (!tx.has_value()) return std::optional<ida::Block>();
  const std::uint64_t version = VersionAt(tx->file, slot);
  const auto file_id = static_cast<ida::FileId>(tx->file);
  if (options_.store != nullptr) {
    // Disk-backed: on first sight of a (file, version), build and persist
    // it, retiring the file's versions outside the retention window in the
    // same commit (one commit per version exercises the two-generation
    // swap under natural update churn); every transmission is served from
    // disk — the memory cache stays empty.
    if (options_.store->FindEntry(file_id, version) == nullptr) {
      BDISK_ASSIGN_OR_RETURN(std::vector<ida::Block> blocks,
                             BuildVersion(tx->file, version));
      BDISK_RETURN_NOT_OK(options_.store->StageFile(blocks));
      BDISK_RETURN_NOT_OK(StageEvictions(options_.store, file_id, version));
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
    BDISK_ASSIGN_OR_RETURN(std::vector<ida::Block> blocks,
                           BuildVersion(tx->file, version));
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
  RetrievalSession session(file, pf.m, pf.n, server.block_size(), start);
  BDISK_ASSIGN_OR_RETURN(
      SessionResult walked,
      WalkRetrieval(
          [&server](std::uint64_t t) { return server.FetchTransmission(t); },
          /*epochs=*/nullptr, channel, horizon, &session));
  VersionedSessionResult result;
  result.completed = walked.completed;
  result.completion_slot = walked.completion_slot;
  result.latency = walked.latency;
  result.restarts = session.client().restarts();
  if (result.completed) {
    // The completing block is the version current at its slot, and every
    // block the client holds carries that one version.
    result.version = server.VersionAt(file, result.completion_slot);
    result.data_age = result.completion_slot -
                      server.VersionStartSlot(file, result.version) + 1;
    result.data = std::move(walked.data);
  }
  return result;
}

}  // namespace bdisk::sim
