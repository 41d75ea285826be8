#include "sim/server.h"

#include "common/check.h"

namespace bdisk::sim {

Result<BroadcastServer> BroadcastServer::Create(
    broadcast::BroadcastProgram program,
    const std::vector<std::vector<std::uint8_t>>& contents,
    std::size_t block_size) {
  return Create(EpochSchedule::Single(std::move(program)), contents,
                block_size);
}

Result<BroadcastServer> BroadcastServer::Create(
    EpochSchedule schedule,
    const std::vector<std::vector<std::uint8_t>>& contents,
    std::size_t block_size) {
  return Build(std::move(schedule), contents, block_size, nullptr);
}

Result<BroadcastServer> BroadcastServer::CreateDiskBacked(
    EpochSchedule schedule,
    const std::vector<std::vector<std::uint8_t>>& contents,
    std::size_t block_size, store::BlockStore* store) {
  BDISK_CHECK(store != nullptr);
  return Build(std::move(schedule), contents, block_size, store);
}

Result<BroadcastServer> BroadcastServer::Build(
    EpochSchedule schedule,
    const std::vector<std::vector<std::uint8_t>>& contents,
    std::size_t block_size, store::BlockStore* store) {
  if (contents.size() != schedule.file_count()) {
    return Status::InvalidArgument(
        "BroadcastServer: need contents for all " +
        std::to_string(schedule.file_count()) + " files, got " +
        std::to_string(contents.size()));
  }
  BroadcastServer server(std::move(schedule), block_size);
  server.store_ = store;
  for (broadcast::FileIndex f = 0; f < server.schedule_.file_count(); ++f) {
    const broadcast::ProgramFile& pf = server.schedule_.files()[f];
    const std::string context = "BroadcastServer: file '" + pf.name + "'";
    BDISK_ASSIGN_OR_RETURN(ida::Dispersal engine,
                           ida::Dispersal::Create(pf.m, pf.n, block_size));
    auto blocks = engine.Disperse(static_cast<ida::FileId>(f), contents[f]);
    if (!blocks.ok()) return blocks.status().WithContext(context);
    // Stamp integrity checksums once, at store-build time: every
    // transmission is self-verifying, so clients on corrupting channels
    // can discard damaged blocks (sim/client.h) instead of reconstructing
    // wrong bytes.
    ida::StampChecksums(&*blocks);
    if (store == nullptr) {
      server.coded_.push_back(std::move(*blocks));
    } else {
      // coded_ stays empty: the store is the only copy of the blocks.
      BDISK_RETURN_NOT_OK(store->StageFile(*blocks).WithContext(context));
    }
  }
  if (store != nullptr) {
    // One commit for the whole program: the epoch hot-swap contract's
    // durable twin — the catalog flips from "no files" to "all files"
    // atomically.
    BDISK_RETURN_NOT_OK(store->Commit().WithContext("BroadcastServer"));
  }
  return server;
}

Result<std::optional<ida::Block>> BroadcastServer::FetchTransmission(
    std::uint64_t t) const {
  const auto tx = schedule_.TransmissionAt(t);
  if (!tx.has_value()) return std::optional<ida::Block>();
  if (store_ == nullptr) {
    return std::optional<ida::Block>(coded_[tx->file][tx->block_index]);
  }
  BDISK_ASSIGN_OR_RETURN(
      ida::Block block,
      store_->ReadCodedBlock(static_cast<ida::FileId>(tx->file), /*version=*/0,
                             tx->block_index));
  return std::optional<ida::Block>(std::move(block));
}

}  // namespace bdisk::sim
