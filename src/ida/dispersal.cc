#include "ida/dispersal.h"

#include <array>
#include <cstring>
#include <mutex>

#include "common/check.h"
#include "gf/gf_bulk.h"

namespace bdisk::ida {

Result<Dispersal> Dispersal::Create(std::uint32_t m, std::uint32_t n,
                                    std::size_t block_size) {
  if (m == 0) {
    return Status::InvalidArgument("Dispersal: m must be positive");
  }
  if (n < m) {
    return Status::InvalidArgument("Dispersal: need n >= m, got n=" +
                                   std::to_string(n) + " m=" +
                                   std::to_string(m));
  }
  if (block_size == 0) {
    return Status::InvalidArgument("Dispersal: block_size must be positive");
  }
  // SystematicCauchy needs (n - m) parity x-points and m + (n - m) y/x values
  // within GF(2^8): (n - m) + m <= 256.
  if (n > kMaxBlocks) {
    return Status::InvalidArgument(
        "Dispersal: at most 256 dispersed blocks over GF(2^8)");
  }
  BDISK_ASSIGN_OR_RETURN(gf::Matrix mat, gf::Matrix::SystematicCauchy(n, m));
  return Dispersal(m, n, block_size, std::move(mat));
}

Result<std::vector<Block>> Dispersal::Disperse(
    FileId file_id, const std::vector<std::uint8_t>& file,
    std::uint64_t version) const {
  const std::size_t expected = static_cast<std::size_t>(m_) * block_size_;
  if (file.size() != expected) {
    return Status::InvalidArgument(
        "Disperse: file must be exactly m * block_size = " +
        std::to_string(expected) + " bytes, got " +
        std::to_string(file.size()));
  }
  std::vector<Block> out;
  DisperseStripe(file_id, file.data(), version, &out);
  return out;
}

void Dispersal::DisperseStripe(FileId file_id, const std::uint8_t* stripe,
                               std::uint64_t version,
                               std::vector<Block>* out) const {
  out->resize(n_);
  for (std::uint32_t j = 0; j < m_; ++j) {
    const std::uint8_t* const data =
        stripe + static_cast<std::size_t>(j) * block_size_;
    (*out)[j].payload.assign(data, data + block_size_);
  }
  const Status encoded = DisperseInPlace(file_id, version, out);
  BDISK_CHECK(encoded.ok());
}

Status Dispersal::DisperseInPlace(FileId file_id, std::uint64_t version,
                                  std::vector<Block>* blocks) const {
  if (blocks->size() != n_) {
    return Status::InvalidArgument(
        "DisperseInPlace: need n = " + std::to_string(n_) + " blocks, got " +
        std::to_string(blocks->size()));
  }
  for (std::uint32_t j = 0; j < m_; ++j) {
    if ((*blocks)[j].payload.size() != block_size_) {
      return Status::InvalidArgument(
          "DisperseInPlace: data block " + std::to_string(j) + " holds " +
          std::to_string((*blocks)[j].payload.size()) +
          " bytes, block_size is " + std::to_string(block_size_));
    }
  }
  // The systematic rows are the stripe's own blocks; only the n - m parity
  // payloads start zeroed for the product below.
  for (std::uint32_t i = 0; i < n_; ++i) {
    (*blocks)[i].header = BlockHeader{file_id, i, m_, n_, version};
    if (i >= m_) (*blocks)[i].payload.assign(block_size_, 0);
  }
  // Parity block i, byte k = sum_j M[m + i][j] * data_block_j[k] — one
  // fused matrix-block product instead of (n - m) * m independent row
  // passes, so each data block streams through cache once per tile
  // (gf/gf_bulk.h).
  std::array<std::uint8_t*, kMaxBlocks> dsts;
  std::array<const std::uint8_t*, kMaxBlocks> srcs;
  std::array<const std::uint8_t*, kMaxBlocks> rows;
  for (std::uint32_t i = m_; i < n_; ++i) {
    dsts[i - m_] = (*blocks)[i].payload.data();
    rows[i - m_] = dispersal_matrix_.RowData(i);
  }
  for (std::uint32_t j = 0; j < m_; ++j) srcs[j] = (*blocks)[j].payload.data();
  gf::GFBulk::MatrixMulAccumulate(dsts.data(), srcs.data(), rows.data(),
                                  n_ - m_, m_, block_size_);
  return Status::OK();
}

Result<std::vector<std::uint8_t>> Dispersal::Reconstruct(
    const std::vector<Block>& blocks) const {
  std::vector<std::uint8_t> file(static_cast<std::size_t>(m_) * block_size_,
                                 0);
  BDISK_RETURN_NOT_OK(ReconstructInto(blocks, file.data()));
  return file;
}

Status Dispersal::ReconstructInto(const std::vector<Block>& blocks,
                                  std::uint8_t* dst) const {
  // The first m distinct, valid blocks, by block index: walking the index
  // lists them in ascending order, as SolveErasures takes them.
  std::array<const Block*, kMaxBlocks> by_index{};
  std::uint32_t distinct = 0;
  std::optional<std::uint64_t> version;
  for (const Block& b : blocks) {
    if (b.header.reconstruct_threshold != m_ || b.header.total_blocks != n_) {
      return Status::InvalidArgument(
          "Reconstruct: block geometry mismatch: " + b.header.ToString());
    }
    if (!version.has_value()) {
      version = b.header.version;
    } else if (b.header.version != *version) {
      return Status::InvalidArgument(
          "Reconstruct: mixed versions (" + std::to_string(*version) +
          " vs " + std::to_string(b.header.version) +
          "); blocks of different snapshots cannot be combined");
    }
    if (b.header.block_index >= n_) {
      return Status::InvalidArgument("Reconstruct: block index out of range: " +
                                     b.header.ToString());
    }
    if (b.payload.size() != block_size_) {
      return Status::InvalidArgument("Reconstruct: payload size mismatch");
    }
    if (by_index[b.header.block_index] != nullptr) continue;
    by_index[b.header.block_index] = &b;
    if (++distinct == m_) break;
  }
  if (distinct < m_) {
    return Status::DataLoss("Reconstruct: need " + std::to_string(m_) +
                            " distinct blocks, have " +
                            std::to_string(distinct));
  }
  // Received data blocks are their rows of the file; parity blocks stay
  // where they are for the solve to read.
  std::array<std::size_t, kMaxBlocks> received;
  std::array<const std::uint8_t*, kMaxBlocks> parity;
  std::size_t held = 0;
  std::size_t parity_held = 0;
  for (std::uint32_t i = 0; i < n_; ++i) {
    const Block* const b = by_index[i];
    if (b == nullptr) continue;
    received[held++] = i;
    if (i < m_) {
      std::memcpy(dst + static_cast<std::size_t>(i) * block_size_,
                  b->payload.data(), block_size_);
    } else {
      parity[parity_held++] = b->payload.data();
    }
  }
  return SolveErasures(received.data(), parity.data(), dst);
}

Status Dispersal::SolveErasures(const std::size_t* received,
                                const std::uint8_t* const* parity,
                                std::uint8_t* file) const {
  // Ascending (the inverse cache's key order), so the received data rows
  // come first.
  std::size_t data_held = 0;
  for (std::size_t i = 0; i < m_; ++i) {
    if (received[i] >= n_ || (i > 0 && received[i] <= received[i - 1])) {
      return Status::InvalidArgument(
          "SolveErasures: received block indices must be ascending, "
          "distinct and below n");
    }
    if (received[i] < m_) ++data_held;
  }
  if (data_held == m_) return Status::OK();  // Nothing erased.
  BDISK_ASSIGN_OR_RETURN(const gf::Matrix* inverse, InverseOf(received));

  // Erased row j, byte k = sum_i Inv[j][i] * received_i[k] — only the
  // inverse's rows for the erased data rows, fused across them
  // (gf/gf_bulk.h). Received data rows are read in place.
  std::array<std::uint8_t*, kMaxBlocks> dsts;
  std::array<const std::uint8_t*, kMaxBlocks> coeffs;
  std::array<const std::uint8_t*, kMaxBlocks> srcs;
  std::size_t erased = 0;
  for (std::size_t j = 0, i = 0; j < m_; ++j) {
    std::uint8_t* const row = file + j * block_size_;
    if (i < data_held && received[i] == j) {
      srcs[i++] = row;
    } else {
      dsts[erased] = row;
      coeffs[erased++] = inverse->RowData(j);
    }
  }
  for (std::size_t i = data_held; i < m_; ++i) {
    srcs[i] = parity[i - data_held];
  }
  gf::GFBulk::MatrixMulAccumulate(dsts.data(), srcs.data(), coeffs.data(),
                                  erased, m_, block_size_);
  return Status::OK();
}

Result<const gf::Matrix*> Dispersal::InverseOf(
    const std::size_t* received) const {
  // The cache is read-mostly after warmup (there are only C(n, m) subsets,
  // and workloads revisit few of them), so hits take the lock shared and
  // batch reconstruction does not serialize here.
  std::vector<std::size_t> key(received, received + m_);
  {
    std::shared_lock<std::shared_mutex> lock(inverse_cache_->mu);
    auto it = inverse_cache_->entries.find(key);
    if (it != inverse_cache_->entries.end()) return &it->second;
  }
  // Invert outside the lock; a concurrent reconstruction of the same
  // subset may win the emplace race, in which case its (identical) matrix
  // is used.
  BDISK_ASSIGN_OR_RETURN(gf::Matrix square, dispersal_matrix_.SelectRows(key));
  auto inv_result = square.Inverse();
  if (!inv_result.ok()) {
    // Cannot happen with a SystematicCauchy matrix; report as internal.
    return Status::Internal("Reconstruct: dispersal submatrix singular: " +
                            inv_result.status().message());
  }
  std::unique_lock<std::shared_mutex> lock(inverse_cache_->mu);
  auto [pos, inserted] = inverse_cache_->entries.emplace(
      std::move(key), std::move(inv_result).value());
  (void)inserted;
  return &pos->second;
}

}  // namespace bdisk::ida
