/// \file matrix.h
/// \brief Dense matrices over GF(2^8), with the operations IDA needs:
/// multiplication, Gauss–Jordan inversion, row selection, and the Cauchy
/// constructions whose every m-row subset is invertible.
///
/// Inverse clears each pivot column with one call of the dispatched fused
/// kernel (gf::GFBulk::MatrixMulAccumulate), so the elimination rides the
/// same SIMD paths as the codec.

#ifndef BDISK_GF_MATRIX_H_
#define BDISK_GF_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "gf/gf256.h"

namespace bdisk::gf {

/// \brief A rows x cols matrix of GF(2^8) elements, row-major.
class Matrix {
 public:
  /// Creates a zero matrix of the given shape (either dimension may be 0).
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  /// Creates a matrix from row-major initializer data. `data.size()` must be
  /// rows * cols.
  static Result<Matrix> FromRowMajor(std::size_t rows, std::size_t cols,
                                     std::vector<std::uint8_t> data);

  /// The n x n identity matrix.
  static Matrix Identity(std::size_t n);

  /// \brief Cauchy matrix C[i][j] = 1 / (x_i + y_j) with x_i = i and
  /// y_j = rows + j, all distinct; every square submatrix is invertible.
  ///
  /// Fails if rows + cols > 256.
  static Result<Matrix> Cauchy(std::size_t rows, std::size_t cols);

  /// \brief Systematic dispersal matrix: the top `cols` rows are the
  /// identity, the remaining rows are Cauchy. Any `cols` rows are
  /// independent. Fails if rows - cols + cols... i.e. rows > 256 - cols.
  static Result<Matrix> SystematicCauchy(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Element access (bounds-checked in debug builds).
  std::uint8_t At(std::size_t r, std::size_t c) const;
  /// Mutable element access.
  void Set(std::size_t r, std::size_t c, std::uint8_t v);

  /// Pointer to the start of row `r` (row-major contiguous storage).
  const std::uint8_t* RowData(std::size_t r) const;
  /// Mutable pointer to the start of row `r`.
  std::uint8_t* MutableRowData(std::size_t r);

  /// Matrix product this * other. Fails on shape mismatch.
  Result<Matrix> Mul(const Matrix& other) const;

  /// Inverse via Gauss–Jordan elimination on [this | I]. Fails with
  /// Infeasible if the matrix is singular, InvalidArgument if non-square.
  Result<Matrix> Inverse() const;

  /// The square matrix formed by the given rows (in the given order).
  /// Fails if any index is out of range.
  Result<Matrix> SelectRows(const std::vector<std::size_t>& row_indices) const;

  /// True iff every element equals the corresponding element of `other`.
  bool Equals(const Matrix& other) const;

  /// Hex dump, one row per line (for debugging and golden tests).
  std::string ToString() const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::uint8_t> data_;
};

}  // namespace bdisk::gf

#endif  // BDISK_GF_MATRIX_H_
