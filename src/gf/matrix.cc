#include "gf/matrix.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "gf/gf_bulk.h"

namespace bdisk::gf {

Result<Matrix> Matrix::FromRowMajor(std::size_t rows, std::size_t cols,
                                    std::vector<std::uint8_t> data) {
  if (data.size() != rows * cols) {
    return Status::InvalidArgument("FromRowMajor: data size " +
                                   std::to_string(data.size()) +
                                   " != " + std::to_string(rows * cols));
  }
  Matrix m(rows, cols);
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.Set(i, i, 1);
  return m;
}

Result<Matrix> Matrix::Cauchy(std::size_t rows, std::size_t cols) {
  if (rows + cols > 256) {
    return Status::InvalidArgument(
        "Cauchy: rows + cols must be <= 256 over GF(2^8)");
  }
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      // x_i = i, y_j = rows + j; all 256 values distinct, so x_i + y_j != 0.
      const std::uint8_t denom = GF256::Add(static_cast<std::uint8_t>(i),
                                            static_cast<std::uint8_t>(rows + j));
      m.Set(i, j, GF256::Inv(denom));
    }
  }
  return m;
}

Result<Matrix> Matrix::SystematicCauchy(std::size_t rows, std::size_t cols) {
  if (rows < cols) {
    return Status::InvalidArgument("SystematicCauchy: rows < cols");
  }
  const std::size_t parity_rows = rows - cols;
  if (parity_rows + cols > 256) {
    return Status::InvalidArgument(
        "SystematicCauchy: too many rows for GF(2^8)");
  }
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < cols; ++i) m.Set(i, i, 1);
  if (parity_rows > 0) {
    BDISK_ASSIGN_OR_RETURN(Matrix cauchy, Cauchy(parity_rows, cols));
    for (std::size_t i = 0; i < parity_rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        m.Set(cols + i, j, cauchy.At(i, j));
      }
    }
  }
  return m;
}

std::uint8_t Matrix::At(std::size_t r, std::size_t c) const {
  BDISK_DCHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

void Matrix::Set(std::size_t r, std::size_t c, std::uint8_t v) {
  BDISK_DCHECK(r < rows_ && c < cols_);
  data_[r * cols_ + c] = v;
}

const std::uint8_t* Matrix::RowData(std::size_t r) const {
  BDISK_DCHECK(r < rows_);
  return data_.data() + r * cols_;
}

std::uint8_t* Matrix::MutableRowData(std::size_t r) {
  BDISK_DCHECK(r < rows_);
  return data_.data() + r * cols_;
}

Result<Matrix> Matrix::Mul(const Matrix& other) const {
  if (cols_ != other.rows_) {
    return Status::InvalidArgument("Matrix::Mul: shape mismatch " +
                                   std::to_string(cols_) + " vs " +
                                   std::to_string(other.rows_));
  }
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const std::uint8_t a = At(i, k);
      if (a == 0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out.data_[i * other.cols_ + j] = GF256::Add(
            out.data_[i * other.cols_ + j], GF256::Mul(a, other.At(k, j)));
      }
    }
  }
  return out;
}

Result<Matrix> Matrix::Inverse() const {
  if (rows_ != cols_) {
    return Status::InvalidArgument("Inverse: matrix is not square");
  }
  // Gauss–Jordan on one n x 2n buffer [A | I]: every row operation covers
  // both halves at once, and the right half ends as the inverse.
  const std::size_t n = rows_;
  const std::size_t width = 2 * n;
  Matrix aug(n, width);
  for (std::size_t r = 0; r < n; ++r) {
    std::copy_n(RowData(r), n, aug.MutableRowData(r));
    aug.Set(r, n + r, 1);
  }
  std::vector<std::uint8_t*> dsts;
  std::vector<std::uint8_t> factors;
  std::vector<const std::uint8_t*> coeffs;
  dsts.reserve(n);
  factors.reserve(n);
  coeffs.reserve(n);
  for (std::size_t col = 0; col < n; ++col) {
    // The pivot: the first nonzero at or below the diagonal, swapped up.
    std::size_t pivot = col;
    while (pivot < n && aug.At(pivot, col) == 0) ++pivot;
    if (pivot == n) {
      return Status::Infeasible("Inverse: singular matrix");
    }
    std::uint8_t* const pivot_row = aug.MutableRowData(col);
    if (pivot != col) {
      std::swap_ranges(pivot_row, pivot_row + width,
                       aug.MutableRowData(pivot));
    }
    // Left of `col` the pivot row is already zero, so scaling it and adding
    // it to other rows changes columns [col, 2n) only.
    const std::uint8_t* const scale =
        GFBulk::MulTable(GF256::Inv(pivot_row[col]));
    for (std::size_t j = col; j < width; ++j) {
      pivot_row[j] = scale[pivot_row[j]];
    }
    // Clear the column with one fused call: each other row with a nonzero
    // factor f in it gains f times the pivot row. The call overwrites the
    // factors (each becomes 0), so they are copied out first.
    dsts.clear();
    factors.clear();
    coeffs.clear();
    for (std::size_t r = 0; r < n; ++r) {
      const std::uint8_t f = aug.At(r, col);
      if (r == col || f == 0) continue;
      dsts.push_back(aug.MutableRowData(r) + col);
      factors.push_back(f);
    }
    for (const std::uint8_t& f : factors) coeffs.push_back(&f);
    const std::uint8_t* const src = pivot_row + col;
    GFBulk::MatrixMulAccumulate(dsts.data(), &src, coeffs.data(), dsts.size(),
                                1, width - col);
  }
  Matrix inv(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    std::copy_n(aug.RowData(r) + n, n, inv.MutableRowData(r));
  }
  return inv;
}

Result<Matrix> Matrix::SelectRows(
    const std::vector<std::size_t>& row_indices) const {
  Matrix out(row_indices.size(), cols_);
  for (std::size_t i = 0; i < row_indices.size(); ++i) {
    if (row_indices[i] >= rows_) {
      return Status::InvalidArgument("SelectRows: index out of range");
    }
    for (std::size_t j = 0; j < cols_; ++j) {
      out.Set(i, j, At(row_indices[i], j));
    }
  }
  return out;
}

bool Matrix::Equals(const Matrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
}

std::string Matrix::ToString() const {
  static const char* kHex = "0123456789abcdef";
  std::ostringstream oss;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      const std::uint8_t v = At(i, j);
      if (j > 0) oss << ' ';
      oss << kHex[v >> 4] << kHex[v & 0xF];
    }
    oss << '\n';
  }
  return oss.str();
}

}  // namespace bdisk::gf
