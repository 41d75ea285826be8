// Unit and property tests for GF(2^8) matrices.

#include "gf/matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"

namespace bdisk::gf {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m.Set(i, j, static_cast<std::uint8_t>(rng->Uniform(256)));
    }
  }
  return m;
}

TEST(MatrixTest, FromRowMajorValidatesSize) {
  EXPECT_TRUE(Matrix::FromRowMajor(2, 2, {1, 2, 3, 4}).ok());
  EXPECT_TRUE(Matrix::FromRowMajor(2, 2, {1, 2, 3}).status().IsInvalidArgument());
}

TEST(MatrixTest, IdentityMultiplication) {
  Rng rng(1);
  const Matrix m = RandomMatrix(5, 5, &rng);
  const Matrix id = Matrix::Identity(5);
  auto left = id.Mul(m);
  auto right = m.Mul(id);
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  EXPECT_TRUE(left->Equals(m));
  EXPECT_TRUE(right->Equals(m));
}

TEST(MatrixTest, MulShapeMismatchFails) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_TRUE(a.Mul(b).status().IsInvalidArgument());
}

// m * inv and inv * m are both the identity.
void ExpectTwoSidedInverse(const Matrix& m, const Matrix& inv) {
  const Matrix id = Matrix::Identity(m.rows());
  auto prod = m.Mul(inv);
  ASSERT_TRUE(prod.ok());
  EXPECT_TRUE(prod->Equals(id)) << "n=" << m.rows();
  auto prod2 = inv.Mul(m);
  ASSERT_TRUE(prod2.ok());
  EXPECT_TRUE(prod2->Equals(id)) << "n=" << m.rows();
}

TEST(MatrixTest, InverseRoundTripProperty) {
  Rng rng(3);
  int invertible_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.Uniform(8);
    const Matrix m = RandomMatrix(n, n, &rng);
    auto inv = m.Inverse();
    if (!inv.ok()) continue;  // Singular random matrix; fine.
    ++invertible_seen;
    ExpectTwoSidedInverse(m, *inv);
  }
  EXPECT_GT(invertible_seen, 20);  // Random GF(256) matrices are mostly invertible.

  // Reconstruction-shaped inputs: the last n rows of a systematic matrix
  // with k parity rows, so k data rows are missing and their pivots come
  // from the dense parity rows at the bottom. Each elimination step runs
  // on a row span of up to 2n bytes, crossing every kernel's 16- to
  // 256-byte chunk loops and tails.
  for (std::size_t n : {16u, 17u, 32u, 33u, 64u, 65u, 128u, 129u, 255u}) {
    const std::size_t k = std::min(n / 2, 256 - n);
    auto full = Matrix::SystematicCauchy(n + k, n);
    ASSERT_TRUE(full.ok()) << "n=" << n;
    std::vector<std::size_t> rows;
    for (std::size_t r = k; r < n + k; ++r) rows.push_back(r);
    auto m = full->SelectRows(rows);
    ASSERT_TRUE(m.ok());
    auto inv = m->Inverse();
    ASSERT_TRUE(inv.ok()) << "n=" << n << ": " << inv.status().message();
    ExpectTwoSidedInverse(*m, *inv);
  }
}

TEST(MatrixTest, SingularMatrixInverseFails) {
  auto m = Matrix::FromRowMajor(2, 2, {1, 2, 1, 2});
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->Inverse().status().IsInfeasible());
}

TEST(MatrixTest, NonSquareInverseFails) {
  Matrix m(2, 3);
  EXPECT_TRUE(m.Inverse().status().IsInvalidArgument());
}

TEST(MatrixTest, SelectRowsExtracts) {
  auto m = Matrix::FromRowMajor(3, 2, {1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(m.ok());
  auto sel = m->SelectRows({2, 0});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->At(0, 0), 5);
  EXPECT_EQ(sel->At(0, 1), 6);
  EXPECT_EQ(sel->At(1, 0), 1);
}

TEST(MatrixTest, SelectRowsOutOfRangeFails) {
  Matrix m(2, 2);
  EXPECT_TRUE(m.SelectRows({0, 5}).status().IsInvalidArgument());
}

TEST(CauchyTest, ShapeAndLimits) {
  auto c = Matrix::Cauchy(5, 3);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->rows(), 5u);
  EXPECT_TRUE(Matrix::Cauchy(200, 100).status().IsInvalidArgument());
}

TEST(CauchyTest, EverySquareSubmatrixInvertible) {
  auto c = Matrix::Cauchy(6, 4);
  ASSERT_TRUE(c.ok());
  // Full-width row subsets.
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      for (std::size_t k = j + 1; k < 6; ++k) {
        for (std::size_t l = k + 1; l < 6; ++l) {
          auto sq = c->SelectRows({i, j, k, l});
          ASSERT_TRUE(sq.ok());
          EXPECT_TRUE(sq->Inverse().ok());
        }
      }
    }
  }
}

TEST(SystematicCauchyTest, TopIsIdentity) {
  auto m = Matrix::SystematicCauchy(7, 4);
  ASSERT_TRUE(m.ok());
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(m->At(i, j), i == j ? 1 : 0);
    }
  }
}

TEST(SystematicCauchyTest, AnyMRowsInvertibleExhaustive) {
  // The MDS property IDA relies on: any m rows of the dispersal matrix are
  // independent. Exhaustive over C(8, 3) subsets mixing identity and
  // parity rows.
  auto m = Matrix::SystematicCauchy(8, 3);
  ASSERT_TRUE(m.ok());
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i + 1; j < 8; ++j) {
      for (std::size_t k = j + 1; k < 8; ++k) {
        auto sq = m->SelectRows({i, j, k});
        ASSERT_TRUE(sq.ok());
        EXPECT_TRUE(sq->Inverse().ok())
            << "rows " << i << "," << j << "," << k;
      }
    }
  }
}

TEST(SystematicCauchyTest, NEqualsMIsPlainIdentity) {
  auto m = Matrix::SystematicCauchy(4, 4);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->Equals(Matrix::Identity(4)));
}

TEST(MatrixTest, ToStringFormat) {
  auto m = Matrix::FromRowMajor(1, 2, {0xAB, 0x01});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->ToString(), "ab 01\n");
}

}  // namespace
}  // namespace bdisk::gf
