#include "ml/matrix.hpp"

#include <algorithm>

namespace autophase::ml {

Matrix Matrix::randn(Rng& rng, std::size_t rows, std::size_t cols, double stddev) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.normal(0.0, stddev);
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  // Row-blocked: with k in the middle, one row of B streams through every
  // row of the tile while it is hot in cache, cutting B traffic by the tile
  // height (the classic loop re-reads all of B for every row of A). Each
  // output element still accumulates over k in ascending order with the
  // same zero-skip as before, so results stay bit-identical — the
  // PolicyBatcher's row-identity contract depends on that.
  constexpr std::size_t kRowTile = 8;
  const std::size_t n = b.cols();
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += kRowTile) {
    const std::size_t i1 = std::min(i0 + kRowTile, a.rows());
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double* brow = b.row(k);
      for (std::size_t i = i0; i < i1; ++i) {
        const double av = a.row(i)[k];
        if (av == 0.0) continue;
        double* orow = out.row(i);
        for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  }
  return out;
}

namespace {

// The backward kernels below add four k terms per pass over an output row:
// one load and one store of each element then carry four products instead
// of one. Each element still gets exactly the one-term-per-pass sequence of
// IEEE operations, (((o + s0*r0) + s1*r1) + s2*r2) + s3*r3, with k
// ascending: no term is reordered, fused or dropped.

/// out[j] += s * row[j].
void add_term(double* out, double s, const double* row, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] += s * row[j];
}

/// out[j] += s[0] * rows[0][j], then s[1] * rows[1][j], and so on.
void add_four_terms(double* out, const double (&s)[4], const double* const (&rows)[4],
                    std::size_t n) {
  const double* r0 = rows[0];
  const double* r1 = rows[1];
  const double* r2 = rows[2];
  const double* r3 = rows[3];
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = out[j] + s[0] * r0[j] + s[1] * r1[j] + s[2] * r2[j] + s[3] * r3[j];
  }
}

}  // namespace

void matmul_tn(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  out.reset(a.cols(), b.cols());
  const std::size_t n = b.cols();
  std::size_t k = 0;
  for (; k + 4 <= a.rows(); k += 4) {
    const double* const brows[4] = {b.row(k), b.row(k + 1), b.row(k + 2), b.row(k + 3)};
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double av[4] = {a.row(k)[i], a.row(k + 1)[i], a.row(k + 2)[i], a.row(k + 3)[i]};
      double* orow = out.row(i);
      if (av[0] != 0.0 && av[1] != 0.0 && av[2] != 0.0 && av[3] != 0.0) {
        add_four_terms(orow, av, brows, n);
        continue;
      }
      // Zero terms are skipped (so 0 * inf adds nothing), one term at a time.
      for (std::size_t t = 0; t < 4; ++t) {
        if (av[t] != 0.0) add_term(orow, av[t], brows[t], n);
      }
    }
  }
  for (; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double av = a.row(k)[i];
      if (av != 0.0) add_term(out.row(i), av, b.row(k), n);
    }
  }
}

void matmul_nt(const Matrix& a, const Matrix& b, Matrix& out, Matrix& b_t) {
  assert(a.cols() == b.cols());
  out.reset(a.rows(), b.rows());
  const std::size_t n = b.rows();
  // Each element is a dot product: it starts at +0.0 and adds
  // a(i, k) * b(j, k) for every k in ascending order, skipping none (a skip
  // would change 0 * inf). Computed directly, each is one dependent chain.
  // Transposing b lets the product stream like matmul instead, row i of out
  // gathering a(i, k) * b_t(k, :) with no dependency across j, but the
  // transpose is a pass over all of b: it pays for itself from about four
  // rows of a on 256 x 256 weights. Fewer rows, as in A3C's one-sample
  // backwards, take the dot products.
  constexpr std::size_t kTransposeMinRows = 4;
  if (a.rows() < kTransposeMinRows) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double* arow = a.row(i);
      for (std::size_t j = 0; j < n; ++j) {
        const double* brow = b.row(j);
        double acc = 0.0;
        for (std::size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
        out.row(i)[j] = acc;
      }
    }
    return;
  }
  b_t.reset(b.cols(), b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    double* trow = b_t.row(c);
    for (std::size_t r = 0; r < b.rows(); ++r) trow[r] = b.row(r)[c];
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    double* orow = out.row(i);
    std::size_t k = 0;
    for (; k + 4 <= a.cols(); k += 4) {
      add_four_terms(orow, {arow[k], arow[k + 1], arow[k + 2], arow[k + 3]},
                     {b_t.row(k), b_t.row(k + 1), b_t.row(k + 2), b_t.row(k + 3)}, n);
    }
    for (; k < a.cols(); ++k) add_term(orow, arow[k], b_t.row(k), n);
  }
}

}  // namespace autophase::ml
