// Minimal dense row-major matrix for the policy/value networks. The paper's
// networks are 256x256 fully-connected MLPs — small enough that a clean
// cache-friendly triple loop outperforms anything fancier at this scale.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "support/rng.hpp"

namespace autophase::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  /// Adopts an existing row-major buffer (must be rows*cols long) — lets
  /// batch gatherers hand their staging buffer straight to the network
  /// without a copy.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    assert(data_.size() == rows_ * cols_);
  }

  static Matrix zeros(std::size_t rows, std::size_t cols) { return Matrix(rows, cols); }

  /// Gaussian init scaled for tanh nets (Xavier-ish).
  static Matrix randn(Rng& rng, std::size_t rows, std::size_t cols, double stddev);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] double* row(std::size_t r) noexcept { return data_.data() + r * cols_; }
  [[nodiscard]] const double* row(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

  [[nodiscard]] std::vector<double>& data() noexcept { return data_; }
  [[nodiscard]] const std::vector<double>& data() const noexcept { return data_; }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }
  /// Reshapes to rows x cols of +0.0, reusing the buffer's capacity.
  void reset(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  // ---- In-place arithmetic ----
  Matrix& operator+=(const Matrix& other);
  Matrix& operator*=(double s);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// out = a @ b.
Matrix matmul(const Matrix& a, const Matrix& b);
/// out = a^T @ b. `out` is overwritten and its buffer reused.
void matmul_tn(const Matrix& a, const Matrix& b, Matrix& out);
/// out = a @ b^T. `out` is overwritten; `b_t` is scratch for the transpose
/// of b. Both buffers are reused.
void matmul_nt(const Matrix& a, const Matrix& b, Matrix& out, Matrix& b_t);

}  // namespace autophase::ml
