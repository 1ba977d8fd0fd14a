#include <gtest/gtest.h>

#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "ml/distributions.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "ml/optimizer.hpp"
#include "ml/random_forest.hpp"

namespace autophase::ml {
namespace {

TEST(Matrix, MatmulKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  int v = 1;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a.at(i, j) = v++;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) b.at(i, j) = v++;
  }
  const Matrix c = matmul(a, b);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12].
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154);
}

TEST(Matrix, TransposedVariantsAgree) {
  Rng rng(3);
  const Matrix a = Matrix::randn(rng, 4, 5, 1.0);
  const Matrix b = Matrix::randn(rng, 4, 6, 1.0);
  // a^T @ b via matmul_tn equals the transpose multiplied out, exactly: both
  // add a(k, i) * b(k, j) in ascending k and skip the same zeros.
  Matrix tn;
  matmul_tn(a, b, tn);
  Matrix at(5, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) at.at(j, i) = a.at(i, j);
  }
  const Matrix expected = matmul(at, b);
  ASSERT_EQ(tn.rows(), expected.rows());
  ASSERT_EQ(tn.cols(), expected.cols());
  for (std::size_t i = 0; i < tn.rows(); ++i) {
    for (std::size_t j = 0; j < tn.cols(); ++j) EXPECT_EQ(tn.at(i, j), expected.at(i, j));
  }
}

// ---------------------------------------------------------------------------
// Kernel oracle. The backward kernels and Adam's step as they were before
// the streaming matmul_nt and the fused Adam, copied verbatim. The kernels
// must reproduce them bit for bit: PPO's weights, every golden and the
// bench baselines rest on that.
// ---------------------------------------------------------------------------

Matrix reference_matmul_tn(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.row(k);
    const double* brow = b.row(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* orow = out.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Matrix reference_matmul_nt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    double* orow = out.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.row(j);
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      orow[j] = acc;
    }
  }
  return out;
}

/// Adam's two-pass step: the moments fill a separate update, then
/// apply_delta adds update * (-lr) to the parameters (here a plain copy of
/// the net's weights).
struct ReferenceAdam {
  Adam::Config config_;
  Gradients m_;
  Gradients v_;
  std::size_t t_ = 0;

  static double clip_scale(const Gradients& grads, double max_norm) {
    if (max_norm <= 0.0) return 1.0;
    const double norm = grads.l2_norm();
    return norm > max_norm ? max_norm / norm : 1.0;
  }

  void step(Gradients& params, const Gradients& grads) {
    ++t_;
    const double clip = clip_scale(grads, config_.max_grad_norm);
    const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));

    Gradients update = params;
    update.zero();
    auto update_block = [&](Matrix& m, Matrix& v, const Matrix& g, Matrix& out) {
      for (std::size_t i = 0; i < m.data().size(); ++i) {
        const double gi = g.data()[i] * clip;
        m.data()[i] = config_.beta1 * m.data()[i] + (1.0 - config_.beta1) * gi;
        v.data()[i] = config_.beta2 * v.data()[i] + (1.0 - config_.beta2) * gi * gi;
        const double mhat = m.data()[i] / bc1;
        const double vhat = v.data()[i] / bc2;
        out.data()[i] = mhat / (std::sqrt(vhat) + config_.epsilon);
      }
    };
    for (std::size_t l = 0; l < update.weights.size(); ++l) {
      update_block(m_.weights[l], v_.weights[l], grads.weights[l], update.weights[l]);
      update_block(m_.biases[l], v_.biases[l], grads.biases[l], update.biases[l]);
    }
    // apply_delta(update, -lr)
    const double s = -config_.lr;
    auto add_scaled = [&](Matrix& dst, const Matrix& other) {
      for (std::size_t i = 0; i < dst.data().size(); ++i) dst.data()[i] += other.data()[i] * s;
    };
    for (std::size_t l = 0; l < params.weights.size(); ++l) {
      add_scaled(params.weights[l], update.weights[l]);
      add_scaled(params.biases[l], update.biases[l]);
    }
  }
};

/// Mlp::backward before it wrote into the cache's scratch (tanh nets):
/// adds to `grads`.
void reference_backward(const Mlp& net, const ForwardCache& cache, const Matrix& grad_output,
                        Gradients& grads) {
  const std::vector<Matrix>& weights = net.weights();
  const std::size_t layers = weights.size();
  Matrix grad = grad_output;
  for (std::size_t l = layers; l-- > 0;) {
    if (l + 1 != layers) {
      for (std::size_t i = 0; i < grad.data().size(); ++i) {
        const double y = cache.post_activations[l].data()[i];
        grad.data()[i] *= 1.0 - y * y;
      }
    }
    const Matrix& layer_input = l == 0 ? cache.input : cache.post_activations[l - 1];
    grads.weights[l] += reference_matmul_tn(layer_input, grad);
    for (std::size_t r = 0; r < grad.rows(); ++r) {
      const double* row = grad.row(r);
      double* b = grads.biases[l].row(0);
      for (std::size_t c = 0; c < grad.cols(); ++c) b[c] += row[c];
    }
    if (l > 0) grad = reference_matmul_nt(grad, weights[l]);
  }
}

enum class Fill { kRandom, kZeros, kNonFinite };

/// Gaussian entries; kZeros also sets every 5th to +0.0 and every 7th to
/// -0.0. kNonFinite has those zeros too and puts inf at the end of row 0,
/// -inf at the start of the last row and NaN in the middle: with a right
/// operand of several rows, column 0 of a @ b^T then mixes 0 * inf (NaN)
/// and x * inf (inf) terms in the last k, the k a skipped zero would miss.
Matrix fill_matrix(Rng& rng, std::size_t rows, std::size_t cols, Fill fill) {
  Matrix m = Matrix::randn(rng, rows, cols, 1.0);
  std::vector<double>& d = m.data();
  if (fill == Fill::kRandom) return m;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i % 5 == 0) d[i] = 0.0;
    if (i % 7 == 0) d[i] = -0.0;
  }
  if (fill == Fill::kNonFinite) {
    const double inf = std::numeric_limits<double>::infinity();
    m.at(rows - 1, 0) = -inf;
    m.at(rows / 2, cols / 2) = std::numeric_limits<double>::quiet_NaN();
    m.at(0, cols - 1) = inf;
  }
  return m;
}

/// Every element bit-identical (so +0.0 != -0.0). With `nan_matches_nan` a
/// NaN only has to meet a NaN: which NaN an operation returns depends on
/// its operand order, which the operation sequence does not fix.
::testing::AssertionResult identical(const Matrix& got, const Matrix& want,
                                     bool nan_matches_nan = false) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shape " << got.rows() << "x" << got.cols()
                                         << " != " << want.rows() << "x" << want.cols();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double g = got.data()[i];
    const double w = want.data()[i];
    if (nan_matches_nan && std::isnan(g) && std::isnan(w)) continue;
    if (std::memcmp(&g, &w, sizeof g) != 0) {
      return ::testing::AssertionFailure() << "element " << i << ": " << g << " != " << w;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult identical(const Gradients& got, const Gradients& want) {
  for (std::size_t l = 0; l < want.weights.size(); ++l) {
    if (auto r = identical(got.weights[l], want.weights[l]); !r) {
      return r << " (weights " << l << ")";
    }
    if (auto r = identical(got.biases[l], want.biases[l]); !r) {
      return r << " (biases " << l << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// Dimensions that are and are not multiples of four, the kernels' k block
// (columns of a for matmul_nt, rows for matmul_tn), and the PPO update's
// 64 x 256. matmul_nt takes 1 and 3 rows as direct dot products and 9 and
// 64 through the transpose.
constexpr std::pair<std::size_t, std::size_t> kShapes[] = {{1, 1}, {3, 5}, {9, 17}, {64, 256}};
constexpr std::size_t kOtherDims[] = {1, 17, 256};
constexpr Fill kFills[] = {Fill::kRandom, Fill::kZeros, Fill::kNonFinite};

TEST(KernelOracle, MatmulNtMatchesDotProducts) {
  Rng rng(5);
  Matrix out;
  Matrix b_t;  // reused across shapes, as the backward reuses them
  for (const auto& [rows, cols] : kShapes) {
    for (const std::size_t n : kOtherDims) {
      for (const Fill fill : kFills) {
        const Matrix a = fill_matrix(rng, rows, cols, fill);
        const Matrix b = fill_matrix(rng, n, cols, fill);
        matmul_nt(a, b, out, b_t);
        EXPECT_TRUE(identical(out, reference_matmul_nt(a, b), fill == Fill::kNonFinite))
            << rows << "x" << cols << " @ (" << n << "x" << cols << ")^T, fill "
            << static_cast<int>(fill);
      }
    }
  }
}

TEST(KernelOracle, MatmulTnMatchesReference) {
  Rng rng(6);
  Matrix out;
  for (const auto& [rows, cols] : kShapes) {
    for (const std::size_t n : kOtherDims) {
      for (const Fill fill : kFills) {
        const Matrix a = fill_matrix(rng, rows, cols, fill);
        const Matrix b = fill_matrix(rng, rows, n, fill);
        matmul_tn(a, b, out);
        EXPECT_TRUE(identical(out, reference_matmul_tn(a, b), fill == Fill::kNonFinite))
            << "(" << rows << "x" << cols << ")^T @ " << rows << "x" << n << ", fill "
            << static_cast<int>(fill);
      }
    }
  }
}

TEST(KernelOracle, FusedAdamMatchesTwoPassSteps) {
  Rng rng(13);
  MlpConfig cfg;
  cfg.input = 5;
  cfg.hidden = {9, 17};
  cfg.output = 3;
  Mlp net(cfg, rng);
  Gradients params = net.make_gradients();
  params.weights = net.weights();
  params.biases = net.biases();
  const Adam::Config config{.lr = 1e-2};
  Adam adam(net, config);
  ReferenceAdam reference{config, net.make_gradients(), net.make_gradients()};
  for (int step = 0; step < 3; ++step) {
    // The second step's gradient is far above max_grad_norm, so it is clipped.
    const double stddev = step == 1 ? 100.0 : 0.1;
    Gradients g = net.make_gradients();
    for (auto* blocks : {&g.weights, &g.biases}) {
      for (Matrix& m : *blocks) m = fill_matrix(rng, m.rows(), m.cols(), Fill::kZeros) *= stddev;
    }
    EXPECT_EQ(g.l2_norm() > config.max_grad_norm, step == 1);
    adam.step(net, g);
    reference.step(params, g);
    for (std::size_t l = 0; l < params.weights.size(); ++l) {
      EXPECT_TRUE(identical(net.weights()[l], params.weights[l])) << "step " << step;
      EXPECT_TRUE(identical(net.biases()[l], params.biases[l])) << "step " << step;
    }
  }
}

TEST(KernelOracle, BackwardMatchesReference) {
  Rng rng(21);
  MlpConfig cfg;
  cfg.input = 7;
  cfg.hidden = {9, 17};
  cfg.output = 4;
  Mlp net(cfg, rng);
  ForwardCache cache;  // one cache throughout: its scratch must not leak between calls
  Gradients accumulated = net.make_gradients();
  Gradients expected_accumulated = net.make_gradients();
  for (const std::size_t batch : {1, 3, 9}) {
    for (const Fill fill : {Fill::kRandom, Fill::kZeros}) {
      net.forward(fill_matrix(rng, batch, cfg.input, fill), &cache);
      const Matrix dy = fill_matrix(rng, batch, cfg.output, fill);
      Gradients grads = net.make_gradients();
      net.backward(cache, dy, grads);
      Gradients expected = net.make_gradients();
      reference_backward(net, cache, dy, expected);
      EXPECT_TRUE(identical(grads, expected)) << "batch " << batch;
      // Into gradients that already hold the earlier backwards' sums.
      net.backward(cache, dy, accumulated);
      reference_backward(net, cache, dy, expected_accumulated);
      EXPECT_TRUE(identical(accumulated, expected_accumulated)) << "accumulating, batch " << batch;
    }
  }
}

// A3C sums one backward per step into one Gradients: accumulating must give
// the bits of adding each fresh backward's gradients.
TEST(KernelOracle, BackwardAccumulatesAsAddingAFreshBackward) {
  Rng rng(17);
  MlpConfig cfg;
  cfg.input = 6;
  cfg.hidden = {9, 17};
  cfg.output = 4;
  Mlp net(cfg, rng);
  ForwardCache cache;
  Gradients acc = net.make_gradients();
  for (int step = 0; step < 4; ++step) {
    net.forward(fill_matrix(rng, 1, cfg.input, Fill::kRandom), &cache);
    const Matrix dy = fill_matrix(rng, 1, cfg.output, Fill::kRandom);
    Gradients fresh = net.make_gradients();
    net.backward(cache, dy, fresh);
    Gradients expected = acc;
    for (std::size_t l = 0; l < acc.weights.size(); ++l) {
      expected.weights[l] += fresh.weights[l];
      expected.biases[l] += fresh.biases[l];
    }
    net.backward(cache, dy, acc);
    EXPECT_TRUE(identical(acc, expected)) << "step " << step;
  }
}

TEST(Distributions, SoftmaxNormalised) {
  const double logits[4] = {1.0, 2.0, 3.0, 4.0};
  const auto p = softmax(logits, 4);
  double sum = 0;
  for (const double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(p[3], p[0]);
  EXPECT_NEAR(log_prob(logits, 4, 2), std::log(p[2]), 1e-12);
}

TEST(Distributions, LogProbGradSumsToZero) {
  const double logits[3] = {0.5, -1.0, 2.0};
  double grad[3];
  log_prob_grad(logits, 3, 1, grad);
  EXPECT_NEAR(grad[0] + grad[1] + grad[2], 0.0, 1e-12);
  EXPECT_GT(grad[1], 0.0);  // chosen index pushed up
}

TEST(Distributions, EntropyGradNumerical) {
  double logits[3] = {0.3, -0.7, 1.1};
  double grad[3];
  entropy_grad(logits, 3, grad);
  const double eps = 1e-6;
  for (int i = 0; i < 3; ++i) {
    logits[i] += eps;
    const double hp = entropy(logits, 3);
    logits[i] -= 2 * eps;
    const double hm = entropy(logits, 3);
    logits[i] += eps;
    EXPECT_NEAR(grad[i], (hp - hm) / (2 * eps), 1e-5);
  }
}

TEST(Distributions, SamplingFollowsProbabilities) {
  const double logits[2] = {0.0, 2.0};
  Rng rng(5);
  int count1 = 0;
  for (int i = 0; i < 5000; ++i) count1 += sample(logits, 2, rng) == 1 ? 1 : 0;
  const auto p = softmax(logits, 2);
  EXPECT_NEAR(count1 / 5000.0, p[1], 0.03);
}

TEST(Distributions, FactoredCategorical) {
  FactoredCategorical dist{3, 4};
  std::vector<double> logits(12, 0.0);
  logits[1] = 5.0;   // group 0 -> 1
  logits[4] = 5.0;   // group 1 -> 0
  logits[11] = 5.0;  // group 2 -> 3
  const auto choice = dist.argmax_all(logits.data());
  EXPECT_EQ(choice, (std::vector<std::size_t>{1, 0, 3}));
  EXPECT_NEAR(dist.log_prob_all(logits.data(), choice),
              log_prob(logits.data(), 4, 1) + log_prob(logits.data() + 4, 4, 0) +
                  log_prob(logits.data() + 8, 4, 3),
              1e-12);
}

TEST(Mlp, BackwardMatchesNumericalGradient) {
  Rng rng(11);
  MlpConfig cfg;
  cfg.input = 3;
  cfg.hidden = {5};
  cfg.output = 2;
  Mlp net(cfg, rng);

  Matrix x(2, 3);
  for (auto& v : x.data()) v = rng.normal();
  // Loss = sum of outputs (grad_output = ones).
  ForwardCache cache;
  net.forward(x, &cache);
  Gradients grads = net.make_gradients();
  Matrix ones(2, 2);
  ones.fill(1.0);
  net.backward(cache, ones, grads);

  // Numerical check on a few parameters via the flat interface.
  auto params = net.flatten();
  const double eps = 1e-6;
  auto loss_at = [&](const std::vector<double>& p) {
    Mlp probe = net;
    probe.assign(p);
    const Matrix out = probe.forward(x);
    double s = 0;
    for (const double v : out.data()) s += v;
    return s;
  };
  // Flatten analytic grads in the same order as flatten().
  std::vector<double> flat_grads;
  for (const auto& w : grads.weights) {
    flat_grads.insert(flat_grads.end(), w.data().begin(), w.data().end());
  }
  for (const auto& b : grads.biases) {
    flat_grads.insert(flat_grads.end(), b.data().begin(), b.data().end());
  }
  for (std::size_t idx : {std::size_t{0}, std::size_t{7}, params.size() - 1}) {
    auto p = params;
    p[idx] += eps;
    const double up = loss_at(p);
    p[idx] -= 2 * eps;
    const double down = loss_at(p);
    EXPECT_NEAR(flat_grads[idx], (up - down) / (2 * eps), 1e-4) << "param " << idx;
  }
}

TEST(Mlp, FlattenAssignRoundTrip) {
  Rng rng(2);
  MlpConfig cfg;
  cfg.input = 4;
  cfg.hidden = {8, 8};
  cfg.output = 3;
  Mlp a(cfg, rng);
  Mlp b(cfg, rng);
  b.assign(a.flatten());
  Matrix x(1, 4);
  x.at(0, 1) = 0.7;
  const Matrix ya = a.forward(x);
  const Matrix yb = b.forward(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(ya.at(0, i), yb.at(0, i));
  EXPECT_EQ(a.parameter_count(), 4 * 8 + 8 + 8 * 8 + 8 + 8 * 3 + 3);
}

TEST(Adam, ReducesQuadraticLoss) {
  // Fit y = 0 from random init: loss = ||f(x)||^2 on fixed input.
  Rng rng(9);
  MlpConfig cfg;
  cfg.input = 2;
  cfg.hidden = {8};
  cfg.output = 1;
  Mlp net(cfg, rng);
  Adam opt(net, {.lr = 0.01});
  Matrix x(4, 2);
  for (auto& v : x.data()) v = rng.normal();

  auto loss = [&]() {
    const Matrix y = net.forward(x);
    double s = 0;
    for (const double v : y.data()) s += v * v;
    return s;
  };
  const double initial = loss();
  for (int step = 0; step < 200; ++step) {
    ForwardCache cache;
    const Matrix y = net.forward(x, &cache);
    Matrix dy(4, 1);
    for (std::size_t i = 0; i < 4; ++i) dy.at(i, 0) = 2.0 * y.at(i, 0);
    Gradients g = net.make_gradients();
    net.backward(cache, dy, g);
    opt.step(net, g);
  }
  EXPECT_LT(loss(), initial * 0.05);
}

TEST(RandomForest, LearnsThresholdRule) {
  // y = x[2] > 0.5, with 5 noise features.
  Rng rng(4);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 600; ++i) {
    std::vector<double> row(6);
    for (auto& v : row) v = rng.uniform();
    y.push_back(row[2] > 0.5 ? 1 : 0);
    x.push_back(std::move(row));
  }
  RandomForest forest({.num_trees = 20, .max_depth = 6, .seed = 1});
  forest.fit(x, y);
  EXPECT_GT(forest.accuracy(x, y), 0.95);
  // Importance concentrated on feature 2.
  const auto& imp = forest.feature_importances();
  for (std::size_t f = 0; f < imp.size(); ++f) {
    if (f != 2) EXPECT_LT(imp[f], imp[2]);
  }
  double sum = 0;
  for (const double v : imp) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RandomForest, XorNeedsDepth) {
  // y = (x0 > 0.5) xor (x1 > 0.5): not separable by a depth-1 stump forest,
  // learnable with depth >= 2.
  Rng rng(8);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 800; ++i) {
    std::vector<double> row{rng.uniform(), rng.uniform()};
    y.push_back(((row[0] > 0.5) ^ (row[1] > 0.5)) ? 1 : 0);
    x.push_back(std::move(row));
  }
  RandomForest shallow({.num_trees = 15, .max_depth = 1, .features_per_split = 2, .seed = 2});
  shallow.fit(x, y);
  RandomForest deep({.num_trees = 15, .max_depth = 5, .features_per_split = 2, .seed = 2});
  deep.fit(x, y);
  EXPECT_GT(deep.accuracy(x, y), 0.9);
  EXPECT_GT(deep.accuracy(x, y), shallow.accuracy(x, y) + 0.2);
}

TEST(RandomForest, DegenerateLabels) {
  std::vector<std::vector<double>> x = {{1.0}, {2.0}, {3.0}};
  std::vector<int> y = {1, 1, 1};
  RandomForest forest({.num_trees = 3});
  forest.fit(x, y);
  EXPECT_GE(forest.predict({1.5}), 0.5);
}

}  // namespace
}  // namespace autophase::ml
