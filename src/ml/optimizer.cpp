#include "ml/optimizer.hpp"

#include <cmath>

namespace autophase::ml {

Adam::Adam(const Mlp& model, Config config)
    : config_(config), m_(model.make_gradients()), v_(model.make_gradients()) {}

void Adam::step(Mlp& model, const Gradients& grads) {
  ++t_;
  double clip = 1.0;  // multiplier that clips grads to max_grad_norm
  if (config_.max_grad_norm > 0.0) {
    const double norm = grads.l2_norm();
    if (norm > config_.max_grad_norm) clip = config_.max_grad_norm / norm;
  }
  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  const double b1 = config_.beta1;
  const double b2 = config_.beta2;
  const double eps = config_.epsilon;
  const double scale = -config_.lr;

  // One pass per block that moves both moments and the weight. Each element
  // keeps the operations of a separate update pass: the bias corrections
  // stay divisions (a reciprocal multiply rounds differently) and the weight
  // gains update * (-lr).
  auto step_block = [&](Matrix& w, Matrix& m, Matrix& v, const Matrix& g) {
    double* wd = w.data().data();
    double* md = m.data().data();
    double* vd = v.data().data();
    const double* gd = g.data().data();
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double gi = gd[i] * clip;
      md[i] = b1 * md[i] + (1.0 - b1) * gi;
      vd[i] = b2 * vd[i] + (1.0 - b2) * gi * gi;
      const double mhat = md[i] / bc1;
      const double vhat = vd[i] / bc2;
      wd[i] += mhat / (std::sqrt(vhat) + eps) * scale;
    }
  };
  for (std::size_t l = 0; l < model.weights_.size(); ++l) {
    step_block(model.weights_[l], m_.weights[l], v_.weights[l], grads.weights[l]);
    step_block(model.biases_[l], m_.biases[l], v_.biases[l], grads.biases[l]);
  }
}

}  // namespace autophase::ml
