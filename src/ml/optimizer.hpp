// Adam, the optimiser of the policy/value networks (PPO as in RLlib's
// defaults, and the A3C workers' shared updates).
#pragma once

#include "ml/mlp.hpp"

namespace autophase::ml {

class Adam {
 public:
  struct Config {
    double lr = 5e-4;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
    double max_grad_norm = 10.0;  ///< global-norm clip; <=0 disables
  };

  Adam(const Mlp& model, Config config);

  /// Applies one descent step for loss gradients `grads` (minimisation).
  void step(Mlp& model, const Gradients& grads);

 private:
  Config config_;
  Gradients m_;
  Gradients v_;
  std::size_t t_ = 0;
};

}  // namespace autophase::ml
