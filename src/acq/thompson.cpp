#include "acq/thompson.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "linalg/cholesky.h"

namespace easybo::acq {

std::size_t thompson_sample_argmax(const gp::Regressor& model,
                                   const std::vector<Vec>& candidates,
                                   easybo::Rng& rng) {
  EASYBO_REQUIRE(!candidates.empty(), "thompson: no candidates");
  EASYBO_REQUIRE(model.fitted(), "thompson: model not fitted");
  // The joint draw lives in the model (the base GP or its hallucinated
  // overlay); this wrapper only picks the maximizer.
  const Vec f = model.sample_posterior(candidates, rng);
  std::size_t best = 0;
  double best_value = -1e300;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (f[i] > best_value) {
      best_value = f[i];
      best = i;
    }
  }
  return best;
}

HedgePortfolio::HedgePortfolio(double eta)
    : eta_(eta), gains_(kMembers, 0.0) {
  EASYBO_REQUIRE(eta > 0.0, "HedgePortfolio: eta must be positive");
}

std::size_t HedgePortfolio::choose(easybo::Rng& rng) const {
  // Softmax with the max subtracted for numerical stability.
  const double top = *std::max_element(gains_.begin(), gains_.end());
  Vec p(kMembers);
  double total = 0.0;
  for (std::size_t i = 0; i < kMembers; ++i) {
    p[i] = std::exp(eta_ * (gains_[i] - top));
    total += p[i];
  }
  double u = rng.uniform() * total;
  for (std::size_t i = 0; i < kMembers; ++i) {
    u -= p[i];
    if (u <= 0.0) return i;
  }
  return kMembers - 1;
}

void HedgePortfolio::set_gains(const Vec& gains) {
  EASYBO_REQUIRE(gains.size() == kMembers,
                 "HedgePortfolio::set_gains: one gain per member");
  gains_ = gains;
}

void HedgePortfolio::reward(const Vec& nominee_means) {
  EASYBO_REQUIRE(nominee_means.size() == kMembers,
                 "HedgePortfolio::reward: one mean per member");
  for (std::size_t i = 0; i < kMembers; ++i) {
    gains_[i] += nominee_means[i];
  }
  // Rescale to keep the softmax well-conditioned over long runs.
  const double top = *std::max_element(gains_.begin(), gains_.end());
  if (top > 50.0) {
    for (auto& g : gains_) g -= top - 50.0;
  }
}

}  // namespace easybo::acq
