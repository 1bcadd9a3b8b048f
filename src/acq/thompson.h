#pragma once
/// \file thompson.h
/// \brief Thompson sampling and the GP-Hedge acquisition portfolio —
/// the remaining two acquisition families the paper surveys in §II-B
/// ([30] Thompson 1933; [31] Hoffman et al., UAI'11).

#include <vector>

#include "acq/acquisition.h"
#include "common/rng.h"

namespace easybo::acq {

/// Draws one joint sample of the GP posterior over \p candidates and
/// returns the index of its maximizer. This is one Thompson-sampling
/// proposal: inherently randomized, so a batch of B draws is diverse by
/// construction — an alternative diversity mechanism to EasyBO's
/// randomized w.
///
/// Cost: O(m^2 n + m^3) — posterior cross-covariances plus a Cholesky of
/// the m x m posterior covariance; keep m at a few hundred.
std::size_t thompson_sample_argmax(const gp::Regressor& model,
                                   const std::vector<Vec>& candidates,
                                   easybo::Rng& rng);

/// GP-Hedge portfolio over {EI, PI, UCB}: each member nominates its own
/// maximizer each round; the portfolio picks one nominee with probability
/// softmax(eta * gain_i) and afterwards rewards every member by the GP
/// posterior mean at its nominee. Members that keep nominating good
/// regions accumulate gain and get chosen more often.
class HedgePortfolio {
 public:
  /// \param eta  softmax temperature of the Hedge update.
  explicit HedgePortfolio(double eta = 1.0);

  static constexpr std::size_t kMembers = 3;  // EI, PI, UCB

  /// Selects the next query point. \p nominees must contain one candidate
  /// per member, in member order (EI, PI, UCB); returns the chosen index.
  std::size_t choose(easybo::Rng& rng) const;

  /// Hedge update after the model was refreshed: \p nominee_means holds
  /// the current posterior mean at each member's last nominee.
  void reward(const Vec& nominee_means);

  const Vec& gains() const { return gains_; }

  /// Restores gains captured by gains() (checkpoint resume). Requires
  /// exactly kMembers entries.
  void set_gains(const Vec& gains);

 private:
  double eta_;
  Vec gains_;
};

}  // namespace easybo::acq
