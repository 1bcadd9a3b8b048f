#include "opt/objective.h"

#include <memory>
#include <utility>

#include "common/error.h"

namespace easybo::opt {

void Bounds::validate() const {
  EASYBO_REQUIRE(!lower.empty(), "Bounds: empty domain");
  EASYBO_REQUIRE(lower.size() == upper.size(), "Bounds: size mismatch");
  for (std::size_t i = 0; i < lower.size(); ++i) {
    EASYBO_REQUIRE(lower[i] < upper[i],
                   "Bounds: requires lower < upper in every dimension");
  }
}

Objective make_weighted_fom(std::vector<Objective> metrics,
                            std::vector<double> weights) {
  EASYBO_REQUIRE(!metrics.empty(), "weighted FOM needs at least one metric");
  EASYBO_REQUIRE(metrics.size() == weights.size(),
                 "weighted FOM: one weight per metric");
  for (const auto& m : metrics) {
    EASYBO_REQUIRE(static_cast<bool>(m), "weighted FOM: null metric");
  }
  // Shared state so the returned callable is cheaply copyable.
  auto shared =
      std::make_shared<std::pair<std::vector<Objective>, std::vector<double>>>(
          std::move(metrics), std::move(weights));
  return [shared](const Vec& x) {
    double fom = 0.0;
    for (std::size_t i = 0; i < shared->first.size(); ++i) {
      fom += shared->second[i] * shared->first[i](x);
    }
    return fom;
  };
}

}  // namespace easybo::opt
