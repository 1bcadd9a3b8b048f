#include "bo/constrained.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "acq/acq_optimizer.h"
#include "acq/acquisition.h"
#include "bo/ask_tell.h"
#include "common/error.h"
#include "gp/gp.h"
#include "gp/kernel.h"
#include "gp/normalizer.h"
#include "gp/trainer.h"
#include "sched/event_sim.h"

namespace easybo::bo {

namespace {

using linalg::Vec;

/// Feasibility-weighted EasyBO acquisition:
///   [ (1-w) mu_f(x) + w sigma_hat_f(x) - floor ] * prod_i P(g_i(x) >= 0)
/// The floor shift keeps the weighted term positive so the probability
/// product acts as a pure down-weight (a negative acquisition times a
/// small probability would otherwise *reward* infeasibility).
class FeasibleEasyBo final : public acq::AcquisitionFn {
 public:
  FeasibleEasyBo(const gp::Regressor* mean_model,
                 const gp::Regressor* var_model, double w, double floor,
                 const std::vector<gp::GpRegressor>* constraint_models)
      : base_(mean_model, var_model, w),
        floor_(floor),
        constraint_models_(constraint_models) {}

  double operator()(const Vec& x) const override {
    double value = std::max(base_(x) - floor_, 0.0) + 1e-12;
    for (const auto& model : *constraint_models_) {
      const auto p = model.predict(x);
      const double sd = std::max(p.stddev(), 1e-9);
      value *= acq::norm_cdf(p.mean / sd);
    }
    return value;
  }

 private:
  acq::WeightedUcb base_;
  double floor_;
  const std::vector<gp::GpRegressor>* constraint_models_;
};

/// Total violation (sum of negative slacks); 0 when feasible.
double violation(const Vec& gs) {
  double acc = 0.0;
  for (double g : gs) acc += std::max(-g, 0.0);
  return acc;
}

}  // namespace

ConstrainedResult run_constrained_bo(
    const BoConfig& config, const opt::Bounds& bounds,
    const opt::Objective& objective,
    const std::vector<Constraint>& constraints,
    const std::function<double(const Vec&)>& sim_time) {
  config.validate();
  bounds.validate();
  EASYBO_REQUIRE(static_cast<bool>(objective), "null objective");
  EASYBO_REQUIRE(!constraints.empty(),
                 "run_constrained_bo needs at least one constraint; use the "
                 "plain engine otherwise");
  for (const auto& c : constraints) {
    EASYBO_REQUIRE(static_cast<bool>(c.fn), "null constraint function");
  }
  EASYBO_REQUIRE(config.acq == AcqKind::EasyBo,
                 "constrained mode supports the EasyBO acquisition");
  EASYBO_REQUIRE(config.mode != Mode::SyncBatch,
                 "constrained mode supports Sequential and AsyncBatch");

  const std::size_t dim = bounds.dim();
  const std::size_t workers =
      config.mode == Mode::Sequential ? 1 : config.batch;
  Rng rng(config.seed);
  gp::BoxNormalizer box(bounds.lower, bounds.upper);
  auto sim = sim_time ? sim_time : [](const Vec&) { return 1.0; };

  // Objective model + one model per constraint. Constraint observations
  // are z-scored independently so Phi(mu/sigma) is scale-free only through
  // the data (the feasibility threshold 0 must be transformed too — we
  // therefore model RAW constraint values with a plain mean offset, i.e.
  // no target scaling, which keeps "g >= 0" meaningful).
  gp::GpRegressor obj_model(gp::make_kernel(config.kernel, dim), 1e-6);
  std::vector<gp::GpRegressor> con_models;
  con_models.reserve(constraints.size());
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    con_models.emplace_back(gp::make_kernel(config.kernel, dim), 1e-6);
  }

  std::vector<Vec> obs_x;   // unit space
  Vec obs_y;                // raw objective
  std::vector<Vec> obs_g;   // raw constraint vectors
  gp::ZScore zscore;
  std::size_t next_refit = config.init_points;
  std::size_t refits = 0;

  auto update_models = [&](bool force) {
    zscore.refit(obs_y);
    obj_model.set_data(obs_x, zscore.transform(obs_y));
    const bool train = force || obs_x.size() >= next_refit;
    for (std::size_t i = 0; i < con_models.size(); ++i) {
      Vec gi(obs_g.size());
      for (std::size_t k = 0; k < obs_g.size(); ++k) gi[k] = obs_g[k][i];
      con_models[i].set_data(obs_x, gi);
    }
    if (train) {
      gp::train_mle(obj_model, rng, config.trainer);
      for (auto& m : con_models) gp::train_mle(m, rng, config.trainer);
      ++refits;
      next_refit = std::max(
          obs_x.size() + config.refit_every,
          static_cast<std::size_t>(static_cast<double>(obs_x.size()) * 1.5));
    } else {
      obj_model.fit();
      for (auto& m : con_models) m.fit();
    }
  };

  // Incumbent: best feasible; fallback: least-infeasible.
  auto incumbent = [&]() -> std::size_t {
    std::size_t best_feasible = obs_x.size();
    std::size_t least_bad = 0;
    double best_y = -std::numeric_limits<double>::infinity();
    double least_violation = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < obs_x.size(); ++k) {
      const double v = violation(obs_g[k]);
      if (v == 0.0 && obs_y[k] > best_y) {
        best_y = obs_y[k];
        best_feasible = k;
      }
      if (v < least_violation) {
        least_violation = v;
        least_bad = k;
      }
    }
    return best_feasible < obs_x.size() ? best_feasible : least_bad;
  };

  auto propose = [&](const std::vector<Vec>& pending) {
    const double w = acq::sample_easybo_weight(rng, config.lambda);
    // Floor: minimum of the weighted term over the observed data keeps the
    // acquisition non-negative without distorting its ordering.
    double floor = std::numeric_limits<double>::infinity();
    for (const auto& x : obs_x) {
      const auto p = obj_model.predict(x);
      floor = std::min(floor, (1.0 - w) * p.mean + w * p.stddev());
    }
    std::unique_ptr<gp::Regressor> hallucinated;
    const gp::Regressor* var_model = &obj_model;
    if (config.penalize && !pending.empty()) {
      // Zero-copy overlay; historical unpinned-mean semantics (the
      // constrained runner predates BoConfig::pin_hallucinated_mean).
      hallucinated = obj_model.hallucinate(pending, /*pin_mean=*/false);
      var_model = hallucinated.get();
    }
    const FeasibleEasyBo fn(&obj_model, var_model, w, floor, &con_models);
    const std::vector<Vec> anchors = {obs_x[incumbent()]};
    return acq::maximize_acquisition(fn, dim, rng, anchors, config.acq_opt)
        .best_x;
  };

  // --- Run on the virtual scheduler (same structure as BoEngine). ---
  sched::VirtualScheduler pool(workers);
  ConstrainedResult result;
  std::vector<Vec> prop_x;
  Vec prop_y;
  std::vector<Vec> prop_g;
  std::vector<bool> prop_init;

  auto submit = [&](Vec unit_x, bool is_init) {
    const Vec x = box.from_unit(unit_x);
    const std::size_t tag = prop_x.size();
    prop_x.push_back(std::move(unit_x));
    prop_y.push_back(objective(x));
    Vec g(constraints.size());
    for (std::size_t i = 0; i < constraints.size(); ++i) {
      g[i] = constraints[i].fn(x);
    }
    prop_g.push_back(std::move(g));
    prop_init.push_back(is_init);
    pool.submit(tag, sim(x));
  };
  auto absorb = [&](const sched::JobRecord& job) {
    obs_x.push_back(prop_x[job.tag]);
    obs_y.push_back(prop_y[job.tag]);
    obs_g.push_back(prop_g[job.tag]);
    EvalRecord rec;
    rec.x = box.from_unit(prop_x[job.tag]);
    rec.y = prop_y[job.tag];
    rec.start = job.start;
    rec.finish = job.finish;
    rec.worker = job.worker;
    rec.is_init = prop_init[job.tag];
    result.evals.push_back(std::move(rec));
  };

  // Initial design.
  std::size_t issued = 0;
  while (obs_x.size() < config.init_points) {
    while (pool.has_idle_worker() && issued < config.init_points) {
      submit(rng.uniform_vector(dim), /*is_init=*/true);
      ++issued;
    }
    absorb(pool.wait_next());
  }
  update_models(/*force=*/true);

  // Asynchronous (or sequential, workers == 1) main loop. In-flight
  // proposals are keyed by tag (ascending = suggestion order), never by
  // value, and every proposal is deduplicated against observed and
  // in-flight points exactly as AskTellCore does: an incumbent anchor can
  // survive refinement unchanged, and maxima clamped to the same corner
  // coincide.
  std::set<std::size_t> pending;
  auto issue = [&] {
    std::vector<Vec> busy;
    busy.reserve(pending.size());
    for (const std::size_t tag : pending) busy.push_back(prop_x[tag]);
    Vec x = dedup_proposal(propose(busy), obs_x, busy, rng);
    pending.insert(prop_x.size());
    submit(std::move(x), /*is_init=*/false);
    ++issued;
  };
  while (pool.has_idle_worker() && issued < config.max_sims) issue();
  while (pool.num_running() > 0) {
    const auto job = pool.wait_next();
    absorb(job);
    pending.erase(job.tag);
    update_models(false);
    if (issued < config.max_sims) issue();
  }

  result.makespan = pool.now();
  result.total_sim_time = pool.total_busy_time();
  result.hyper_refits = refits;
  const std::size_t inc = incumbent();
  result.best_x = box.from_unit(obs_x[inc]);
  result.best_y = obs_y[inc];
  result.best_constraints = obs_g[inc];
  result.found_feasible = violation(obs_g[inc]) == 0.0;
  for (const auto& g : obs_g) {
    if (violation(g) == 0.0) ++result.num_feasible;
  }
  return result;
}

}  // namespace easybo::bo
