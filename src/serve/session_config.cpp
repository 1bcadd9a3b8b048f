#include "serve/session_config.h"

#include <climits>
#include <set>
#include <string>
#include <utility>

#include "common/error.h"
#include "io/json.h"

namespace easybo::serve {

namespace {

using bo::AcqKind;
using bo::EvalFailurePolicy;
using bo::Mode;
using io::JsonValue;

std::size_t size_from(const JsonValue& v, const std::string& key,
                      std::uint64_t max = io::kJsonMaxInteger) {
  return io::uint_from(v, "session config", key, max);
}

Mode mode_from(const std::string& name) {
  if (name == "sequential") return Mode::Sequential;
  if (name == "sync") return Mode::SyncBatch;
  if (name == "async") return Mode::AsyncBatch;
  throw Error("session config: unknown mode \"" + name +
              "\" (expected sequential|sync|async)");
}

AcqKind acq_from(const std::string& name) {
  if (name == "EI") return AcqKind::Ei;
  if (name == "LCB") return AcqKind::Lcb;
  if (name == "EasyBO") return AcqKind::EasyBo;
  if (name == "pBO") return AcqKind::Pbo;
  if (name == "pHCBO") return AcqKind::Phcbo;
  if (name == "BUCB") return AcqKind::Bucb;
  if (name == "LP") return AcqKind::Lp;
  if (name == "TS" || name == "Hedge") {
    throw Error("session config: acq \"" + name +
                "\" was removed (expected EI|LCB|EasyBO|pBO|pHCBO|BUCB|LP)");
  }
  throw Error("session config: unknown acq \"" + name +
              "\" (expected EI|LCB|EasyBO|pBO|pHCBO|BUCB|LP)");
}

EvalFailurePolicy failure_from(const std::string& name) {
  if (name == "discard") return EvalFailurePolicy::Discard;
  if (name == "penalize") return EvalFailurePolicy::Penalize;
  if (name == "abort") {
    throw Error(
        "session config: on_eval_failure \"abort\" is not available over "
        "the session protocol (failures are reported as replies, there is "
        "no abort channel); use discard or penalize");
  }
  throw Error("session config: unknown on_eval_failure \"" + name +
              "\" (expected discard|penalize)");
}

/// Keys of removed knobs: the random-Fourier-feature surrogate's three and
/// the pin_hallucinated_mean / async_slot_rotation switches. Configs
/// persisted while they existed carry them at the values of today's one
/// behaviour; accept exactly those so such sessions keep resuming, and
/// refuse anything else by name rather than silently serving a different
/// stream.
void check_removed_backend_keys(const JsonValue& j) {
  if (const JsonValue* v = j.find("gp_backend")) {
    if (v->as_string() != "exact") {
      throw Error("session config: gp_backend \"" + v->as_string() +
                  "\" was removed (the exact GP is the only surrogate)");
    }
  }
  const std::pair<const char*, std::size_t> frozen[] = {
      {"rff_features", 128}, {"rff_train_subset", 512}};
  for (const auto& [key, value] : frozen) {
    const JsonValue* v = j.find(key);
    if (v != nullptr && size_from(*v, key) != value) {
      throw Error("session config: " + std::string(key) + " " +
                  io::json_number(v->as_double()) +
                  " was removed with the RFF backend (only " +
                  std::to_string(value) + " is accepted)");
    }
  }
  for (const char* key : {"pin_hallucinated_mean", "async_slot_rotation"}) {
    const JsonValue* v = j.find(key);
    if (v != nullptr && v->as_bool()) {
      throw Error("session config: " + std::string(key) +
                  " was removed (only false is accepted)");
    }
  }
}

// Every key parse_session_config understands; anything else is a typo
// that would silently change the proposal stream.
const std::set<std::string>& known_keys() {
  static const std::set<std::string> keys = {
      "dim",           "lower",
      "upper",         "seed",
      "mode",          "acq",
      "penalize",      "batch",
      "init_points",   "max_sims",
      "lambda",        "uniform_w",
      "lcb_kappa",     "ei_xi",
      "hc_d",          "hc_n",
      "kernel",        "refit_every",
      "gp_backend",    "rff_features",
      "rff_train_subset",
      "pin_hallucinated_mean",
      "checkpoint_every",
      "async_slot_rotation",
      "on_eval_failure",
      "eval_failure_quantile",
      "sobol_candidates",
      "random_candidates",
      "refine_evals",  "trainer_max_iters",
      "trainer_restarts",
      "adapt_refit_cadence",
      "adapt_refit_budget"};
  return keys;
}

}  // namespace

SessionSpec parse_session_config(const std::string& json_text) {
  const JsonValue j = io::parse_json(json_text);
  for (const auto& [key, value] : j.as_members()) {
    (void)value;
    if (known_keys().count(key) == 0) {
      throw Error("session config: unknown key \"" + key + "\"");
    }
  }

  SessionSpec spec;
  // Sessions default to Discard: the protocol has no abort channel.
  spec.config.on_eval_failure = EvalFailurePolicy::Discard;

  if (const JsonValue* lower = j.find("lower")) {
    spec.bounds.lower = io::vec_from(*lower);
    spec.bounds.upper = io::vec_from(j.at("upper"));
    if (const JsonValue* dim = j.find("dim")) {
      if (size_from(*dim, "dim") != spec.bounds.lower.size()) {
        throw Error(
            "session config: \"dim\" contradicts the length of "
            "\"lower\"/\"upper\"");
      }
    }
  } else {
    const std::size_t dim = size_from(j.at("dim"), "dim");
    if (dim == 0) throw Error("session config: \"dim\" must be positive");
    spec.bounds.lower.assign(dim, 0.0);
    spec.bounds.upper.assign(dim, 1.0);
  }

  if (const JsonValue* v = j.find("seed")) {
    // u64 seeds cross the wire as decimal strings (JSON numbers are
    // doubles); small seeds may come as plain numbers.
    if (v->kind() != JsonValue::Kind::String) {
      spec.config.seed = static_cast<std::uint64_t>(size_from(*v, "seed"));
    } else {
      try {
        spec.config.seed = io::parse_u64(v->as_string());
      } catch (const Error& e) {
        throw Error(std::string("session config: \"seed\": ") + e.what());
      }
    }
  }
  if (const JsonValue* v = j.find("mode")) {
    spec.config.mode = mode_from(v->as_string());
  }
  if (const JsonValue* v = j.find("acq")) {
    spec.config.acq = acq_from(v->as_string());
  }
  if (const JsonValue* v = j.find("penalize")) {
    spec.config.penalize = v->as_bool();
  }
  if (const JsonValue* v = j.find("batch")) {
    spec.config.batch = size_from(*v, "batch");
  }
  if (const JsonValue* v = j.find("init_points")) {
    spec.config.init_points = size_from(*v, "init_points");
  }
  if (const JsonValue* v = j.find("max_sims")) {
    spec.config.max_sims = size_from(*v, "max_sims");
  }
  if (const JsonValue* v = j.find("lambda")) {
    spec.config.lambda = v->as_double();
  }
  if (const JsonValue* v = j.find("uniform_w")) {
    spec.config.uniform_w = v->as_bool();
  }
  if (const JsonValue* v = j.find("lcb_kappa")) {
    spec.config.lcb_kappa = v->as_double();
  }
  if (const JsonValue* v = j.find("ei_xi")) {
    spec.config.ei_xi = v->as_double();
  }
  if (const JsonValue* v = j.find("hc_d")) {
    spec.config.hc_d = v->as_double();
  }
  if (const JsonValue* v = j.find("hc_n")) {
    spec.config.hc_n = v->as_double();
  }
  if (const JsonValue* v = j.find("kernel")) {
    spec.config.kernel = v->as_string();
  }
  check_removed_backend_keys(j);
  if (const JsonValue* v = j.find("refit_every")) {
    spec.config.refit_every = size_from(*v, "refit_every");
  }
  // The engine's retired snapshot cadence: configs that carry it keep
  // parsing, and no session ever read it.
  if (const JsonValue* v = j.find("checkpoint_every")) {
    (void)size_from(*v, "checkpoint_every");
  }
  if (const JsonValue* v = j.find("on_eval_failure")) {
    spec.config.on_eval_failure = failure_from(v->as_string());
  }
  if (const JsonValue* v = j.find("eval_failure_quantile")) {
    spec.config.eval_failure_quantile = v->as_double();
  }
  if (const JsonValue* v = j.find("sobol_candidates")) {
    spec.config.acq_opt.sobol_candidates = size_from(*v, "sobol_candidates");
  }
  if (const JsonValue* v = j.find("random_candidates")) {
    spec.config.acq_opt.random_candidates =
        size_from(*v, "random_candidates");
  }
  if (const JsonValue* v = j.find("refine_evals")) {
    spec.config.acq_opt.refine_evals = size_from(*v, "refine_evals");
  }
  if (const JsonValue* v = j.find("trainer_max_iters")) {
    spec.config.trainer.max_iters =
        static_cast<int>(size_from(*v, "trainer_max_iters", INT_MAX));
  }
  if (const JsonValue* v = j.find("trainer_restarts")) {
    spec.config.trainer.restarts =
        static_cast<int>(size_from(*v, "trainer_restarts", INT_MAX));
  }
  if (const JsonValue* v = j.find("adapt_refit_cadence")) {
    spec.config.adapt_refit_cadence = v->as_bool();
  }
  if (const JsonValue* v = j.find("adapt_refit_budget")) {
    spec.config.adapt_refit_budget = v->as_double();
  }

  spec.config.validate();
  spec.bounds.validate();
  return spec;
}

std::string session_config_json(const bo::BoConfig& config,
                                const opt::Bounds& bounds) {
  if (config.on_eval_failure == EvalFailurePolicy::Abort) {
    throw Error(
        "session config: on_eval_failure \"abort\" is not available over "
        "the session protocol; use discard or penalize");
  }
  if (!config.checkpoint_path.empty()) {
    throw Error(
        "session config: checkpoint_path is owned by the session host and "
        "cannot cross the wire");
  }
  std::string s = "{";
  auto put = [&s](const std::string& key, const std::string& value) {
    if (s.size() > 1) s += ",";
    s += io::json_quote(key) + ":" + value;
  };
  put("dim", io::json_number(static_cast<double>(bounds.dim())));
  put("lower", io::json_vec(bounds.lower));
  put("upper", io::json_vec(bounds.upper));
  put("seed", io::json_quote(io::json_u64(config.seed)));
  put("mode", io::json_quote(to_string(config.mode)));
  put("acq", io::json_quote(to_string(config.acq)));
  put("penalize", config.penalize ? "true" : "false");
  put("batch", io::json_number(static_cast<double>(config.batch)));
  put("init_points",
      io::json_number(static_cast<double>(config.init_points)));
  put("max_sims", io::json_number(static_cast<double>(config.max_sims)));
  put("lambda", io::json_number(config.lambda));
  put("uniform_w", config.uniform_w ? "true" : "false");
  put("lcb_kappa", io::json_number(config.lcb_kappa));
  put("ei_xi", io::json_number(config.ei_xi));
  put("hc_d", io::json_number(config.hc_d));
  put("hc_n", io::json_number(config.hc_n));
  put("kernel", io::json_quote(config.kernel));
  put("refit_every",
      io::json_number(static_cast<double>(config.refit_every)));
  put("on_eval_failure", io::json_quote(to_string(config.on_eval_failure)));
  put("eval_failure_quantile",
      io::json_number(config.eval_failure_quantile));
  put("sobol_candidates",
      io::json_number(static_cast<double>(config.acq_opt.sobol_candidates)));
  put("random_candidates",
      io::json_number(
          static_cast<double>(config.acq_opt.random_candidates)));
  put("refine_evals",
      io::json_number(static_cast<double>(config.acq_opt.refine_evals)));
  put("trainer_max_iters",
      io::json_number(static_cast<double>(config.trainer.max_iters)));
  put("trainer_restarts",
      io::json_number(static_cast<double>(config.trainer.restarts)));
  put("adapt_refit_cadence", config.adapt_refit_cadence ? "true" : "false");
  put("adapt_refit_budget", io::json_number(config.adapt_refit_budget));
  return s + "}";
}

}  // namespace easybo::serve
