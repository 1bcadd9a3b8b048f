#pragma once
/// \file session_config.h
/// \brief Wire-format session configuration for the session host.
///
/// A session is created with one JSON object (the `NEW` command's
/// argument, docs/service-protocol.md). This module is the single
/// translation point between that wire object and {BoConfig, Bounds} —
/// the server parses with it AND clients (the load-generator bench, the
/// smoke tests) serialize with it, so a client that wants to predict a
/// session's proposal stream bit-for-bit can build the identical BoConfig
/// for a standalone BoEngine run. The parsed config is also what gets
/// fingerprinted into the session's checkpoint files, so a config file
/// that round-trips through here resumes cleanly.
///
/// Only the knobs that make sense across a process boundary are exposed;
/// notably there is no checkpoint_path (the host owns file placement) and
/// on_eval_failure cannot be "abort" (the protocol reports failures as
/// replies, it has no abort channel — sessions default to "discard").

#include <string>

#include "bo/config.h"
#include "opt/objective.h"

namespace easybo::serve {

/// Everything a session needs that came over the wire.
struct SessionSpec {
  bo::BoConfig config;
  opt::Bounds bounds;
};

/// Parses one session-config JSON object. Requires either "dim" (bounds
/// default to [0,1]^dim) or explicit "lower"/"upper" arrays. Optional
/// keys (BoConfig defaults apply, except on_eval_failure which defaults
/// to "discard" for sessions): "seed", "mode"
/// (sequential|sync|async), "acq" (EI|LCB|EasyBO|pBO|pHCBO|BUCB|LP),
/// "penalize", "batch", "init_points", "max_sims", "lambda",
/// "uniform_w", "lcb_kappa", "ei_xi", "hc_d", "hc_n", "kernel",
/// "refit_every", "on_eval_failure" (discard|penalize),
/// "eval_failure_quantile", "sobol_candidates", "random_candidates",
/// "refine_evals", "trainer_max_iters", "trainer_restarts",
/// "adapt_refit_cadence", "adapt_refit_budget". Keys of removed knobs
/// are accepted only at the one value every persisted config carries
/// them with: "gp_backend" ("exact"), "rff_features" (128),
/// "rff_train_subset" (512), "pin_hallucinated_mean" and
/// "async_slot_rotation" (false); "checkpoint_every" is accepted as a
/// non-negative integer and ignored; the removed acquisitions "TS" and
/// "Hedge" are refused by name. An unknown key is an error (a typo
/// would otherwise silently change the proposal stream). Throws
/// easybo::Error on malformed input; the result is validate()d.
SessionSpec parse_session_config(const std::string& json_text);

/// Serializes \p config + \p bounds to the wire object parse reads back.
/// parse(serialize(spec)) reproduces the spec exactly — the round trip
/// the load generator relies on for bit-identical parity runs. Throws
/// easybo::Error when the config uses a knob the wire format cannot
/// carry (a non-default value of anything not listed above).
std::string session_config_json(const bo::BoConfig& config,
                                const opt::Bounds& bounds);

}  // namespace easybo::serve
