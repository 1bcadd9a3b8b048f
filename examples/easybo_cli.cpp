/// \file easybo_cli.cpp
/// \brief Command-line front end: run any algorithm of the paper's roster
/// on any built-in benchmark without writing code.
///
/// Usage:
///   easybo_cli [--problem opamp|classe|branin|ackley|hartmann6]
///              [--algo easybo|easybo-a|easybo-s|easybo-sp|pbo|phcbo|
///                      bucb|lp|ei|lcb|de|pso|sa|random]
///              [--batch N] [--sims N] [--init N] [--seed N]
///              [--lambda X] [--kernel se|matern52] [--csv]
///              [--metrics-json FILE] [--metrics-csv FILE]
///              [--on-failure abort|discard|penalize] [--eval-timeout S]
///              [--eval-retries N] [--fail-quantile Q]
///              [--inject-throw-every N] [--inject-nan-every N]
///              [--inject-slow-every N] [--inject-sleep-ms MS]
///              [--checkpoint PATH] [--resume PATH] [--stream FILE]
///              [--adapt-refit-cadence] [--adapt-refit-budget R]
///
/// Prints the best result, virtual wall-clock and (with --csv) the
/// per-evaluation trace as CSV on stdout for external plotting.
/// --metrics-json / --metrics-csv export the engine-room observability
/// report (src/obs: per-phase timers, Cholesky refactor/extend counters,
/// per-worker busy/idle, per-eval outcomes); FILE "-" writes to stdout.
/// The --on-failure / --eval-* flags configure the fault-tolerant
/// evaluation pipeline and the --inject-* flags add deterministic faults
/// for studying it (docs/failure-model.md; EXPERIMENTS.md "fault
/// injection" recipe). --checkpoint journals every suggestion and every
/// evaluation to PATH.journal and snapshots engine state to PATH.snapshot
/// at the start and after each hyperparameter refit; --resume continues
/// a killed run from those files (docs/checkpoint-format.md).
/// --stream FILE emits live "easybo.stream.v1" JSONL telemetry frames to
/// FILE while the run is in flight (docs/telemetry.md; tail it with
/// scripts/obs_tail.py). --adapt-refit-cadence lets measured refit/eval
/// cost stretch the hyper-refit schedule mid-run (proposals are then
/// machine-dependent; see docs/boconfig-reference.md).
/// SIGINT/SIGTERM stop the run gracefully: in-flight evaluations drain
/// into the journal and the process exits 5. A second signal kills
/// immediately (the journal keeps completed work safe either way).
/// BO algorithms only.
///
/// Exit codes (see README.md):
///   0  success
///   1  runtime or I/O error (metrics file unwritable, a journal or
///      snapshot that cannot be written, internal error)
///   2  bad arguments
///   3  an evaluation failure aborted the run (--on-failure abort)
///   4  checkpoint/journal corrupt or mismatched on --resume
///   5  interrupted by SIGINT/SIGTERM (journal complete when journaling)

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "circuit/fault_injection.h"
#include "common/format.h"
#include "core/easybo.h"
#include "io/journal.h"
#include "io/json.h"
#include "obs/stream.h"

namespace {

using namespace easybo;

struct CliOptions {
  std::string problem = "opamp";
  std::string algo = "easybo";
  std::size_t batch = 5;
  std::size_t sims = 0;  // 0: benchmark default
  std::size_t init = 20;
  std::uint64_t seed = 1;
  double lambda = 6.0;
  std::string kernel = "se";
  bool csv = false;
  std::string metrics_json;  // empty: off; "-": stdout
  std::string metrics_csv;   // empty: off; "-": stdout
  std::string on_failure = "abort";
  double eval_timeout = 0.0;
  std::size_t eval_retries = 0;
  double fail_quantile = 0.0;
  circuit::FaultPlan faults;  // --inject-*: all channels off by default
  std::string checkpoint;     // empty: no journaling
  std::string resume;         // empty: fresh run
  std::string stream;         // empty: no live telemetry stream
  bool adapt_refit_cadence = false;
  double adapt_refit_budget = 0.1;
};

// Set by the SIGINT/SIGTERM handler; polled by the engine at loop
// boundaries (BoEngine::set_stop_token).
std::atomic<bool> g_stop{false};

extern "C" void on_signal(int sig) {
  g_stop.store(true);
  // A second signal means "now": fall back to the default disposition so
  // it terminates the process. Completed evaluations are already fsync'd
  // in the journal, so even the hard kill loses nothing durable.
  std::signal(sig, SIG_DFL);
}

/// Writes \p text to \p path, or to stdout when path is "-".
bool write_text(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    std::fputc('\n', stdout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << text << '\n';
  return true;
}

[[noreturn]] void usage_and_exit() {
  std::fprintf(
      stderr,
      "usage: easybo_cli [--problem opamp|classe|branin|ackley|hartmann6]\n"
      "                  [--algo easybo|easybo-a|easybo-s|easybo-sp|pbo|\n"
      "                          phcbo|bucb|lp|ei|lcb|de|pso|sa|random]\n"
      "                  [--batch N] [--sims N] [--init N] [--seed N]\n"
      "                  [--lambda X] [--kernel se|matern52] [--csv]\n"
      "                  [--metrics-json FILE] [--metrics-csv FILE]\n"
      "                  [--on-failure abort|discard|penalize]\n"
      "                  [--eval-timeout S] [--eval-retries N]\n"
      "                  [--fail-quantile Q] [--inject-throw-every N]\n"
      "                  [--inject-nan-every N] [--inject-slow-every N]\n"
      "                  [--inject-sleep-ms MS] [--checkpoint PATH]\n"
      "                  [--resume PATH] [--stream FILE]\n"
      "                  [--adapt-refit-cadence] [--adapt-refit-budget R]\n");
  std::exit(2);
}

CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit();
      return argv[++i];
    };
    // A flag fed "banana", "-5" or "12x" where a number belongs is a
    // usage error (exit 2) naming the flag — never a wrapped budget or a
    // silently truncated value. Ranges are BoConfig::validate()'s.
    auto next_u64 = [&]() -> std::uint64_t {
      const std::string s = next();
      try {
        return io::parse_u64(s);
      } catch (const std::exception&) {
        std::fprintf(stderr, "%s: expected a non-negative integer, got '%s'\n",
                     arg.c_str(), s.c_str());
        usage_and_exit();
      }
    };
    auto next_size = [&]() -> std::size_t {
      return static_cast<std::size_t>(next_u64());
    };
    auto next_double = [&]() -> double {
      const std::string s = next();
      try {
        std::size_t used = 0;
        const double v = std::stod(s, &used);
        if (used == s.size()) return v;
      } catch (const std::exception&) {
      }
      std::fprintf(stderr, "%s: expected a number, got '%s'\n", arg.c_str(),
                   s.c_str());
      usage_and_exit();
    };
    if (arg == "--problem") opt.problem = next();
    else if (arg == "--algo") opt.algo = next();
    else if (arg == "--batch") opt.batch = next_size();
    else if (arg == "--sims") opt.sims = next_size();
    else if (arg == "--init") opt.init = next_size();
    else if (arg == "--seed") opt.seed = next_u64();
    else if (arg == "--lambda") opt.lambda = next_double();
    else if (arg == "--kernel") opt.kernel = next();
    else if (arg == "--csv") opt.csv = true;
    else if (arg == "--metrics-json") opt.metrics_json = next();
    else if (arg == "--metrics-csv") opt.metrics_csv = next();
    else if (arg == "--on-failure") opt.on_failure = next();
    else if (arg == "--eval-timeout") opt.eval_timeout = next_double();
    else if (arg == "--eval-retries") opt.eval_retries = next_size();
    else if (arg == "--fail-quantile") opt.fail_quantile = next_double();
    else if (arg == "--inject-throw-every")
      opt.faults.throw_every = next_size();
    else if (arg == "--inject-nan-every")
      opt.faults.nan_every = next_size();
    else if (arg == "--inject-slow-every")
      opt.faults.slow_every = next_size();
    else if (arg == "--inject-sleep-ms")
      opt.faults.sleep_seconds = next_double() / 1000.0;
    else if (arg == "--checkpoint") opt.checkpoint = next();
    else if (arg == "--resume") opt.resume = next();
    else if (arg == "--stream") opt.stream = next();
    else if (arg == "--adapt-refit-cadence") opt.adapt_refit_cadence = true;
    else if (arg == "--adapt-refit-budget")
      opt.adapt_refit_budget = next_double();
    else if (arg == "--help" || arg == "-h") usage_and_exit();
    else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage_and_exit();
    }
  }
  if (!opt.resume.empty() && !opt.checkpoint.empty() &&
      opt.resume != opt.checkpoint) {
    std::fprintf(stderr,
                 "--resume and --checkpoint name different paths; a "
                 "resumed run keeps journaling to the files it resumes "
                 "from, so pass only --resume\n");
    usage_and_exit();
  }
  return opt;
}

struct ProblemBundle {
  opt::Bounds bounds;
  opt::Objective fn;
  std::function<double(const linalg::Vec&)> sim_time;
  std::size_t default_sims;
};

ProblemBundle make_problem(const std::string& name) {
  if (name == "opamp") {
    auto b = circuit::make_opamp_benchmark();
    return {b.bounds, b.fom,
            [b](const linalg::Vec& x) { return b.sim_time(x); },
            b.max_sims};
  }
  if (name == "classe") {
    auto b = circuit::make_classe_benchmark();
    return {b.bounds, b.fom,
            [b](const linalg::Vec& x) { return b.sim_time(x); },
            b.max_sims};
  }
  circuit::TestFunction tf;
  if (name == "branin") tf = circuit::branin();
  else if (name == "ackley") tf = circuit::ackley(5);
  else if (name == "hartmann6") tf = circuit::hartmann6();
  else {
    std::fprintf(stderr, "unknown problem: %s\n", name.c_str());
    usage_and_exit();
  }
  return {tf.bounds, tf.fn, nullptr, 100};
}

int run_classic(const CliOptions& cli, const ProblemBundle& problem,
                std::size_t sims) {
  Rng rng(cli.seed);
  easybo::opt::OptResult result;
  if (cli.algo == "de") {
    result = easybo::opt::de_maximize(problem.fn, problem.bounds, rng, sims);
  } else if (cli.algo == "pso") {
    easybo::opt::PsoOptions o;
    o.max_evals = sims;
    result = easybo::opt::pso_maximize(problem.fn, problem.bounds, rng, o);
  } else if (cli.algo == "sa") {
    result = easybo::opt::sa_maximize(problem.fn, problem.bounds, rng, sims);
  } else {
    result = easybo::opt::random_search_maximize(problem.fn, problem.bounds,
                                                 rng, sims);
  }
  std::printf("best = %.6g after %zu evaluations\n", result.best_y,
              result.num_evals);
  std::printf("x =");
  for (double v : result.best_x) std::printf(" %.6g", v);
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse(argc, argv);
  const ProblemBundle problem = make_problem(cli.problem);
  const std::size_t sims = cli.sims ? cli.sims : problem.default_sims;

  if (cli.algo == "de" || cli.algo == "pso" || cli.algo == "sa" ||
      cli.algo == "random") {
    return run_classic(cli, problem, sims);
  }

  bo::BoConfig config;
  config.batch = cli.batch;
  config.init_points = cli.init;
  config.max_sims = sims;
  config.seed = cli.seed;
  config.lambda = cli.lambda;
  config.kernel = cli.kernel;

  if (cli.algo == "easybo") {
    config.mode = bo::Mode::AsyncBatch;
    config.acq = bo::AcqKind::EasyBo;
    config.penalize = true;
  } else if (cli.algo == "easybo-a") {
    config.mode = bo::Mode::AsyncBatch;
    config.acq = bo::AcqKind::EasyBo;
    config.penalize = false;
  } else if (cli.algo == "easybo-s") {
    config.mode = bo::Mode::SyncBatch;
    config.acq = bo::AcqKind::EasyBo;
    config.penalize = false;
  } else if (cli.algo == "easybo-sp") {
    config.mode = bo::Mode::SyncBatch;
    config.acq = bo::AcqKind::EasyBo;
    config.penalize = true;
  } else if (cli.algo == "pbo") {
    config.mode = bo::Mode::SyncBatch;
    config.acq = bo::AcqKind::Pbo;
  } else if (cli.algo == "phcbo") {
    config.mode = bo::Mode::SyncBatch;
    config.acq = bo::AcqKind::Phcbo;
  } else if (cli.algo == "bucb") {
    config.mode = bo::Mode::AsyncBatch;
    config.acq = bo::AcqKind::Bucb;
  } else if (cli.algo == "lp") {
    config.mode = bo::Mode::AsyncBatch;
    config.acq = bo::AcqKind::Lp;
  } else if (cli.algo == "ei") {
    config.mode = bo::Mode::Sequential;
    config.acq = bo::AcqKind::Ei;
    config.batch = 1;
  } else if (cli.algo == "lcb") {
    config.mode = bo::Mode::Sequential;
    config.acq = bo::AcqKind::Lcb;
    config.batch = 1;
  } else {
    std::fprintf(stderr, "unknown algorithm: %s\n", cli.algo.c_str());
    usage_and_exit();
  }

  if (cli.on_failure == "abort") {
    config.on_eval_failure = bo::EvalFailurePolicy::Abort;
  } else if (cli.on_failure == "discard") {
    config.on_eval_failure = bo::EvalFailurePolicy::Discard;
  } else if (cli.on_failure == "penalize") {
    config.on_eval_failure = bo::EvalFailurePolicy::Penalize;
  } else {
    std::fprintf(stderr, "unknown failure policy: %s\n",
                 cli.on_failure.c_str());
    usage_and_exit();
  }
  config.eval_timeout = cli.eval_timeout;
  config.eval_max_retries = cli.eval_retries;
  config.eval_failure_quantile = cli.fail_quantile;

  config.checkpoint_path = cli.resume.empty() ? cli.checkpoint : cli.resume;
  config.adapt_refit_cadence = cli.adapt_refit_cadence;
  config.adapt_refit_budget = cli.adapt_refit_budget;

  const bool injecting = cli.faults.throw_every > 0 ||
                         cli.faults.nan_every > 0 ||
                         cli.faults.slow_every > 0;
  // Fault studies always want the failure counters and per-eval log.
  const bool record = !cli.metrics_json.empty() || !cli.metrics_csv.empty() ||
                      injecting ||
                      config.on_eval_failure != bo::EvalFailurePolicy::Abort;

  opt::Objective fn = problem.fn;
  std::function<double(const linalg::Vec&)> sim_time = problem.sim_time;
  circuit::FaultInjector injector(cli.faults);
  if (injecting || cli.faults.sleep_seconds > 0.0) {
    fn = injector.wrap(std::move(fn));
    if (cli.faults.slow_every > 0) {
      if (!sim_time) sim_time = [](const linalg::Vec&) { return 1.0; };
      sim_time = injector.wrap_sim_time(std::move(sim_time));
    }
  }

  // Every validated field comes from a flag, so a bad combination is a
  // usage error (exit 2), not an aborted run (exit 3).
  try {
    config.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "easybo_cli: %s\n", e.what());
    return 2;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  bo::BoResult result;
  // Declared before the engine scope so frames can still flush while the
  // run is torn down; closed explicitly right after the run so the bye
  // frame is on disk before the metrics files are written. The recorder
  // outlives the stream that forwards to it.
  obs::RecordingSink recorder;
  std::unique_ptr<obs::StreamSink> stream;
  try {
    bo::BoEngine engine(config, problem.bounds, fn, sim_time);
    engine.set_stop_token(&g_stop);
    obs::TraceSink* trace = record ? &recorder : nullptr;
    if (!cli.stream.empty()) {
      obs::StreamOptions sopts;
      sopts.source = "cli:" + cli.problem + ":" + config.label();
      // Forward to the recorder (or nothing) so one run streams live AND
      // assembles the post-hoc report.
      try {
        stream = std::make_unique<obs::StreamSink>(cli.stream, sopts, trace);
      } catch (const std::exception& e) {
        // An unopenable stream file is an environment error, not an
        // aborted optimization.
        std::fprintf(stderr, "easybo_cli: %s\n", e.what());
        return 1;
      }
      trace = stream.get();
    }
    engine.set_trace(trace);
    result = cli.resume.empty() ? engine.run() : engine.resume(cli.resume);
    if (stream != nullptr) stream->close();
  } catch (const io::StorageError& e) {
    // The storage failed, not the files' content: an I/O error, never a
    // refused resume.
    std::fprintf(stderr, "easybo_cli: checkpoint I/O failed: %s\n",
                 e.what());
    return 1;
  } catch (const io::CheckpointError& e) {
    std::fprintf(stderr, "resume failed: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    // The Abort policy (the default) rethrows evaluation failures.
    std::fprintf(stderr, "run aborted: %s\n", e.what());
    return config.on_eval_failure == bo::EvalFailurePolicy::Abort ? 3 : 1;
  }

  if (!result.resume_note.empty()) {
    std::fprintf(stderr, "%s\n", result.resume_note.c_str());
  }
  if (result.orphaned_workers > 0) {
    std::fprintf(stderr,
                 "warning: %zu worker(s) orphaned by evaluation timeouts "
                 "still hold hung objectives (docs/failure-model.md); the "
                 "pool ran under-strength from their first timeout on\n",
                 result.orphaned_workers);
  }

  if (!cli.metrics_json.empty() &&
      !write_text(cli.metrics_json, result.metrics.to_json())) {
    return 1;
  }
  if (!cli.metrics_csv.empty() &&
      !write_text(cli.metrics_csv, result.metrics.to_csv())) {
    return 1;
  }

  std::printf("%s on %s: best = %.6g, %zu sims, wall-clock %s, "
              "utilization %.0f%%\n",
              config.label().c_str(), cli.problem.c_str(), result.best_y,
              result.num_evals(),
              easybo::format_duration(result.makespan).c_str(),
              100.0 * result.utilization(config.mode == bo::Mode::Sequential
                                             ? 1
                                             : config.batch));
  std::printf("x =");
  for (double v : result.best_x) std::printf(" %.6g", v);
  std::printf("\n");

  const auto& m = result.metrics;
  if (m.counter("eval.failures") > 0 || injecting) {
    std::printf("failures: %llu (%llu exception, %llu non-finite, "
                "%llu timeout), %llu retries; policy %s: %llu discarded, "
                "%llu penalized\n",
                (unsigned long long)m.counter("eval.failures"),
                (unsigned long long)m.counter("eval.exceptions"),
                (unsigned long long)m.counter("eval.nonfinite"),
                (unsigned long long)m.counter("eval.timeouts"),
                (unsigned long long)m.counter("eval.retries"),
                bo::to_string(config.on_eval_failure),
                (unsigned long long)m.counter("eval.discarded"),
                (unsigned long long)m.counter("eval.penalized"));
  }

  if (cli.csv) {
    std::printf("\neval,start,finish,worker,is_init,failed,y,best_so_far\n");
    double best = 0.0;
    bool have_best = false;
    for (std::size_t i = 0; i < result.evals.size(); ++i) {
      const auto& e = result.evals[i];
      if (!e.failed) {
        best = have_best ? std::max(best, e.y) : e.y;
        have_best = true;
      }
      std::printf("%zu,%.3f,%.3f,%zu,%d,%d,%.6g,%.6g\n", i, e.start,
                  e.finish, e.worker, e.is_init ? 1 : 0, e.failed ? 1 : 0,
                  e.y, have_best ? best : 0.0);
    }
  }
  if (result.interrupted) {
    std::fprintf(stderr, "interrupted after %zu evaluations%s\n",
                 result.num_evals(),
                 config.checkpoint_path.empty()
                     ? ""
                     : "; state saved, continue with --resume");
    return 5;
  }
  return 0;
}
