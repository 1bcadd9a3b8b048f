/// \file perfbench.cpp
/// \brief Workload runner behind perfbench/run.py: runs one workload and
/// writes its raw measurements as one JSON object. run.py turns them into
/// metrics, checks the outputs and prints the report.
///
///   perfbench bo <opamp|classe> <seed> <seconds> <trace 0|1> <out.json>
///   perfbench serve <seed> <seconds> <trace 0|1> <state-dir> <out.json>
///
/// Every layer is measured from outside the library, through public seams
/// only: wall-clock stamps on the objective callback, a trace sink
/// installed with BoEngine::set_trace / SessionHost::set_trace, the
/// bare-STATUS health plane, and client-side request timing. With trace 1
/// the workload runs twice on identical inputs, untraced and then traced,
/// so the tracing overhead is measured on the same work.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <sys/sysinfo.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bo/engine.h"
#include "circuit/benchmark.h"
#include "circuit/testfunc.h"
#include "common/rng.h"
#include "io/json.h"
#include "obs/trace.h"
#include "serve/host.h"
#include "serve/session_config.h"
#include "serve/tcp_server.h"

namespace {

using namespace easybo;
using linalg::Vec;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/// Seconds since process start on the steady clock: the one wall clock
/// every timestamp in the output uses.
double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/// CPU seconds consumed so far by the calling thread, or by the whole
/// process. The kernel leaves time the hypervisor stole out of both, so
/// on a shared VM these hold where wall time swings.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(
      kEpoch + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(t)));
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num_array(const std::vector<double>& xs) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) s += ",";
    s += num(xs[i]);
  }
  return s + "]";
}

std::string json_string(const std::string& text) {
  std::string s = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      s += '\\';
      s += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      s += ' ';
    } else {
      s += c;
    }
  }
  return s + "\"";
}

/// Accumulates "key":value members of one JSON object.
class JsonObject {
 public:
  JsonObject& put(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ",";
    body_ += json_string(key) + ":" + raw;
    return *this;
  }
  JsonObject& put(const std::string& key, double v) { return put(key, num(v)); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Trace sink that keeps every span in memory, timestamped: a span
/// arrives when it ends, so end = arrival time and start = end - duration.
/// Executor workers and serve workers report concurrently.
class SpanSink final : public obs::TraceSink {
 public:
  struct Span {
    obs::Phase phase;
    double start;
    double end;
  };

  void add_time(obs::Phase phase, double seconds) override {
    const double end = now_s();
    std::lock_guard<std::mutex> lk(mutex_);
    spans_.push_back({phase, end - seconds, end});
  }
  void add_counter(std::string_view name, std::uint64_t delta) override {
    std::lock_guard<std::mutex> lk(mutex_);
    counters_[std::string(name)] += delta;
  }

  /// Remembers the counters as they stand now, to be written out as
  /// "counters_at_mark" so a time window's counts can be told apart.
  void mark() {
    std::lock_guard<std::mutex> lk(mutex_);
    marked_ = counters_;
  }

  /// "spans":[[phase,start,end],...], "counters" and "counters_at_mark".
  void write(JsonObject& out) const {
    std::lock_guard<std::mutex> lk(mutex_);
    std::string s = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (i > 0) s += ",";
      s += "[" + json_string(obs::to_string(spans_[i].phase)) + "," +
           num(spans_[i].start) + "," + num(spans_[i].end) + "]";
    }
    out.put("spans", s + "]");
    auto as_json = [](const std::map<std::string, std::uint64_t>& m) {
      JsonObject o;
      for (const auto& [name, value] : m) {
        o.put(name, static_cast<double>(value));
      }
      return o.str();
    };
    out.put("counters", as_json(counters_));
    out.put("counters_at_mark", as_json(marked_));
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::uint64_t> marked_;
};

/// Run context recorded with every result: what the numbers were
/// measured on.
void put_environment(JsonObject& out, const std::string& dir) {
  out.put("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  out.put("build_type", json_string(PERFBENCH_BUILD_TYPE));
  struct sysinfo si {};
  if (sysinfo(&si) == 0) {
    const double scale = 1.0 / static_cast<double>(1u << SI_LOAD_SHIFT);
    out.put("loadavg", num_array({si.loads[0] * scale, si.loads[1] * scale,
                                  si.loads[2] * scale}));
  }
  struct statfs fs {};
  if (!dir.empty() && statfs(dir.c_str(), &fs) == 0) {
    char magic[32];
    std::snprintf(magic, sizeof(magic), "0x%lx",
                  static_cast<unsigned long>(fs.f_type));
    out.put("fs_magic", json_string(magic));
  }
}

double peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text << "\n";
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// BO workloads: one paper-budget EasyBO run on the virtual executor
// ---------------------------------------------------------------------------

/// The configuration `easybo_cli --problem <p> --algo easybo --batch 15
/// --sims <sims>` builds.
bo::BoConfig paper_config(std::size_t sims, std::uint64_t seed) {
  bo::BoConfig c;
  c.mode = bo::Mode::AsyncBatch;
  c.acq = bo::AcqKind::EasyBo;
  c.penalize = true;
  c.batch = 15;
  c.init_points = 20;
  c.max_sims = sims;
  c.seed = seed;
  return c;
}

circuit::SizingBenchmark make_circuit(const std::string& problem) {
  if (problem == "opamp") return circuit::make_opamp_benchmark();
  if (problem == "classe") return circuit::make_classe_benchmark();
  throw std::invalid_argument("unknown problem " + problem);
}

/// One BO run. The virtual executor evaluates the objective eagerly at
/// submit, so consecutive callbacks bracket exactly one proposal's
/// observe + suggest work.
/// \p rss_kb, when given, receives the peak RSS as the run ends, before
/// any output is formatted.
std::string run_bo(const circuit::SizingBenchmark& b, const bo::BoConfig& cfg,
                   SpanSink* sink, double* rss_kb) {
  std::vector<double> cb_start, cb_end, cpu_start, cpu_end, ys;
  std::vector<Vec> xs;
  const opt::Objective fom = b.fom;
  opt::Objective fn = [&](const Vec& x) {
    const double start = now_s();
    const double cpu = thread_cpu_s();
    const double y = fom(x);
    cpu_end.push_back(thread_cpu_s());
    cb_end.push_back(now_s());
    cpu_start.push_back(cpu);
    cb_start.push_back(start);
    xs.push_back(x);
    ys.push_back(y);
    return y;
  };
  const circuit::SimTimeModel sim_time = b.sim_time;
  bo::BoEngine engine(cfg, b.bounds, fn,
                      [&sim_time](const Vec& x) { return sim_time(x); });
  engine.set_trace(sink);
  const bo::BoResult result = engine.run();
  const double t_end = now_s();
  if (rss_kb != nullptr) *rss_kb = peak_rss_kb();

  JsonObject run;
  run.put("traced", sink != nullptr ? "true" : "false");
  run.put("t_end", t_end);
  run.put("cb_start", num_array(cb_start)).put("cb_end", num_array(cb_end));
  run.put("cpu_start", num_array(cpu_start))
      .put("cpu_end", num_array(cpu_end));
  std::string xs_json = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) xs_json += ",";
    xs_json += num_array(xs[i]);
  }
  run.put("xs", xs_json + "]").put("ys", num_array(ys));
  run.put("best_y", result.best_y).put("makespan", result.makespan);
  if (sink != nullptr) sink->write(run);
  return run.str();
}

/// Untraced: paper-budget runs back to back, seeds seed, seed + 1, ...,
/// until \p seconds have passed (at least one run). Traced: one untraced
/// and one traced run of \p seed.
int bo_main(const std::string& problem, std::uint64_t seed, double seconds,
            bool trace, const std::string& out_path) {
  const std::size_t sims = problem == "opamp" ? 300 : 470;
  bo::BoConfig cfg = paper_config(sims, seed);

  // Set-up: circuit model + engine construction, repeated; run.py
  // reports the median.
  std::vector<double> setup, setup_cpu;
  for (int rep = 0; rep < 21; ++rep) {
    const double t0 = now_s();
    const double c0 = process_cpu_s();
    const circuit::SizingBenchmark b = make_circuit(problem);
    bo::BoEngine engine(cfg, b.bounds, b.fom);
    setup_cpu.push_back(process_cpu_s() - c0);
    setup.push_back(now_s() - t0);
  }

  const circuit::SizingBenchmark b = make_circuit(problem);
  double rss_kb = 0.0;
  const double t_start = now_s();
  std::vector<std::string> runs = {run_bo(b, cfg, nullptr, &rss_kb)};
  SpanSink sink;
  if (trace) {
    runs.push_back(run_bo(b, cfg, &sink, nullptr));
  } else {
    while (now_s() - t_start < seconds) {
      cfg.seed += 1;
      runs.push_back(run_bo(b, cfg, nullptr, nullptr));
    }
  }

  JsonObject out;
  out.put("workload", json_string(problem + "_async_b15"));
  put_environment(out, std::filesystem::path(out_path).parent_path());
  out.put("seed", static_cast<double>(seed));
  out.put("budget", static_cast<double>(sims));
  out.put("init_points", static_cast<double>(cfg.init_points));
  out.put("lower", num_array(b.bounds.lower))
      .put("upper", num_array(b.bounds.upper));
  out.put("setup_s", num_array(setup));
  out.put("setup_cpu_s", num_array(setup_cpu));
  std::string runs_json = "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs_json += (i > 0 ? "," : "") + runs[i];
  }
  out.put("runs", runs_json + "]");
  out.put("peak_rss_kb", rss_kb);
  return write_file(out_path, out.str()) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve_open_loop: a pooled SessionHost behind a TcpServer, open-loop load
// ---------------------------------------------------------------------------

/// Workload shape. The warm-up takes every session through its 6-point
/// initial design, so the timed window sees model-based turns only; the
/// budget leaves every session far from exhaustion. max_live is pinned at
/// the session count: with evictions, resumed sessions' streams drift
/// from the standalone oracle (NOTES.md).
struct ServeShape {
  std::size_t sessions = 128;
  std::size_t max_live = 128;
  std::size_t warm_turns = 6;
  std::size_t max_sims = 400;
  double sim_delay_s = 0.010;  ///< client-side "simulation" per turn
  /// Turn-rate ladder (turns/s, whole host) and each rung's share of the
  /// window. The first rung is the nominal rate.
  std::vector<double> rates = {100.0, 200.0, 300.0};
  std::vector<double> shares = {4.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0};
  std::size_t conns = 4;
  std::size_t workers = 2;
};

/// The bench/serve_load session: sequential EasyBO on a 3-D sphere.
std::string session_config(std::uint64_t seed, std::size_t max_sims) {
  bo::BoConfig c;
  c.mode = bo::Mode::Sequential;
  c.acq = bo::AcqKind::EasyBo;
  c.penalize = true;
  c.batch = 1;
  c.init_points = 6;
  c.max_sims = max_sims;
  c.seed = seed;
  c.on_eval_failure = bo::EvalFailurePolicy::Discard;
  c.acq_opt.sobol_candidates = 64;
  c.acq_opt.random_candidates = 32;
  c.acq_opt.refine_evals = 30;
  c.trainer.max_iters = 10;
  c.trainer.restarts = 1;
  opt::Bounds b;
  b.lower.assign(3, -2.0);
  b.upper.assign(3, 2.0);
  return serve::session_config_json(c, b);
}

/// Blocking line client over loopback TCP.
class LineClient {
 public:
  explicit LineClient(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  std::string request(const std::string& line) {
    const std::string framed = line + "\n";
    for (std::size_t off = 0; off < framed.size();) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return reply;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("connection lost mid-reply");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// One booted host: SessionHost + TcpServer + one connection per
/// generator thread. Members are destroyed clients first, host last.
struct Rig {
  std::unique_ptr<serve::SessionHost> host;
  std::unique_ptr<serve::TcpServer> server;
  std::vector<std::unique_ptr<LineClient>> clients;
};

std::string session_name(std::size_t i) { return "s" + std::to_string(i); }

/// Runs fn(0..n-1) on n threads and rethrows the first error.
template <typename Fn>
void on_threads(std::size_t n, Fn fn) {
  std::vector<std::thread> threads;
  std::mutex err_mutex;
  std::string error;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      try {
        fn(c);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(err_mutex);
        if (error.empty()) error = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!error.empty()) throw std::runtime_error(error);
}

/// Host boot plus one NEW per session over one connection. In a fresh
/// \p dir every NEW creates its session (config, journal header and
/// pristine snapshot, all fsync'd); in a dir a previous boot populated,
/// every NEW re-opens it from disk. \p expect is the reply verb.
std::unique_ptr<Rig> boot(const std::string& dir, const ServeShape& shape,
                          const std::vector<std::string>& configs,
                          obs::TraceSink* sink, const std::string& expect) {
  auto owned = std::make_unique<Rig>();
  Rig& rig = *owned;
  serve::HostLimits limits;
  limits.serve_workers = shape.workers;
  rig.host = std::make_unique<serve::SessionHost>(dir, shape.max_live, limits);
  rig.host->set_trace(sink);
  rig.server = std::make_unique<serve::TcpServer>(*rig.host,
                                                  serve::TcpOptions{});
  rig.server->start();
  for (std::size_t c = 0; c < shape.conns; ++c) {
    rig.clients.push_back(std::make_unique<LineClient>(rig.server->port()));
  }
  for (std::size_t i = 0; i < shape.sessions; ++i) {
    const std::string reply = rig.clients[0]->request(
        "NEW " + session_name(i) + " " + configs[i]);
    if (reply != "OK " + expect + " " + session_name(i)) {
      throw std::runtime_error("NEW " + session_name(i) + ": " + reply);
    }
  }
  return owned;
}

/// One timed request as the client saw it.
struct Request {
  std::size_t rung = 0;
  bool suggest = true;
  std::size_t session = 0;
  double due = 0.0;    ///< when the schedule said to send it
  double send = 0.0;   ///< when it was sent
  double reply = 0.0;  ///< when the reply line arrived
  double late = 0.0;   ///< generator lateness (see window())
  bool ok = false;
};

struct SessionStreams {
  std::vector<std::vector<Vec>> xs;
  std::vector<std::string> errors;  ///< ERR replies, verbatim
  std::mutex errors_mutex;
};

/// SUGGEST parse: false on any ERR reply (recorded).
bool parse_suggest(const std::string& reply, std::size_t* tag, Vec* x) {
  if (reply.rfind("OK ", 0) != 0) return false;
  const io::JsonValue j = io::parse_json(reply.substr(3));
  *tag = static_cast<std::size_t>(j.at("tag").as_double());
  x->clear();
  for (const auto& v : j.at("x").as_array()) x->push_back(v.as_double());
  return true;
}

void note_error(SessionStreams& st, const std::string& what) {
  std::lock_guard<std::mutex> lk(st.errors_mutex);
  st.errors.push_back(what);
}

/// Closed-loop warm-up: every session past its initial design, so the
/// timed window sees model-based turns from its first request.
void warm_up(Rig& rig, const ServeShape& shape,
             const circuit::TestFunction& tf, SessionStreams& st) {
  on_threads(shape.conns, [&](std::size_t c) {
    LineClient& client = *rig.clients[c];
    for (std::size_t turn = 0; turn < shape.warm_turns; ++turn) {
      for (std::size_t i = c; i < shape.sessions; i += shape.conns) {
        const std::string name = session_name(i);
        std::size_t tag = 0;
        Vec x;
        const std::string reply = client.request("SUGGEST " + name);
        if (!parse_suggest(reply, &tag, &x)) {
          throw std::runtime_error("warm-up SUGGEST " + name + ": " + reply);
        }
        st.xs[i].push_back(x);
        const std::string ob =
            client.request("OBSERVE " + name + " " + std::to_string(tag) +
                           " " + io::json_number(tf.fn(x)));
        if (ob.rfind("OK ", 0) != 0) {
          throw std::runtime_error("warm-up OBSERVE " + name + ": " + ob);
        }
      }
    }
  });
}

/// The timed open-loop window. Each connection has its own seeded
/// Poisson arrival schedule over the rate ladder, and its arrivals go to
/// its sessions in fixed round-robin order, so every session's command
/// sequence is a function of the seed alone. A turn is a SUGGEST when due,
/// then an OBSERVE due sim_delay_s after the SUGGEST reply; an arrival
/// whose session is still mid-turn waits for that turn's OBSERVE. A
/// connection carries one request at a time, so a request due while an
/// earlier one is outstanding waits, and that wait counts in its latency
/// (timed from due). Generator lateness is how far past max(due,
/// connection free) a request was actually sent: the generator's own
/// scheduling slip.
std::vector<Request> window(Rig& rig, const ServeShape& shape,
                            std::uint64_t seed, double seconds,
                            const circuit::TestFunction& tf,
                            SessionStreams& st, double* t_open) {
  std::vector<std::vector<Request>> per_conn(shape.conns);
  const double t0 = now_s() + 0.05;
  *t_open = t0;
  on_threads(shape.conns, [&](std::size_t c) {
    std::vector<std::size_t> mine;
    for (std::size_t i = c; i < shape.sessions; i += shape.conns) {
      mine.push_back(i);
    }
    struct Arrival {
      double due;
      std::size_t rung, session;
    };
    std::vector<Arrival> arrivals;
    Rng rng(seed * 7919 + c + 1);
    double rung_start = 0.0;
    for (std::size_t r = 0; r < shape.rates.size(); ++r) {
      const double rung_end = rung_start + shape.shares[r] * seconds;
      const double lambda = shape.rates[r] / static_cast<double>(shape.conns);
      for (double t = rung_start - std::log(1.0 - rng.uniform()) / lambda;
           t < rung_end; t -= std::log(1.0 - rng.uniform()) / lambda) {
        arrivals.push_back({t0 + t, r, mine[arrivals.size() % mine.size()]});
      }
      rung_start = rung_end;
    }

    struct PendingObserve {
      double due;
      std::size_t rung, session, tag;
      double y;
      bool operator>(const PendingObserve& o) const { return due > o.due; }
    };
    std::priority_queue<PendingObserve, std::vector<PendingObserve>,
                        std::greater<>>
        observes;
    std::vector<char> busy(shape.sessions, 0);  // mid-turn sessions
    LineClient& client = *rig.clients[c];
    std::vector<Request>& log = per_conn[c];
    double free_at = 0.0;
    std::size_t next = 0;

    while (next < arrivals.size() || !observes.empty()) {
      const bool arrival = next < arrivals.size();
      const bool blocked = arrival && busy[arrivals[next].session] != 0;
      const bool take_observe =
          !observes.empty() &&
          (!arrival || blocked || observes.top().due <= arrivals[next].due);
      Request req;
      if (!take_observe && blocked) {
        // The session's last OBSERVE failed, so its turn never ends.
        req.rung = arrivals[next].rung;
        req.session = arrivals[next].session;
        req.due = req.send = req.reply = arrivals[next++].due;
        note_error(st, "generator: " + session_name(req.session) +
                           " is stuck mid-turn");
        log.push_back(req);
        continue;
      }
      req.due = take_observe ? observes.top().due : arrivals[next].due;
      sleep_until_s(req.due);
      req.send = now_s();
      req.late = req.send - std::max(req.due, free_at);
      if (take_observe) {
        const PendingObserve ob = observes.top();
        observes.pop();
        req.rung = ob.rung;
        req.suggest = false;
        req.session = ob.session;
        const std::string reply = client.request(
            "OBSERVE " + session_name(ob.session) + " " +
            std::to_string(ob.tag) + " " + io::json_number(ob.y));
        req.reply = now_s();
        req.ok = reply.rfind("OK ", 0) == 0;
        if (req.ok) {
          busy[ob.session] = 0;
        } else {
          note_error(st, "OBSERVE " + session_name(ob.session) + ": " + reply);
        }
      } else {
        req.rung = arrivals[next].rung;
        req.session = arrivals[next++].session;
        const std::string reply =
            client.request("SUGGEST " + session_name(req.session));
        req.reply = now_s();
        std::size_t tag = 0;
        Vec x;
        req.ok = parse_suggest(reply, &tag, &x);
        if (req.ok) {
          st.xs[req.session].push_back(x);
          busy[req.session] = 1;
          observes.push({req.reply + shape.sim_delay_s, req.rung, req.session,
                         tag, tf.fn(x)});
        } else {
          note_error(st,
                     "SUGGEST " + session_name(req.session) + ": " + reply);
        }
      }
      free_at = req.reply;
      log.push_back(req);
    }
  });
  std::vector<Request> all;
  for (auto& log : per_conn) all.insert(all.end(), log.begin(), log.end());
  std::sort(all.begin(), all.end(),
            [](const Request& a, const Request& b) { return a.due < b.due; });
  return all;
}

/// Every session's acknowledged stream must be the prefix of a standalone
/// BoEngine run of the same wire config. The standalone run is stopped
/// once it has proposed as many points as the session did.
std::size_t verify_streams(const std::vector<std::string>& configs,
                           const SessionStreams& st,
                           const circuit::TestFunction& tf,
                           std::size_t threads) {
  std::atomic<std::size_t> next{0}, mismatched{0};
  on_threads(threads, [&](std::size_t) {
    for (std::size_t i = next++; i < configs.size(); i = next++) {
      const std::vector<Vec>& got = st.xs[i];
      const serve::SessionSpec spec = serve::parse_session_config(configs[i]);
      std::atomic<bool> stop{false};
      std::vector<Vec> proposed;
      opt::Objective fn = [&](const Vec& x) {
        proposed.push_back(x);
        if (proposed.size() >= got.size()) stop.store(true);
        return tf.fn(x);
      };
      bo::BoEngine engine(spec.config, spec.bounds, fn);
      engine.set_stop_token(&stop);
      engine.run();
      const bool ok =
          proposed.size() >= got.size() &&
          std::equal(got.begin(), got.end(), proposed.begin());
      if (!ok) ++mismatched;
    }
  });
  return mismatched.load();
}

std::string requests_json(const std::vector<Request>& reqs) {
  std::string s = "[";
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    if (i > 0) s += ",";
    s += "[" + std::to_string(r.rung) + "," + (r.suggest ? "1" : "0") + "," +
         std::to_string(r.session) + "," + num(r.due) + "," + num(r.send) +
         "," + num(r.reply) + "," + num(r.late) + "," + (r.ok ? "1" : "0") +
         "]";
  }
  return s + "]";
}

/// The bare-STATUS health object, in process (no extra connection).
std::string health(serve::SessionHost& host) {
  const std::string reply = host.handle_line("STATUS");
  if (reply.rfind("OK ", 0) != 0) throw std::runtime_error("STATUS: " + reply);
  return reply.substr(3);
}

int serve_main(std::uint64_t seed, double seconds, bool trace,
               const std::string& state_dir, const std::string& out_path) {
  ServeShape shape;
  const std::size_t nproc =
      std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN));
  shape.conns = std::min<std::size_t>(shape.conns, nproc);
  shape.workers = std::max<std::size_t>(1, std::min(shape.workers, nproc / 2));
  const circuit::TestFunction tf = circuit::sphere(3);
  std::vector<std::string> configs;
  for (std::size_t i = 0; i < shape.sessions; ++i) {
    configs.push_back(session_config(seed * 1000003 + i + 1, shape.max_sims));
  }
  std::filesystem::create_directories(state_dir);

  JsonObject out;
  out.put("workload", json_string("serve_open_loop"));
  put_environment(out, state_dir);
  out.put("sessions", static_cast<double>(shape.sessions));
  out.put("max_live", static_cast<double>(shape.max_live));
  out.put("connections", static_cast<double>(shape.conns));
  out.put("serve_workers", static_cast<double>(shape.workers));
  out.put("sim_delay_s", shape.sim_delay_s);
  out.put("rates", num_array(shape.rates));
  out.put("shares", num_array(shape.shares));
  out.put("seconds", seconds);

  // Set-up is a host restart: boot plus NEW re-opening every session,
  // timed kBoots times over. The sessions themselves are created first,
  // untimed: creating them is a burst of fsyncs whose cost on a shared
  // disk swings several-fold between runs. Sessions are re-opened while
  // still pristine, so no model state goes through a resume (NOTES.md).
  constexpr int kBoots = 9;
  std::vector<double> setup, setup_cpu;
  double rss_kb = 0.0;  // high-water mark at the end of the untraced window
  std::vector<std::string> runs;
  SessionStreams verified;
  for (int pass = 0; pass < (trace ? 2 : 1); ++pass) {
    const bool traced = pass == 1;
    SpanSink sink;
    const std::string dir = state_dir + "/pass" + std::to_string(pass);
    boot(dir, shape, configs, nullptr, "created");
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      ::syncfs(fd);  // the creates' writeback stays out of the timed boots
      ::close(fd);
    }
    std::unique_ptr<Rig> rig;
    for (int b = 0; b < (traced ? 1 : kBoots); ++b) {
      rig.reset();  // tear the previous boot down before the next
      const double t0 = now_s();
      const double c0 = process_cpu_s();
      rig = boot(dir, shape, configs, traced ? &sink : nullptr, "resumed");
      if (!traced) {
        setup_cpu.push_back(process_cpu_s() - c0);
        setup.push_back(now_s() - t0);
      }
    }
    SessionStreams st;
    st.xs.resize(shape.sessions);
    const double w0 = now_s();
    warm_up(*rig, shape, tf, st);
    const double warm_s = now_s() - w0;
    const std::string before = health(*rig->host);
    sink.mark();
    double t_open = 0.0;
    const double cpu_open = process_cpu_s();
    const std::vector<Request> reqs =
        window(*rig, shape, seed, seconds, tf, st, &t_open);
    const double t_close = now_s();
    const double cpu_window = process_cpu_s() - cpu_open;
    if (pass == 0) rss_kb = peak_rss_kb();
    const std::string after = health(*rig->host);

    JsonObject run;
    run.put("traced", traced ? "true" : "false");
    run.put("warmup_s", warm_s);
    run.put("window", num_array({t_open, t_close}));
    run.put("window_cpu_s", cpu_window);
    run.put("status_before", before).put("status_after", after);
    run.put("requests", requests_json(reqs));
    std::string errors = "[";
    for (std::size_t i = 0; i < st.errors.size(); ++i) {
      errors += std::string(i > 0 ? "," : "") + json_string(st.errors[i]);
    }
    run.put("errors", errors + "]");
    if (traced) sink.write(run);
    runs.push_back(run.str());
    rig.reset();
    if (pass == (trace ? 1 : 0)) {
      verified.xs = std::move(st.xs);
    }
  }
  out.put("setup_s", num_array(setup));
  out.put("setup_cpu_s", num_array(setup_cpu));
  std::string runs_json = "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs_json += (i > 0 ? "," : "") + runs[i];
  }
  out.put("runs", runs_json + "]");
  out.put("peak_rss_kb", rss_kb);

  // Outside every timed window: the streams against standalone runs.
  std::size_t proposals = 0;
  for (const auto& xs : verified.xs) proposals += xs.size();
  const std::size_t mismatched = verify_streams(configs, verified, tf, nproc);
  JsonObject verify;
  verify.put("sessions", static_cast<double>(shape.sessions));
  verify.put("proposals", static_cast<double>(proposals));
  verify.put("mismatched", static_cast<double>(mismatched));
  out.put("verify", verify.str());
  return write_file(out_path, out.str()) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 6 && args[0] == "bo") {
      return bo_main(args[1], std::stoull(args[2]), std::stod(args[3]),
                     args[4] == "1", args[5]);
    }
    if (args.size() == 6 && args[0] == "serve") {
      return serve_main(std::stoull(args[1]), std::stod(args[2]),
                        args[3] == "1", args[4], args[5]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: perfbench bo <opamp|classe> <seed> <seconds> "
               "<trace 0|1> <out>\n"
               "       perfbench serve <seed> <seconds> <trace 0|1> "
               "<state-dir> <out>\n");
  return 2;
}
