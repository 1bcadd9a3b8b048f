/// \file serve_load.cpp
/// \brief Load generator for the session host (src/serve): many
/// interleaved named sessions through one SessionHost, verified
/// bit-for-bit against standalone engine runs.
///
/// Drives EASYBO_SESSIONS (default 100) sequential-mode sessions with
/// distinct seeds round-robin through a host whose live-object cache is
/// deliberately too small (EASYBO_MAX_LIVE, default 32), so most turns
/// hit a session that was LRU-evicted and must resume from its journal
/// (and its snapshot, once it has refit). One session is additionally CLOSEd explicitly mid-run and
/// driven on afterwards. When every session has exhausted its budget,
/// each proposal stream is compared element-for-element against a
/// standalone seeded BoEngine::run of the identical (wire-round-tripped)
/// config — the acceptance check for the multi-session server.
///
/// A second phase re-runs the exercise over real sockets: an in-process
/// TcpServer with EASYBO_CLIENTS (default 8) concurrent client threads,
/// each owning a disjoint partition of EASYBO_TCP_SESSIONS (default 56)
/// sessions and driving them round-robin over its own connection. Every
/// stream is again verified bit-for-bit against a standalone engine run
/// — concurrency and the transport must not perturb a single proposal.
///
/// Exit codes: 0 all streams bit-identical, 1 any mismatch or error.
///
/// Environment: EASYBO_SESSIONS, EASYBO_MAX_LIVE, EASYBO_SIMS
/// (default 16), EASYBO_CLIENTS, EASYBO_TCP_SESSIONS, EASYBO_STATE_DIR
/// (default under the system temp dir).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "harness.h"
#include "io/json.h"
#include "serve/host.h"
#include "serve/session_config.h"
#include "serve/tcp_server.h"

namespace {

using easybo::linalg::Vec;

std::string config_json(std::uint64_t seed, std::size_t max_sims) {
  easybo::bo::BoConfig c;
  c.mode = easybo::bo::Mode::Sequential;
  c.acq = easybo::bo::AcqKind::EasyBo;
  c.penalize = true;
  c.batch = 1;
  c.init_points = 6;
  c.max_sims = max_sims;
  c.seed = seed;
  c.on_eval_failure = easybo::bo::EvalFailurePolicy::Discard;
  c.acq_opt.sobol_candidates = 64;
  c.acq_opt.random_candidates = 32;
  c.acq_opt.refine_evals = 30;
  c.trainer.max_iters = 10;
  c.trainer.restarts = 1;
  easybo::opt::Bounds b;
  b.lower.assign(3, -2.0);
  b.upper.assign(3, 2.0);
  return easybo::serve::session_config_json(c, b);
}

struct Turn {
  std::size_t tag = 0;
  Vec x;
};

/// Parses one SUGGEST reply into tag + point; empty x means budget
/// exhausted; any other ERR aborts the run.
Turn parse_suggest(const std::string& name, const std::string& reply) {
  Turn t;
  if (reply.rfind("ERR ", 0) == 0) {
    if (reply.find("budget exhausted") == std::string::npos) {
      std::fprintf(stderr, "serve_load: %s: %s\n", name.c_str(),
                   reply.c_str());
      std::exit(1);
    }
    return t;
  }
  const easybo::io::JsonValue j = easybo::io::parse_json(reply.substr(3));
  t.tag = static_cast<std::size_t>(j.at("tag").as_double());
  for (const auto& v : j.at("x").as_array()) t.x.push_back(v.as_double());
  return t;
}

Turn suggest(easybo::serve::SessionHost& host, const std::string& name) {
  return parse_suggest(name, host.handle_line("SUGGEST " + name));
}

/// Minimal blocking TCP line client for the concurrent phase.
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      std::perror("serve_load: socket");
      std::exit(1);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      std::perror("serve_load: connect");
      std::exit(1);
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  std::string request(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off,
                               framed.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        std::fprintf(stderr, "serve_load: send failed\n");
        std::exit(1);
      }
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
      if (n <= 0) {
        std::fprintf(stderr, "serve_load: connection lost mid-reply\n");
        std::exit(1);
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace

int main() {
  using namespace easybo;
  using namespace easybo::bench;

  const std::size_t sessions = env_size("EASYBO_SESSIONS", 100);
  const std::size_t max_live = env_size("EASYBO_MAX_LIVE", 32);
  const std::size_t sims = env_size("EASYBO_SIMS", 16);
  std::string state_dir;
  if (const char* dir = std::getenv("EASYBO_STATE_DIR")) {
    state_dir = dir;
  } else {
    state_dir =
        (std::filesystem::temp_directory_path() / "easybo_serve_load")
            .string();
  }
  std::filesystem::remove_all(state_dir);

  const auto tf = circuit::sphere(3);
  std::printf(
      "=== Session-host load generator (%zu sessions, max_live %zu, "
      "%zu sims each, state under %s) ===\n",
      sessions, max_live, sims, state_dir.c_str());

  serve::SessionHost host(state_dir, max_live);
  std::vector<std::string> configs(sessions);
  std::vector<std::vector<Vec>> streams(sessions);
  std::vector<bool> done(sessions, false);

  for (std::size_t i = 0; i < sessions; ++i) {
    configs[i] = config_json(1000 + i, sims);
    const std::string name = "load" + std::to_string(i);
    const std::string reply =
        host.handle_line("NEW " + name + " " + configs[i]);
    if (reply != "OK created " + name) {
      std::fprintf(stderr, "serve_load: %s\n", reply.c_str());
      return 1;
    }
  }

  // Round-robin: one suggest/observe turn per session per sweep. With
  // max_live << sessions every sweep churns the LRU cache end to end.
  std::size_t turns = 0;
  std::size_t remaining = sessions;
  std::size_t sweep = 0;
  while (remaining > 0) {
    for (std::size_t i = 0; i < sessions; ++i) {
      if (done[i]) continue;
      const std::string name = "load" + std::to_string(i);
      // Session 0 gets the harshest treatment: an explicit mid-run CLOSE
      // every sweep, so each of its turns resumes from checkpoint.
      if (i == 0 && sweep > 0) host.handle_line("CLOSE " + name);
      const Turn t = suggest(host, name);
      if (t.x.empty()) {
        done[i] = true;
        --remaining;
        continue;
      }
      streams[i].push_back(t.x);
      const std::string ob = host.handle_line(
          "OBSERVE " + name + " " + std::to_string(t.tag) + " " +
          io::json_number(tf.fn(t.x)));
      if (ob.rfind("OK ", 0) != 0) {
        std::fprintf(stderr, "serve_load: %s: %s\n", name.c_str(),
                     ob.c_str());
        return 1;
      }
      ++turns;
    }
    ++sweep;
  }
  std::printf("drove %zu suggest/observe turns in %zu sweeps (%zu live "
              "of %zu sessions at the end)\n",
              turns, sweep, host.live_count(), sessions);

  // Verification: every stream must match a standalone engine run of the
  // round-tripped config, element for element.
  auto verify_streams = [&tf](const char* phase,
                              const std::vector<std::string>& cfgs,
                              const std::vector<std::vector<Vec>>& got) {
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const serve::SessionSpec spec = serve::parse_session_config(cfgs[i]);
      bo::BoEngine engine(spec.config, spec.bounds, tf.fn);
      const bo::BoResult result = engine.run();
      bool ok = result.evals.size() == got[i].size();
      for (std::size_t k = 0; ok && k < result.evals.size(); ++k) {
        ok = result.evals[k].x == got[i][k];
      }
      if (!ok) {
        ++mismatches;
        std::fprintf(stderr,
                     "serve_load: %s session %zu diverged from the "
                     "standalone run (%zu vs %zu proposals)\n",
                     phase, i, got[i].size(), result.evals.size());
      }
    }
    if (mismatches > 0) {
      std::fprintf(stderr, "serve_load: %s: %zu of %zu sessions diverged\n",
                   phase, mismatches, cfgs.size());
      return false;
    }
    std::printf("%s: all %zu session streams bit-identical to standalone "
                "BoEngine runs\n",
                phase, cfgs.size());
    return true;
  };

  if (!verify_streams("sequential", configs, streams)) return 1;

  // === Phase 2: the same exercise over real sockets, concurrently. ===
  const std::size_t clients = env_size("EASYBO_CLIENTS", 8);
  const std::size_t tcp_sessions = env_size("EASYBO_TCP_SESSIONS", 56);
  const std::string tcp_dir = state_dir + "_tcp";
  std::filesystem::remove_all(tcp_dir);
  std::printf(
      "=== Concurrent TCP phase (%zu clients, %zu sessions, max_live %zu) "
      "===\n",
      clients, tcp_sessions, max_live);

  serve::SessionHost tcp_host(tcp_dir, max_live);
  serve::TcpServer server(tcp_host, serve::TcpOptions{});
  server.start();

  std::vector<std::string> tcp_configs(tcp_sessions);
  for (std::size_t i = 0; i < tcp_sessions; ++i) {
    tcp_configs[i] = config_json(5000 + i, sims);
  }
  std::vector<std::vector<Vec>> tcp_streams(tcp_sessions);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client(server.port());
      // This client's partition: sessions c, c+clients, c+2*clients, ...
      std::vector<std::size_t> mine;
      for (std::size_t i = c; i < tcp_sessions; i += clients) {
        mine.push_back(i);
        const std::string name = "tcp" + std::to_string(i);
        const std::string reply =
            client.request("NEW " + name + " " + tcp_configs[i]);
        if (reply != "OK created " + name) {
          std::fprintf(stderr, "serve_load: %s\n", reply.c_str());
          failed.store(true);
          return;
        }
      }
      // Round-robin within the partition, one turn per session, until
      // every one is exhausted — maximal LRU churn under contention.
      std::vector<bool> exhausted(mine.size(), false);
      std::size_t remaining = mine.size();
      while (remaining > 0) {
        for (std::size_t k = 0; k < mine.size(); ++k) {
          if (exhausted[k]) continue;
          const std::size_t i = mine[k];
          const std::string name = "tcp" + std::to_string(i);
          const Turn t =
              parse_suggest(name, client.request("SUGGEST " + name));
          if (t.x.empty()) {
            exhausted[k] = true;
            --remaining;
            continue;
          }
          tcp_streams[i].push_back(t.x);
          const std::string ob = client.request(
              "OBSERVE " + name + " " + std::to_string(t.tag) + " " +
              io::json_number(tf.fn(t.x)));
          if (ob.rfind("OK ", 0) != 0) {
            std::fprintf(stderr, "serve_load: %s: %s\n", name.c_str(),
                         ob.c_str());
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  server.stop();
  if (failed.load()) return 1;
  std::printf("tcp phase done (%zu live of %zu sessions at the end, "
              "%zu connections accepted)\n",
              tcp_host.live_count(), tcp_sessions,
              server.stats().accepted);
  if (!verify_streams("tcp", tcp_configs, tcp_streams)) return 1;

  // === Phase 3: worker pool with one slow session among fast ones. ===
  // The same socket exercise through a 4-worker pool, with one session
  // carrying an injected 50 ms SUGGEST slowdown (cooperative, well under
  // the deadline — nothing is cut; the deadline-cut paths are pinned in
  // test_serve_deadline.cpp and scripts/serve_chaos.sh). What this phase
  // measures: the pool keeps fast sessions' turnaround decoupled from
  // the slow one, queue-wait shows up on the health plane, and pooled
  // execution still reproduces every stream bit-for-bit.
  const std::size_t pool_sessions = env_size("EASYBO_POOL_SESSIONS", 16);
  const std::string pool_dir = state_dir + "_pool";
  std::filesystem::remove_all(pool_dir);
  std::printf(
      "=== Worker-pool phase (%zu clients, %zu sessions, 4 workers, "
      "pool0 slowed 50ms) ===\n",
      clients, pool_sessions);

  serve::HostLimits pool_limits;
  pool_limits.serve_workers = 4;
  pool_limits.request_deadline_s = 30.0;  // generous: a load run, not a cut run
  pool_limits.queue_wait_s = 0.0;         // no shedding; every turn completes
  serve::SessionHost pool_host(pool_dir, max_live, pool_limits);
  serve::SessionHost::DebugSlowdown slow;
  slow.session = "pool0";
  slow.sleep_s = 0.05;
  pool_host.set_debug_slowdown(slow);
  serve::TcpServer pool_server(pool_host, serve::TcpOptions{});
  pool_server.start();

  std::vector<std::string> pool_configs(pool_sessions);
  for (std::size_t i = 0; i < pool_sessions; ++i) {
    pool_configs[i] = config_json(9000 + i, sims);
  }
  std::vector<std::vector<Vec>> pool_streams(pool_sessions);
  // SUGGEST turnaround seconds, split slow session vs the rest; each
  // client thread appends to its own slot, merged after the join.
  std::vector<std::vector<double>> fast_lat(clients), slow_lat(clients);
  std::atomic<bool> pool_failed{false};
  std::vector<std::thread> pool_threads;
  for (std::size_t c = 0; c < clients; ++c) {
    pool_threads.emplace_back([&, c] {
      LineClient client(pool_server.port());
      std::vector<std::size_t> mine;
      for (std::size_t i = c; i < pool_sessions; i += clients) {
        mine.push_back(i);
        const std::string name = "pool" + std::to_string(i);
        const std::string reply =
            client.request("NEW " + name + " " + pool_configs[i]);
        if (reply != "OK created " + name) {
          std::fprintf(stderr, "serve_load: %s\n", reply.c_str());
          pool_failed.store(true);
          return;
        }
      }
      std::vector<bool> exhausted(mine.size(), false);
      std::size_t remaining = mine.size();
      while (remaining > 0) {
        for (std::size_t k = 0; k < mine.size(); ++k) {
          if (exhausted[k]) continue;
          const std::size_t i = mine[k];
          const std::string name = "pool" + std::to_string(i);
          const auto t0 = std::chrono::steady_clock::now();
          const Turn t =
              parse_suggest(name, client.request("SUGGEST " + name));
          const double secs =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
          (i == 0 ? slow_lat : fast_lat)[c].push_back(secs);
          if (t.x.empty()) {
            exhausted[k] = true;
            --remaining;
            continue;
          }
          pool_streams[i].push_back(t.x);
          const std::string ob = client.request(
              "OBSERVE " + name + " " + std::to_string(t.tag) + " " +
              io::json_number(tf.fn(t.x)));
          if (ob.rfind("OK ", 0) != 0) {
            std::fprintf(stderr, "serve_load: %s: %s\n", name.c_str(),
                         ob.c_str());
            pool_failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& t : pool_threads) t.join();

  // Queue-wait and execution stats straight off the health plane while
  // the host is still up (the stream/health contract is reconciled in
  // scripts/serve_chaos.sh; here we report the numbers under load).
  const std::string health = pool_host.handle_line("STATUS");
  pool_server.stop();
  if (pool_failed.load()) return 1;

  auto percentile = [](std::vector<double> xs, double q) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t idx = std::min(
        xs.size() - 1, static_cast<std::size_t>(q * (xs.size() - 1) + 0.5));
    return xs[idx];
  };
  std::vector<double> fast_all, slow_all;
  for (std::size_t c = 0; c < clients; ++c) {
    fast_all.insert(fast_all.end(), fast_lat[c].begin(), fast_lat[c].end());
    slow_all.insert(slow_all.end(), slow_lat[c].begin(), slow_lat[c].end());
  }
  std::printf(
      "pool turnaround: fast n=%zu p50=%.1fms p99=%.1fms | slow n=%zu "
      "p50=%.1fms p99=%.1fms\n",
      fast_all.size(), percentile(fast_all, 0.5) * 1e3,
      percentile(fast_all, 0.99) * 1e3, slow_all.size(),
      percentile(slow_all, 0.5) * 1e3, percentile(slow_all, 0.99) * 1e3);
  const io::JsonValue hj = io::parse_json(health.substr(3));
  const io::JsonValue& qw = hj.at("queue_wait");
  std::printf(
      "pool health: queue_wait n=%.0f cema=%.3fms p90=%.3fms | exec "
      "cema=%.1fms | deadline_cut=%.0f queue_shed=%.0f watchdog_trips=%.0f\n",
      qw.at("count").as_double(), qw.at("cema").as_double() * 1e3,
      qw.at("p90").as_double() * 1e3,
      hj.at("exec").at("cema").as_double() * 1e3,
      hj.at("deadline_cut").as_double(), hj.at("queue_shed").as_double(),
      hj.at("watchdog_trips").as_double());

  // Loose sanity bounds only (a CI machine under load is not a latency
  // lab): the slow session really was slowed, nothing was cut or shed,
  // every request's wait was measured, and fast p99 stays far below the
  // deadline — the slow session did not convoy the pool.
  bool pool_ok = true;
  auto expect = [&pool_ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "serve_load: pool phase: %s\n", what);
      pool_ok = false;
    }
  };
  expect(percentile(slow_all, 0.5) >= 0.05,
         "slow session p50 below the injected 50ms sleep");
  expect(percentile(fast_all, 0.99) < 10.0, "fast p99 implausibly large");
  expect(pool_host.deadline_cut_count() == 0, "unexpected deadline cuts");
  expect(pool_host.queue_shed_count() == 0, "unexpected queue sheds");
  expect(pool_host.watchdog_trip_count() == 0, "unexpected watchdog trips");
  expect(qw.at("count").as_double() >= static_cast<double>(fast_all.size()),
         "queue-wait stats missed requests");
  if (!pool_ok) return 1;

  if (!verify_streams("pool", pool_configs, pool_streams)) return 1;
  return 0;
}
