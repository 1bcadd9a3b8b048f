/// \file easybo_serve.cpp
/// \brief Session server: many concurrent named BO sessions, one process.
///
/// Usage:
///   easybo_serve --state-dir DIR [--max-live N] [--port P]
///                [--max-clients N] [--max-inflight N] [--idle-timeout S]
///                [--serve-workers N] [--queue-capacity N]
///                [--request-deadline-ms N] [--queue-wait-ms N]
///                [--watchdog-grace-ms N]
///                [--stream FILE]
///                [--inject-enospc-every N] [--inject-eio-every N]
///                [--inject-short-write-every N]
///                [--inject-torn-rename-every N] [--inject-fs-max N]
///                [--inject-sleep-ms N] [--inject-sleep-session NAME]
///                [--inject-sleep-hang]
///
/// --serve-workers N > 0 switches SUGGEST/OBSERVE onto a bounded worker
/// pool with per-request deadlines (docs/service-protocol.md
/// § Deadlines): connection threads parse and enqueue; workers execute;
/// a request that exceeds --request-deadline-ms is cut at a safe
/// checkpoint with its session state rolled back ("ERR deadline ...;
/// retry"), one that sat queued past --queue-wait-ms is shed unrun, and
/// one that ignores cancellation past --watchdog-grace-ms trips the
/// watchdog and quarantines only its own session. With the default
/// --serve-workers 0 every command runs on its connection thread with no
/// deadline, exactly as before.
///
/// --inject-sleep-ms arms the debug slowdown seam on the session named
/// by --inject-sleep-session: its SUGGESTs sleep that long while holding
/// the session lock (cooperatively — a deadline cuts the sleep — unless
/// --inject-sleep-hang makes it ignore cancellation, the watchdog
/// rehearsal). Testing only, like the --inject-* storage faults.
///
/// --stream FILE emits live "easybo.stream.v1" JSONL telemetry
/// (docs/telemetry.md) for every hosted session: serve.* counters, core
/// counters and wall SUGGEST-to-OBSERVE turnaround spans. Tail it with
/// scripts/obs_tail.py; the bare STATUS health JSON additionally carries
/// the stream's online statistics under "stream".
///
/// Speaks the line protocol of docs/service-protocol.md — one request
/// line in, one reply line out:
///
///   NEW <name> <config-json>
///   SUGGEST <name>
///   OBSERVE <name> <tag> <y>
///   OBSERVE <name> <tag> fail <status> [detail...]
///   STATUS <name>
///   STATUS
///   CLOSE <name>
///
/// By default requests are read from stdin and replies written to stdout
/// (one process per client: run it under a supervisor, or drive it from
/// a coprocess/FIFO). With --port it listens on 127.0.0.1:P and serves
/// many TCP clients at once, one thread per connection — the host
/// serializes commands per session and runs different sessions in
/// parallel (src/serve/host.h). Connections idle past --idle-timeout
/// seconds are dropped; connections beyond --max-clients and requests
/// beyond --max-inflight get an immediate "ERR busy".
///
/// The --inject-* flags arm the io/fs_fault.h seam so that operators and
/// the chaos harness (scripts/serve_chaos.sh) can rehearse storage
/// failure: every Nth eligible filesystem operation inside the
/// checkpoint layer fails with the named fault. They exist for testing;
/// see docs/failure-model.md for what each failure does to a session.
///
/// Every session keeps its state under DIR (<name>.config, <name>.journal
/// and, once it has refit, <name>.snapshot) and survives eviction, CLOSE
/// and process death: each SUGGEST and OBSERVE appends one fsync'd
/// journal record before its reply, a snapshot is written only right
/// after a hyperparameter refit, and any later command naming the session
/// restores that snapshot, when intact, re-applies the journal after it
/// with no acquisition and continues bit-identically.
///
/// Exit codes:
///   0  clean shutdown (stdin EOF, or SIGINT/SIGTERM)
///   1  runtime error (state directory unusable, socket failure), or a
///      stdin request line that ran past serve::kMaxLineBytes with no
///      newline (after one "ERR request line exceeds ..." reply)
///   2  bad arguments (the offending flag is named on stderr)

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "io/fs_fault.h"
#include "io/json.h"
#include "obs/stream.h"
#include "serve/host.h"
#include "serve/tcp_server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

/// SIGINT/SIGTERM must interrupt blocking reads, not just flip a flag
/// nobody looks at: std::signal on glibc installs SA_RESTART, which
/// makes the kernel transparently restart blocked read/accept calls, so
/// a server waiting on a quiet socket would never notice the signal.
/// sigaction without SA_RESTART makes those calls fail with EINTR, and
/// every blocking point here re-checks g_stop on EINTR.
void install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately not SA_RESTART
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

struct ServeOptions {
  std::string state_dir;
  std::size_t max_live = 64;
  int port = -1;  // -1: stdin/stdout
  std::size_t max_clients = 64;
  std::size_t max_inflight = 256;
  double idle_timeout_s = 300.0;
  std::size_t serve_workers = 0;
  std::size_t queue_capacity = 64;
  double request_deadline_s = 2.0;
  double queue_wait_s = 1.0;
  double watchdog_grace_s = 2.0;
  std::string stream;  // empty: no live telemetry
  easybo::io::FsFaultPlan fault_plan;
  bool inject_faults = false;
  double inject_sleep_s = 0.0;
  std::string inject_sleep_session;
  bool inject_sleep_hang = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: easybo_serve --state-dir DIR [--max-live N] [--port P]\n"
      "                    [--max-clients N] [--max-inflight N]\n"
      "                    [--idle-timeout SECONDS] [--stream FILE]\n"
      "                    [--serve-workers N] [--queue-capacity N]\n"
      "                    [--request-deadline-ms N] [--queue-wait-ms N]\n"
      "                    [--watchdog-grace-ms N]\n"
      "                    [--inject-enospc-every N] [--inject-eio-every N]\n"
      "                    [--inject-short-write-every N]\n"
      "                    [--inject-torn-rename-every N] "
      "[--inject-fs-max N]\n"
      "                    [--inject-sleep-ms N] "
      "[--inject-sleep-session NAME] [--inject-sleep-hang]\n");
  return 2;
}

[[noreturn]] void bad_flag(const std::string& flag, const char* value,
                           const char* expected) {
  std::fprintf(stderr, "easybo_serve: %s: expected %s, got \"%s\"\n",
               flag.c_str(), expected, value == nullptr ? "" : value);
  std::exit(2);
}

/// Strict unsigned parse (io::parse_u64: digits only, no sign, space or
/// trailing garbage). Exits 2 naming \p flag and \p expected otherwise.
std::uint64_t parse_uint(const std::string& flag, const char* value,
                         const char* expected) {
  try {
    return easybo::io::parse_u64(value == nullptr ? "" : value);
  } catch (const easybo::Error&) {
    bad_flag(flag, value, expected);
  }
}

/// A count flag: an unsigned integer no smaller than \p min_value.
std::size_t parse_count(const std::string& flag, const char* value,
                        std::size_t min_value) {
  const std::uint64_t v = parse_uint(flag, value, "a positive integer");
  if (v < min_value) bad_flag(flag, value, "a positive integer");
  return static_cast<std::size_t>(v);
}

int parse_port(const std::string& flag, const char* value) {
  if (value == nullptr || *value == '\0') {
    bad_flag(flag, value, "a port in 1..65535");
  }
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < 1 || v > 65535) {
    bad_flag(flag, value, "a port in 1..65535");
  }
  return static_cast<int>(v);
}

double parse_seconds(const std::string& flag, const char* value) {
  if (value == nullptr || *value == '\0') {
    bad_flag(flag, value, "a non-negative number of seconds");
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (*end != '\0' || errno == ERANGE || !(v >= 0.0)) {
    bad_flag(flag, value, "a non-negative number of seconds");
  }
  return v;
}

/// Millisecond flags: a non-negative integer (0 disables the knob),
/// returned as seconds for HostLimits.
double parse_millis(const std::string& flag, const char* value) {
  return static_cast<double>(parse_uint(
             flag, value, "a non-negative integer of milliseconds")) /
         1000.0;
}

bool parse_args(int argc, char** argv, ServeOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--state-dir") {
      const char* v = value();
      if (v == nullptr || *v == '\0') {
        bad_flag(arg, v, "a directory path");
      }
      opt.state_dir = v;
    } else if (arg == "--max-live") {
      opt.max_live = parse_count(arg, value(), 1);
    } else if (arg == "--port") {
      opt.port = parse_port(arg, value());
    } else if (arg == "--max-clients") {
      opt.max_clients = parse_count(arg, value(), 1);
    } else if (arg == "--max-inflight") {
      opt.max_inflight = parse_count(arg, value(), 1);
    } else if (arg == "--idle-timeout") {
      opt.idle_timeout_s = parse_seconds(arg, value());
    } else if (arg == "--serve-workers") {
      opt.serve_workers = parse_count(arg, value(), 0);
    } else if (arg == "--queue-capacity") {
      opt.queue_capacity = parse_count(arg, value(), 1);
    } else if (arg == "--request-deadline-ms") {
      opt.request_deadline_s = parse_millis(arg, value());
    } else if (arg == "--queue-wait-ms") {
      opt.queue_wait_s = parse_millis(arg, value());
    } else if (arg == "--watchdog-grace-ms") {
      opt.watchdog_grace_s = parse_millis(arg, value());
    } else if (arg == "--inject-sleep-ms") {
      opt.inject_sleep_s = parse_millis(arg, value());
    } else if (arg == "--inject-sleep-session") {
      const char* v = value();
      if (v == nullptr || *v == '\0') {
        bad_flag(arg, v, "a session name");
      }
      opt.inject_sleep_session = v;
    } else if (arg == "--inject-sleep-hang") {
      opt.inject_sleep_hang = true;
    } else if (arg == "--stream") {
      const char* v = value();
      if (v == nullptr || *v == '\0') {
        bad_flag(arg, v, "a file path");
      }
      opt.stream = v;
    } else if (arg == "--inject-enospc-every") {
      opt.fault_plan.enospc_every = parse_count(arg, value(), 1);
      opt.inject_faults = true;
    } else if (arg == "--inject-eio-every") {
      opt.fault_plan.eio_every = parse_count(arg, value(), 1);
      opt.inject_faults = true;
    } else if (arg == "--inject-short-write-every") {
      opt.fault_plan.short_write_every = parse_count(arg, value(), 1);
      opt.inject_faults = true;
    } else if (arg == "--inject-torn-rename-every") {
      opt.fault_plan.torn_rename_every = parse_count(arg, value(), 1);
      opt.inject_faults = true;
    } else if (arg == "--inject-fs-max") {
      opt.fault_plan.max_faults = parse_count(arg, value(), 0);
    } else {
      std::fprintf(stderr, "easybo_serve: unknown flag \"%s\"\n",
                   arg.c_str());
      return false;
    }
  }
  if (opt.state_dir.empty()) {
    std::fprintf(stderr, "easybo_serve: --state-dir is required\n");
    return false;
  }
  if (opt.inject_sleep_s > 0.0 && opt.inject_sleep_session.empty()) {
    std::fprintf(stderr,
                 "easybo_serve: --inject-sleep-ms requires "
                 "--inject-sleep-session\n");
    return false;
  }
  return true;
}

/// stdin loop that stays interruptible: poll + read with a 200 ms tick,
/// so SIGTERM (EINTR or the next tick) ends the loop promptly instead of
/// waiting for the next complete line. std::getline would block in a
/// restarted read with the signal flag set and no one checking it.
/// Like TcpServer, it hangs up on a client that sends more than
/// serve::kMaxLineBytes without a newline: one ERR line, then exit 1.
int serve_stdio(easybo::serve::SessionHost& host) {
  using easybo::serve::kMaxLineBytes;
  std::string buffer;
  char chunk[4096];
  while (!g_stop) {
    pollfd pfd{STDIN_FILENO, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: re-check g_stop
      return 1;
    }
    if (ready == 0) continue;
    const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof chunk);
    if (n == 0) break;  // EOF: clean shutdown
    if (n < 0) {
      if (errno == EINTR) continue;
      return 1;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t eol = 0;
    while (!g_stop && (eol = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::fputs((host.handle_line(line) + "\n").c_str(), stdout);
      std::fflush(stdout);
    }
    if (!g_stop && buffer.size() > kMaxLineBytes) {
      // No newline in the buffer: the frame is lost, so there is no
      // spot to resynchronize from.
      std::printf("ERR request line exceeds %zu bytes, closing\n",
                  kMaxLineBytes);
      std::fflush(stdout);
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions opt;
  if (!parse_args(argc, argv, opt)) return usage();
  install_signal_handlers();
  // Installed for the whole process lifetime — function-local static so
  // the injector outlives every thread that might consult it.
  if (opt.inject_faults) {
    static easybo::io::FsFaultInjector injector(opt.fault_plan);
    easybo::io::install_fs_faults(&injector);
    std::fprintf(stderr, "easybo_serve: storage fault injection armed\n");
  }
  try {
    easybo::serve::HostLimits limits;
    limits.max_inflight = opt.max_inflight;
    limits.serve_workers = opt.serve_workers;
    limits.queue_capacity = opt.queue_capacity;
    limits.request_deadline_s = opt.request_deadline_s;
    limits.queue_wait_s = opt.queue_wait_s;
    limits.watchdog_grace_s = opt.watchdog_grace_s;
    easybo::serve::SessionHost host(opt.state_dir, opt.max_live, limits);
    if (opt.inject_sleep_s > 0.0) {
      easybo::serve::SessionHost::DebugSlowdown slow;
      slow.session = opt.inject_sleep_session;
      slow.sleep_s = opt.inject_sleep_s;
      slow.ignore_stop = opt.inject_sleep_hang;
      host.set_debug_slowdown(slow);
      std::fprintf(stderr,
                   "easybo_serve: injecting %.0fms SUGGEST slowdown on "
                   "session %s%s\n",
                   opt.inject_sleep_s * 1000.0,
                   opt.inject_sleep_session.c_str(),
                   opt.inject_sleep_hang ? " (ignoring cancellation)" : "");
    }
    if (opt.serve_workers > 0) {
      std::fprintf(stderr,
                   "easybo_serve: worker pool enabled (%zu workers, "
                   "deadline %.0fms)\n",
                   opt.serve_workers, opt.request_deadline_s * 1000.0);
    }
    // The stream outlives the host's serving life inside this scope;
    // wired before any traffic so every session inherits it.
    std::unique_ptr<easybo::obs::StreamSink> stream;
    if (!opt.stream.empty()) {
      easybo::obs::StreamOptions sopts;
      sopts.source = "serve:" + opt.state_dir;
      stream = std::make_unique<easybo::obs::StreamSink>(opt.stream, sopts);
      host.set_trace(stream.get());
      host.set_stream(stream.get());
      std::fprintf(stderr, "easybo_serve: streaming telemetry to %s\n",
                   opt.stream.c_str());
    }
    if (opt.port < 0) {
      const int rc = serve_stdio(host);
      if (stream != nullptr) stream->close();
      return rc;
    }
    easybo::serve::TcpOptions tcp;
    tcp.port = opt.port;
    tcp.max_clients = opt.max_clients;
    tcp.idle_timeout_s = opt.idle_timeout_s;
    easybo::serve::TcpServer server(host, tcp);
    server.start();
    std::fprintf(stderr, "easybo_serve: listening on 127.0.0.1:%d\n",
                 server.port());
    while (!g_stop) {
      // sleep_for returns early on EINTR (no SA_RESTART), so shutdown is
      // prompt; the tick only bounds the quiet-system latency.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    server.stop();
    if (stream != nullptr) stream->close();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "easybo_serve: %s\n", e.what());
    return 1;
  }
}
