// Socket-level tests for the TCP transport (src/serve/tcp_server.h):
// request/reply over a real connection, concurrent clients, the idle
// timeout, the wire line cap, the connection cap, and prompt clean
// shutdown. A tiny blocking test client keeps the transport honest —
// no shortcuts through SessionHost::handle_line.

#include "serve/tcp_server.h"

#include <gtest/gtest.h>

#ifdef __unix__

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/session_config.h"
#include "temp_dir.h"

namespace easybo::serve {
namespace {

using tests::temp_dir;

std::string quick_config_json(std::uint64_t seed) {
  bo::BoConfig cfg;
  cfg.mode = bo::Mode::Sequential;
  cfg.acq = bo::AcqKind::EasyBo;
  cfg.penalize = true;
  cfg.batch = 1;
  cfg.init_points = 2;
  cfg.max_sims = 4;
  cfg.seed = seed;
  cfg.on_eval_failure = bo::EvalFailurePolicy::Discard;
  cfg.acq_opt.sobol_candidates = 16;
  cfg.acq_opt.random_candidates = 8;
  cfg.acq_opt.refine_evals = 10;
  cfg.trainer.max_iters = 5;
  cfg.trainer.restarts = 1;
  opt::Bounds bounds;
  bounds.lower = {0.0};
  bounds.upper = {1.0};
  return session_config_json(cfg, bounds);
}

/// Minimal blocking line client. recv_line() reads until '\n' or EOF
/// (returning what arrived); everything fails the test loudly via the
/// returned empty/partial data rather than hanging (10 s socket
/// timeouts).
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    EXPECT_TRUE(connected_);
  }
  ~LineClient() { close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connected() const { return connected_; }

  void send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
  }

  /// One reply line, newline stripped; "" on timeout or EOF.
  std::string recv_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string request(const std::string& line) {
    send_raw(line + "\n");
    return recv_line();
  }

  /// True when the peer terminates the connection within the timeout —
  /// either a clean FIN (recv 0) or an RST (ECONNRESET, which the kernel
  /// sends when the server closes with our unread bytes still queued).
  bool peer_closed() {
    for (;;) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return errno == ECONNRESET;
    }
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

TEST(TcpServer, ServesRequestsAndResolvesAnEphemeralPort) {
  SessionHost host(temp_dir("basic"), 4);
  TcpServer server(host, TcpOptions{});
  server.start();
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  LineClient client(server.port());
  const std::string health = client.request("STATUS");
  EXPECT_EQ(health.rfind("OK {", 0), 0u) << health;
  EXPECT_EQ(client.request("NEW a " + quick_config_json(3)), "OK created a");
  EXPECT_EQ(client.request("SUGGEST a").rfind("OK ", 0), 0u);
  EXPECT_EQ(client.request("NONSENSE").rfind("ERR ", 0), 0u);
  // Lines arriving with CRLF endings work the same.
  client.send_raw("STATUS a\r\n");
  EXPECT_EQ(client.recv_line().rfind("OK ", 0), 0u);

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_GE(server.stats().accepted, 1u);
}

TEST(TcpServer, ConcurrentConnectionsEachGetTheirOwnReplies) {
  SessionHost host(temp_dir("concurrent"), 8);
  TcpServer server(host, TcpOptions{});
  server.start();

  const int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client(server.port());
      const std::string name = "conn" + std::to_string(c);
      if (client.request("NEW " + name + " " + quick_config_json(10 + c)) !=
          "OK created " + name) {
        ++failures[c];
      }
      for (int r = 0; r < 3; ++r) {
        const std::string reply = client.request("STATUS " + name);
        // Replies must belong to this connection's session — a crossed
        // wire would answer with another conn's name.
        if (reply.rfind("OK ", 0) != 0 ||
            reply.find("\"" + name + "\"") == std::string::npos) {
          ++failures[c];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  server.stop();
  EXPECT_GE(server.stats().accepted, static_cast<std::size_t>(kClients));
  EXPECT_EQ(server.stats().active, 0u);
}

TEST(TcpServer, IdleConnectionsAreToldAndDisconnected) {
  SessionHost host(temp_dir("idle"), 4);
  TcpOptions options;
  options.idle_timeout_s = 0.3;
  TcpServer server(host, options);
  server.start();

  LineClient client(server.port());
  // The connection works, then goes quiet past the timeout.
  EXPECT_EQ(client.request("STATUS").rfind("OK ", 0), 0u);
  const std::string notice = client.recv_line();
  EXPECT_EQ(notice.rfind("ERR idle timeout", 0), 0u) << notice;
  EXPECT_TRUE(client.peer_closed());
  server.stop();
  EXPECT_GE(server.stats().timed_out, 1u);
}

TEST(TcpServer, SlowInFlightRequestDoesNotEatTheIdleBudget) {
  // The idle clock measures CLIENT silence. A SUGGEST that executes
  // longer than the idle timeout must not get the connection cut right
  // after its reply: the clock restarts when the reply is written, not
  // when the request arrived.
  SessionHost host(temp_dir("slow_inflight"), 4);
  TcpOptions options;
  options.idle_timeout_s = 0.4;
  TcpServer server(host, options);
  server.start();

  LineClient client(server.port());
  ASSERT_EQ(client.request("NEW a " + quick_config_json(7)), "OK created a");

  // Make the next SUGGEST take twice the idle timeout (direct-dispatch
  // mode: no deadline token, so the injected sleep runs to completion).
  SessionHost::DebugSlowdown slow;
  slow.session = "a";
  slow.sleep_s = 0.8;
  host.set_debug_slowdown(slow);
  EXPECT_EQ(client.request("SUGGEST a").rfind("OK ", 0), 0u);

  // A fresh idle budget started with that reply: a follow-up inside the
  // window still works and the connection was never timed out.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(client.request("STATUS a").rfind("OK ", 0), 0u);
  server.stop();
  EXPECT_EQ(server.stats().timed_out, 0u);
}

TEST(TcpServer, UnframedFloodIsCutOffAtTheLineCap) {
  SessionHost host(temp_dir("flood"), 4);
  TcpOptions options;
  TcpServer server(host, options);
  server.start();

  LineClient client(server.port());
  // One byte past the cap, no newline, ever.
  client.send_raw(std::string(kMaxLineBytes + 1, 'A'));
  const std::string notice = client.recv_line();
  EXPECT_EQ(notice.rfind("ERR request line exceeds", 0), 0u) << notice;
  EXPECT_TRUE(client.peer_closed());
  server.stop();
  EXPECT_GE(server.stats().oversized, 1u);

  // A framed request under the cap on a fresh connection still works.
  TcpServer server2(host, options);
  server2.start();
  LineClient ok_client(server2.port());
  EXPECT_EQ(ok_client.request("STATUS").rfind("OK ", 0), 0u);
  server2.stop();
}

TEST(TcpServer, ConnectionsBeyondTheCapAreRejectedAtTheDoor) {
  SessionHost host(temp_dir("cap"), 4);
  TcpOptions options;
  options.max_clients = 1;
  TcpServer server(host, options);
  server.start();

  LineClient first(server.port());
  // Make sure the first connection is fully registered before the
  // second arrives (the accept loop counts it when it accepts).
  ASSERT_EQ(first.request("STATUS").rfind("OK ", 0), 0u);

  LineClient second(server.port());
  const std::string notice = second.recv_line();
  EXPECT_EQ(notice.rfind("ERR busy (connection limit", 0), 0u) << notice;
  EXPECT_TRUE(second.peer_closed());
  // The first connection is unaffected.
  EXPECT_EQ(first.request("STATUS").rfind("OK ", 0), 0u);

  // Freeing the slot lets the next client in.
  first.close();
  for (int spin = 0; spin < 100; ++spin) {
    if (server.stats().active == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  LineClient third(server.port());
  EXPECT_EQ(third.request("STATUS").rfind("OK ", 0), 0u);

  server.stop();
  EXPECT_GE(server.stats().rejected, 1u);
}

TEST(TcpServer, StopIsPromptAndIdempotentWithAClientConnected) {
  SessionHost host(temp_dir("stop"), 4);
  TcpServer server(host, TcpOptions{});
  server.start();
  LineClient client(server.port());
  ASSERT_EQ(client.request("STATUS").rfind("OK ", 0), 0u);

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  server.stop();  // idempotent
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // One ~200 ms poll tick for the accept loop plus one for the
  // connection thread, with generous slack for a loaded machine.
  EXPECT_LT(seconds, 5.0);
  EXPECT_FALSE(server.running());
  EXPECT_TRUE(client.peer_closed());
}

TEST(TcpServer, ClientDisconnectLeavesTheServerServing) {
  SessionHost host(temp_dir("disconnect"), 4);
  TcpServer server(host, TcpOptions{});
  server.start();
  {
    LineClient ephemeral(server.port());
    // Drop the connection mid-protocol without a goodbye.
    ephemeral.send_raw("STATUS");
  }
  LineClient client(server.port());
  EXPECT_EQ(client.request("STATUS").rfind("OK ", 0), 0u);
  server.stop();
}

}  // namespace
}  // namespace easybo::serve

#else  // !__unix__

TEST(TcpServer, SkippedOnThisPlatform) { GTEST_SKIP(); }

#endif
