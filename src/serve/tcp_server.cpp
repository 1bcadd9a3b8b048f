#include "serve/tcp_server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "common/error.h"

namespace easybo::serve {

namespace {

/// Wake-up cadence for every blocking point (accept and reads): short
/// enough that stop() and signal-driven shutdown feel immediate, long
/// enough to cost nothing.
constexpr int kPollMs = 200;

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Writes all of \p text, riding out EINTR and partial sends. False when
/// the peer is gone — the caller just closes; half-delivered replies to a
/// vanished client are not an error.
bool send_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::send(fd, text.data() + off, text.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

TcpServer::TcpServer(SessionHost& host, TcpOptions options)
    : host_(host), options_(options) {
  EASYBO_REQUIRE(options_.max_clients > 0,
                 "TcpServer: max_clients must be positive");
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::start() {
  EASYBO_REQUIRE(!running(), "TcpServer::start: already running");
  stop_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw Error(std::string("socket: ") + std::strerror(errno));
  }
  const int yes = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Loopback only: the protocol is unauthenticated by design
  // (docs/service-protocol.md); anything wider belongs behind a proxy.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const std::string msg = std::string("bind port ") +
                            std::to_string(options_.port) + ": " +
                            std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(msg);
  }
  if (::listen(listen_fd_, 64) < 0) {
    const std::string msg = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(msg);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    port_ = options_.port;
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void TcpServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Connection threads poll stop_ every kPollMs, so these joins are
  // bounded.
  std::list<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(conns_mutex_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
  }
}

TcpServer::Stats TcpServer::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.oversized = oversized_.load(std::memory_order_relaxed);
  s.active = active_.load(std::memory_order_relaxed);
  return s;
}

void TcpServer::reap_finished() {
  std::lock_guard<std::mutex> lk(conns_mutex_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpServer::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      reap_finished();
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    reap_finished();
    if (active_.load(std::memory_order_relaxed) >= options_.max_clients) {
      // Shed at the door, loudly: an immediate one-line refusal beats a
      // connection that hangs in a backlog the host will never drain.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      send_all(fd, "ERR busy (connection limit " +
                       std::to_string(options_.max_clients) + "; retry in " +
                       std::to_string(host_.retry_hint_ms()) + "ms)\n");
      ::close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>();
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lk(conns_mutex_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, fd, raw] {
      serve_connection(fd);
      active_.fetch_sub(1, std::memory_order_relaxed);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void TcpServer::serve_connection(int fd) {
  std::string buf;
  char chunk[4096];
  double last_activity = monotonic_seconds();
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      if (options_.idle_timeout_s > 0 &&
          monotonic_seconds() - last_activity > options_.idle_timeout_s) {
        timed_out_.fetch_add(1, std::memory_order_relaxed);
        send_all(fd, "ERR idle timeout, closing\n");
        break;
      }
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) break;  // clean disconnect
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    last_activity = monotonic_seconds();
    buf.append(chunk, static_cast<std::size_t>(n));

    bool drop = false;
    std::size_t pos = 0;
    std::size_t nl = 0;
    while ((nl = buf.find('\n', pos)) != std::string::npos) {
      std::string line = buf.substr(pos, nl - pos);
      pos = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!send_all(fd, host_.handle_line(line) + "\n")) {
        drop = true;
        break;
      }
      // The idle clock measures CLIENT silence, so it restarts when the
      // reply goes out, not when the request came in: a slow in-flight
      // command (a long SUGGEST) must not eat into the client's idle
      // budget (tests/test_tcp_server.cpp pins this).
      last_activity = monotonic_seconds();
    }
    buf.erase(0, pos);
    if (drop) break;
    if (buf.size() > kMaxLineBytes) {
      // A newline may never come; once the frame is blown there is no
      // spot to resynchronize from, so refuse and hang up.
      oversized_.fetch_add(1, std::memory_order_relaxed);
      send_all(fd, "ERR request line exceeds " +
                       std::to_string(kMaxLineBytes) + " bytes, closing\n");
      break;
    }
  }
  ::close(fd);
}

}  // namespace easybo::serve
