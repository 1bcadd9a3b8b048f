#pragma once
/// \file tcp_server.h
/// \brief Multi-client TCP transport for SessionHost.
///
/// TcpServer pumps the SessionHost line protocol over TCP with one
/// thread per accepted connection — the host itself is thread-safe
/// (serve/host.h), so connections proceed in parallel and only rendezvous
/// on a per-session basis inside the host. The transport adds the
/// connection-level hygiene the host cannot see:
///
///  - a connection cap: accepts beyond TcpOptions::max_clients get one
///    "ERR busy ..." line and are closed immediately (never queued);
///  - a per-connection idle timeout: a client that goes quiet gets one
///    "ERR idle timeout ..." line and is disconnected, so dead peers
///    cannot pin connection slots;
///  - a line-length cap on the wire: a peer that streams bytes without a
///    newline is cut off at kMaxLineBytes (once framing is lost there is
///    nothing to resynchronize on);
///  - clean shutdown: stop() (or the stop flag polled every ~200 ms)
///    unblocks the accept loop and every connection thread promptly —
///    nothing sits in an uninterruptible read.
///
/// The same object serves examples/easybo_serve.cpp and the in-process
/// concurrent-load harness in bench/serve_load.cpp; port 0 binds an
/// ephemeral port reported by port().

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <thread>

#include "serve/host.h"

namespace easybo::serve {

struct TcpOptions {
  int port = 0;                 ///< 0 = ephemeral (see TcpServer::port())
  std::size_t max_clients = 64; ///< concurrent connections before "ERR busy"
  double idle_timeout_s = 300.0;  ///< quiet-connection cutoff; 0 = never
};

class TcpServer {
 public:
  /// \p host must outlive the server. Nothing happens until start().
  TcpServer(SessionHost& host, TcpOptions options);
  ~TcpServer();  ///< stop() if still running

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds (IPv4 loopback-any), listens and spawns the accept loop.
  /// Throws easybo::Error when the port cannot be bound.
  void start();

  /// Signals every thread, unblocks the accept loop and joins all of
  /// them. Idempotent.
  void stop();

  /// The bound port (resolves port 0 after start()).
  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Lifetime transport counters (monotonic except active).
  struct Stats {
    std::size_t accepted = 0;   ///< connections taken on
    std::size_t rejected = 0;   ///< closed at accept for the client cap
    std::size_t timed_out = 0;  ///< closed for idling
    std::size_t oversized = 0;  ///< closed for an unframed flood
    std::size_t active = 0;     ///< currently connected
  };
  Stats stats() const;

 private:
  struct Conn {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(int fd);
  void reap_finished();

  SessionHost& host_;
  TcpOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;

  std::mutex conns_mutex_;
  std::list<std::unique_ptr<Conn>> conns_;

  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> timed_out_{0};
  std::atomic<std::size_t> oversized_{0};
  std::atomic<std::size_t> active_{0};
};

}  // namespace easybo::serve
