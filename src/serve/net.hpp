// Loopback sockets shared by every serve front end: the ingest ports of
// `seqrtg serve` and `seqrtg route`, the cluster transport and the HTTP
// responder.
//
// A Listener owns one 127.0.0.1 listen socket. One thread accepts; each
// connection's handler runs on a thread of its own, which is joined once
// the connection ends (at the next accept, or at stop()), so the threads
// held stay bounded by the peak number of live connections. read_chunks is
// the read loop every serve socket reader runs on, and read_lines the
// JSON-lines reader both ingest ports run on each connection.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "serve/cluster_proto.hpp"

namespace seqrtg::serve {

/// Longest ingest line: the cluster transport's frame cap, so both
/// transports accept the same largest record.
inline constexpr std::size_t kMaxLineBytes = kMaxClusterFramePayload;

class Listener {
 public:
  /// Serves one accepted connection on its own thread. The listener
  /// closes `fd` once the handler returns.
  using Handler = std::function<void(int fd)>;

  Listener() = default;
  ~Listener() { stop(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens on 127.0.0.1:`port` (0 = kernel-assigned). On
  /// failure returns false with "socket: ..." or "bind: ..." in `error`
  /// and holds nothing open.
  bool bind(int port, std::string* error);

  /// Starts the accept thread. Call after each successful bind().
  void start(Handler handler);

  /// The bound port; 0 when not bound.
  int port() const { return port_; }

  /// Stops accepting, shuts down the live connections so parked reads see
  /// EOF, joins every thread and closes the socket. Idempotent.
  void stop();

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  void accept_loop();
  void serve(std::list<Connection>::iterator conn, int fd);

  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: stop() wakes the accept thread through it
  int port_ = 0;
  Handler handler_;
  std::mutex mutex_;
  std::list<Connection> live_;
  /// Connections whose handler returned; their threads are not joined yet.
  std::list<Connection> ended_;
  std::thread accept_thread_;
};

/// Reads `fd` in 64 KiB chunks, retrying EINTR, and hands each chunk to
/// `on_chunk` until EOF, a read error, or `on_chunk` returns false.
/// Returns true only at EOF.
bool read_chunks(int fd,
                 const std::function<bool(std::string_view)>& on_chunk);

/// Reads '\n'-terminated lines from `fd` until EOF or a read error and
/// hands each to `on_line` without its '\n'; a final unterminated line
/// still counts. Stops as soon as `on_line` returns false. A line longer
/// than kMaxLineBytes is discarded through its '\n' without being
/// buffered, and `on_overlong` runs once for it.
void read_lines(int fd, const std::function<bool(std::string_view)>& on_line,
                const std::function<void()>& on_overlong);

/// Connects to 127.0.0.1:`port`. `timeout_ms` > 0 bounds the connect and
/// every later read and send on the socket; 0 waits without a bound.
/// Returns the connected fd, or -1.
int connect_loopback(int port, int timeout_ms);

/// Sends all of `bytes`, retrying partial sends and EINTR. MSG_NOSIGNAL:
/// a peer that hung up fails the call instead of raising SIGPIPE.
bool send_all(int fd, std::string_view bytes);

}  // namespace seqrtg::serve
