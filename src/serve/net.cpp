#include "serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <system_error>
#include <vector>

namespace seqrtg::serve {

namespace {

/// Pending-connection queue of every listener.
constexpr int kListenBacklog = 64;

sockaddr_in loopback_address(int port) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return addr;
}

}  // namespace

bool Listener::bind(int port, std::string* error) {
  const auto fail = [&](const char* what) {
    if (error != nullptr) *error = std::string(what) + ": " + strerror(errno);
    stop();
    return false;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback_address(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    return fail("bind");
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC);
  if (wake_fd_ < 0) return fail("eventfd");
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  return true;
}

void Listener::start(Handler handler) {
  handler_ = std::move(handler);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Listener::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    std::list<Connection> ended;
    std::list<Connection>::iterator conn;
    {
      std::lock_guard lock(mutex_);
      ended.swap(ended_);
      conn = live_.insert(live_.end(), Connection{fd, {}});
    }
    for (Connection& c : ended) c.thread.join();
    // The thread is made outside the lock, so handlers that are ending
    // never wait behind a thread creation.
    try {
      std::thread thread([this, conn, fd] { serve(conn, fd); });
      std::lock_guard lock(mutex_);
      conn->thread = std::move(thread);
    } catch (const std::system_error&) {
      std::lock_guard lock(mutex_);
      live_.erase(conn);  // no thread to spare: refuse this connection
      ::close(fd);
    }
  }
}

void Listener::serve(std::list<Connection>::iterator conn, int fd) {
  handler_(fd);
  {
    std::lock_guard lock(mutex_);
    ended_.splice(ended_.end(), live_, conn);
  }
  // Deregistered before the close, so stop() never shuts down a recycled
  // fd number that now belongs to someone else.
  ::close(fd);
}

void Listener::stop() {
  if (accept_thread_.joinable()) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
    accept_thread_.join();
  }
  // With the accept thread gone every connection has its thread; each
  // handler still running moves its connection to ended_ as it returns.
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(mutex_);
    for (Connection& conn : live_) {
      ::shutdown(conn.fd, SHUT_RDWR);
      threads.push_back(std::move(conn.thread));
    }
    for (Connection& conn : ended_) threads.push_back(std::move(conn.thread));
  }
  for (std::thread& t : threads) t.join();
  ended_.clear();  // every handler is joined: no one else touches it now
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = wake_fd_ = -1;
  port_ = 0;
}

bool read_chunks(int fd,
                 const std::function<bool(std::string_view)>& on_chunk) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return n == 0;  // stop() shutting the socket down is EOF
    if (!on_chunk(std::string_view(chunk, static_cast<std::size_t>(n)))) {
      return false;
    }
  }
}

void read_lines(int fd, const std::function<bool(std::string_view)>& on_line,
                const std::function<void()>& on_overlong) {
  // `pending` holds the start of a line split across reads; lines inside
  // one read are handed over in place. Only new bytes are searched.
  std::string pending;
  bool skipping = false;  // inside an over-long line, until its '\n'
  bool stopped = false;
  read_chunks(fd, [&](std::string_view data) {
    while (!data.empty()) {
      const std::size_t eol = data.find('\n');
      std::string_view piece = data.substr(0, eol);
      if (!skipping && pending.size() + piece.size() > kMaxLineBytes) {
        std::string().swap(pending);
        skipping = true;
        on_overlong();
      }
      if (eol == std::string_view::npos) {
        if (!skipping) pending.append(piece);
        break;
      }
      data.remove_prefix(eol + 1);
      if (skipping) {
        skipping = false;
        continue;
      }
      if (!pending.empty()) piece = pending.append(piece);  // the whole line
      stopped = !on_line(piece);
      pending.clear();
      if (stopped) return false;
    }
    return true;
  });
  if (!stopped && !pending.empty()) on_line(pending);
}

int connect_loopback(int port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (timeout_ms > 0) {
    const timeval tv = {timeout_ms / 1000, (timeout_ms % 1000) * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  const sockaddr_in addr = loopback_address(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace seqrtg::serve
