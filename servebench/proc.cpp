#include "proc.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace servebench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    wait(5.0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Child::spawn(const std::vector<std::string>& argv,
                  const std::string& stderr_path) {
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  pending_.clear();
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return false;
  const int err_fd = ::open(stderr_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  // vfork, not fork: fork copies the page tables of this process, whose
  // memory holds the recorded inputs, and that made a launch take twice as
  // long after the first saturated round, inflating setup_s.
  const pid_t pid = ::vfork();
  if (pid == 0) {
    // Child, sharing this process's memory until exec: only raw system
    // calls, no allocation. The server dies with the benchmark process,
    // whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    if (null_fd < 0 || err_fd < 0 || ::dup2(null_fd, 0) < 0 ||
        ::dup2(fds[1], 1) < 0 || ::dup2(err_fd, 2) < 0) {
      ::_exit(127);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  pid_ = pid;
  ::close(fds[1]);
  if (err_fd >= 0) ::close(err_fd);
  if (pid_ < 0) {
    ::close(fds[0]);
    return false;
  }
  out_fd_ = fds[0];
  return true;
}

std::optional<std::string> Child::read_line(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  for (;;) {
    const std::size_t eol = pending_.find('\n');
    if (eol != std::string::npos) {
      std::string line = pending_.substr(0, eol);
      pending_.erase(0, eol + 1);
      return line;
    }
    if (out_fd_ < 0) return std::nullopt;
    const double left = deadline - now_s();
    if (left <= 0) return std::nullopt;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
      continue;
    }
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

double Child::cpu_s() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // Fields after "(comm)" start at field 3 (state); utime is 14, stime 15.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Child::hwm_mib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void Child::terminate() const {
  if (pid_ > 0) ::kill(pid_, SIGTERM);
}

int Child::wait(double timeout_s) {
  if (pid_ <= 0) return -1;
  const double deadline = now_s() + timeout_s;
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) {
      pid_ = -1;
      return -1;
    }
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool copy_tree(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive,
                        ec);
  return !ec;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

bool make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

}  // namespace servebench
