// OS plumbing for the serve benchmark: clocks, child processes with a
// captured stdout, /proc readers, loopback sockets and directory copies.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

namespace servebench {

/// Monotonic seconds (steady_clock).
double now_s();
/// CPU seconds of the calling thread.
double thread_cpu_s();

/// A spawned process whose stdout is read line by line and whose stderr
/// goes to a file. It is killed when the spawning thread exits, and the
/// destructor kills and reaps a child still running. spawn() may be called
/// again once the previous child was reaped; call it from the main thread.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool spawn(const std::vector<std::string>& argv,
             const std::string& stderr_path);
  /// Next stdout line, or nullopt on EOF / timeout.
  std::optional<std::string> read_line(double timeout_s);
  /// user+sys CPU seconds of the whole process so far.
  double cpu_s() const;
  /// Peak resident set (VmHWM) in MiB.
  double hwm_mib() const;
  void terminate() const;
  /// Waits for exit (SIGKILL after `timeout_s`); returns the exit status
  /// (128+signal when killed, -1 when not running).
  int wait(double timeout_s);
  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string pending_;
};

/// Blocking connect to 127.0.0.1:port; -1 on failure.
int connect_loopback(int port);
/// Writes all of `data`; false when the peer closed.
bool send_all(int fd, const std::string& data);

bool copy_tree(const std::string& from, const std::string& to);
void remove_tree(const std::string& path);
bool make_dirs(const std::string& path);

}  // namespace servebench
