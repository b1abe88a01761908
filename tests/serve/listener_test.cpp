// Tests for serve/net: the loopback Listener every serve front end runs on
// (bind, one thread per connection joined when it ends, stop), the shared
// JSON-lines reader and its line cap, and the client-side connect helper;
// plus the two `seqrtg serve` ingest limits they give: short connections
// do not pile up threads, and an over-long line is never buffered.
#include "serve/net.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/ingest.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "store/pattern_store.hpp"

namespace seqrtg::serve {
namespace {

using namespace std::chrono_literals;

std::size_t entries(const char* dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir)) {
    ++n;
  }
  return n;
}

std::size_t thread_count() { return entries("/proc/self/task"); }

/// A field of /proc/self/status in kB ("VmSize", "VmRSS").
std::int64_t status_kib(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stoll(line.substr(key.size() + 1));
    }
  }
  return -1;
}

/// Handler that reads its connection to EOF and records what it carried.
struct Recorder {
  std::mutex mutex;
  std::condition_variable cv;
  int running = 0;
  std::vector<std::string> finished;

  Listener::Handler handler() {
    return [this](int fd) {
      {
        std::lock_guard lock(mutex);
        ++running;
      }
      cv.notify_all();
      std::string data;
      char buf[256];
      ssize_t n = 0;
      while ((n = ::read(fd, buf, sizeof buf)) > 0) {
        data.append(buf, static_cast<std::size_t>(n));
      }
      {
        std::lock_guard lock(mutex);
        --running;
        finished.push_back(std::move(data));
      }
      cv.notify_all();
    };
  }

  bool wait(const std::function<bool()>& pred) {
    std::unique_lock lock(mutex);
    return cv.wait_for(lock, 10s, pred);
  }
};

TEST(Listener, PortZeroReportsTheBoundPort) {
  Recorder recorder;
  Listener listener;
  EXPECT_EQ(listener.port(), 0);
  std::string error;
  ASSERT_TRUE(listener.bind(0, &error)) << error;
  ASSERT_GT(listener.port(), 0);
  listener.start(recorder.handler());

  const int fd = connect_loopback(listener.port(), 2000);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "ping"));
  ::close(fd);
  ASSERT_TRUE(recorder.wait([&] { return recorder.finished.size() == 1; }));
  EXPECT_EQ(recorder.finished[0], "ping");
  listener.stop();
  EXPECT_EQ(listener.port(), 0);
}

TEST(Listener, BindingAPortInUseFailsAndStartsNoThread) {
  Listener holder;
  std::string error;
  ASSERT_TRUE(holder.bind(0, &error)) << error;

  const std::size_t threads = thread_count();
  Listener second;
  EXPECT_FALSE(second.bind(holder.port(), &error));
  EXPECT_EQ(error.rfind("bind: ", 0), 0u) << error;
  EXPECT_EQ(second.port(), 0);
  EXPECT_EQ(thread_count(), threads);
}

TEST(Listener, ServesAConnectionWhileAnotherIsParkedInRead) {
  Recorder recorder;
  Listener listener;
  std::string error;
  ASSERT_TRUE(listener.bind(0, &error)) << error;
  listener.start(recorder.handler());

  const int parked = connect_loopback(listener.port(), 2000);
  ASSERT_GE(parked, 0);
  ASSERT_TRUE(recorder.wait([&] { return recorder.running == 1; }));

  const int other = connect_loopback(listener.port(), 2000);
  ASSERT_GE(other, 0);
  ASSERT_TRUE(send_all(other, "second"));
  ::close(other);
  ASSERT_TRUE(recorder.wait([&] { return recorder.finished.size() == 1; }));
  EXPECT_EQ(recorder.finished[0], "second");
  {
    std::lock_guard lock(recorder.mutex);
    EXPECT_EQ(recorder.running, 1);  // the first handler is still parked
  }
  listener.stop();
  ::close(parked);
}

TEST(Listener, StopWakesAHandlerParkedInRead) {
  Recorder recorder;
  Listener listener;
  std::string error;
  ASSERT_TRUE(listener.bind(0, &error)) << error;
  listener.start(recorder.handler());

  // The client never closes: only stop() can end the handler's read.
  const int client = connect_loopback(listener.port(), 2000);
  ASSERT_GE(client, 0);
  ASSERT_TRUE(recorder.wait([&] { return recorder.running == 1; }));
  listener.stop();
  {
    std::lock_guard lock(recorder.mutex);
    EXPECT_EQ(recorder.running, 0);
    EXPECT_EQ(recorder.finished.size(), 1u);  // the read returned EOF
  }
  ::close(client);
}

TEST(Listener, StopJoinsEveryThreadIsIdempotentAndRunsOnDestruction) {
  const std::size_t threads = thread_count();
  Recorder recorder;
  std::vector<int> clients;
  {
    Listener listener;
    std::string error;
    ASSERT_TRUE(listener.bind(0, &error)) << error;
    listener.start(recorder.handler());
    for (int i = 0; i < 3; ++i) {
      clients.push_back(connect_loopback(listener.port(), 2000));
      ASSERT_GE(clients.back(), 0);
    }
    ASSERT_TRUE(recorder.wait([&] { return recorder.running == 3; }));
    EXPECT_EQ(thread_count(), threads + 4);  // accept + one per connection
    listener.stop();
    EXPECT_EQ(thread_count(), threads);
    listener.stop();
    EXPECT_EQ(thread_count(), threads);

    // Bound again and left to the destructor with a handler parked.
    ASSERT_TRUE(listener.bind(0, &error)) << error;
    listener.start(recorder.handler());
    clients.push_back(connect_loopback(listener.port(), 2000));
    ASSERT_GE(clients.back(), 0);
    ASSERT_TRUE(recorder.wait([&] { return recorder.running == 1; }));
  }
  EXPECT_EQ(thread_count(), threads);
  {
    std::lock_guard lock(recorder.mutex);
    EXPECT_EQ(recorder.running, 0);
    EXPECT_EQ(recorder.finished.size(), 4u);
  }
  for (const int fd : clients) ::close(fd);
}

TEST(Listener, StopReleasesEveryDescriptor) {
  const std::size_t fds = entries("/proc/self/fd");
  Recorder recorder;
  Listener listener;
  std::string error;
  ASSERT_TRUE(listener.bind(0, &error)) << error;
  listener.start(recorder.handler());
  const int done = connect_loopback(listener.port(), 2000);
  const int open = connect_loopback(listener.port(), 2000);
  ASSERT_GE(done, 0);
  ASSERT_GE(open, 0);
  ::close(done);
  ASSERT_TRUE(recorder.wait([&] {
    return recorder.finished.size() == 1 && recorder.running == 1;
  }));
  listener.stop();
  ::close(open);
  EXPECT_EQ(entries("/proc/self/fd"), fds);
}

TEST(Listener, ConnectLoopbackToAClosedPortFailsWithinItsTimeout) {
  Listener listener;
  std::string error;
  ASSERT_TRUE(listener.bind(0, &error)) << error;
  const int port = listener.port();
  listener.stop();

  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(connect_loopback(port, 1000), -1);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1000ms);
}

/// Runs read_lines over a socket pair fed with `input` (then closed).
struct ReadResult {
  std::vector<std::string> lines;
  int overlong = 0;
};
ReadResult read_all(const std::string& input, std::size_t stop_after = 0) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  std::thread writer([&input, fd = fds[1]] {
    send_all(fd, input);
    ::close(fd);
  });
  ReadResult result;
  read_lines(
      fds[0],
      [&](std::string_view line) {
        result.lines.emplace_back(line);
        return result.lines.size() != stop_after;
      },
      [&] { ++result.overlong; });
  ::close(fds[0]);  // a reader that stopped early leaves the writer blocked
  writer.join();
  return result;
}

TEST(ReadLines, CapsALineAtKMaxLineBytes) {
  const std::string at_cap(kMaxLineBytes, 'a');
  const ReadResult result = read_all(at_cap + "\n" +
                                     std::string(kMaxLineBytes + 1, 'b') +
                                     "\n{}\n\ntail");
  ASSERT_EQ(result.lines.size(), 4u);
  EXPECT_EQ(result.lines[0], at_cap);
  EXPECT_EQ(result.lines[1], "{}");
  EXPECT_EQ(result.lines[2], "");
  EXPECT_EQ(result.lines[3], "tail");  // unterminated, still a line
  EXPECT_EQ(result.overlong, 1);
}

TEST(ReadLines, StopsAtTheLineItsSinkRefuses) {
  const ReadResult result = read_all("a\nb\nc\nd", /*stop_after=*/2);
  EXPECT_EQ(result.lines, (std::vector<std::string>{"a", "b"}));
}

std::string record_line(int i) {
  return core::record_to_json(
             {"svc", "job " + std::to_string(i) + " done in 3 ms"}) +
         "\n";
}

TEST(ServeFrontEnd, ShortConnectionsDoNotHoldTheirThreads) {
  store::PatternStore store;
  ServeOptions opts;
  opts.port = 0;
  opts.flush_interval_s = 0.02;
  Server server(&store, opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Each ended connection's thread is joined; one held unjoined keeps its
  // 8 MiB stack mapped, 2.4 GiB over this loop. The client waits for the
  // server to close each connection before it opens the next.
  const std::int64_t vm_before = status_kib("VmSize");
  for (int i = 0; i < 300; ++i) {
    const int fd = connect_loopback(server.ingest_port(), 2000);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, record_line(i)));
    ::shutdown(fd, SHUT_WR);
    char byte = 0;
    EXPECT_EQ(::read(fd, &byte, 1), 0);
    ::close(fd);
  }
  ASSERT_TRUE(server.wait_until([&] { return server.processed() == 300; }));
  EXPECT_LT(status_kib("VmSize") - vm_before, 256 * 1024);

  const ServeReport report = server.stop();
  EXPECT_EQ(report.connections, 300u);
  EXPECT_EQ(report.processed, 300u);
}

TEST(ServeFrontEnd, OverlongLineIsOneMalformedLineAndIsNotBuffered) {
  store::PatternStore store;
  ServeOptions opts;
  opts.port = 0;
  opts.flush_interval_s = 0.02;
  Server server(&store, opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::string chunk(1 << 20, 'x');
  const std::int64_t rss_before = status_kib("VmRSS");
  const int fd = connect_loopback(server.ingest_port(), 0);
  ASSERT_GE(fd, 0);
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(send_all(fd, chunk));
  ASSERT_TRUE(send_all(fd, "\n" + record_line(0)));
  ASSERT_TRUE(server.wait_until(
      [&] { return server.malformed() == 1 && server.processed() == 1; }));
  // Measured with the connection still open: a reader that buffered the
  // 64 MiB line would hold it until the connection ends.
  EXPECT_LT(status_kib("VmRSS") - rss_before, 48 * 1024);
  ::close(fd);

  const ServeReport report = server.stop();
  EXPECT_EQ(report.malformed, 1u);
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_EQ(report.processed, 1u);
}

TEST(ServeFrontEnd, ConcurrentScrapesWhileIngesting) {
  // Each HTTP request runs on its own thread, so the endpoint handlers run
  // concurrently with each other as well as with the lanes.
  store::PatternStore store;
  ServeOptions opts;
  opts.port = 0;
  opts.http_port = 0;
  opts.lanes = 2;
  opts.batch_size = 16;
  opts.flush_interval_s = 0.01;
  Server server(&store, opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr int kRecords = 2000;
  std::thread producer([&] {
    const int fd = connect_loopback(server.ingest_port(), 0);
    std::string payload;
    for (int i = 0; i < kRecords; ++i) payload += record_line(i);
    send_all(fd, payload);
    ::close(fd);
  });
  const std::vector<std::string> targets = {
      "/healthz",        "/metrics",          "/debug/lanes",
      "/debug/patterns", "/debug/trace?ms=50", "/debug/evolution",
      "/debug/governor"};
  std::vector<std::thread> scrapers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        for (const std::string& target : targets) {
          if (!http_get(server.http_port(), target).has_value()) ++failures;
        }
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  producer.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(
      server.wait_until([&] { return server.processed() == kRecords; }));
  EXPECT_EQ(server.stop().processed, static_cast<std::uint64_t>(kRecords));
}

}  // namespace
}  // namespace seqrtg::serve
