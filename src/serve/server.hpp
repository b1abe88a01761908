// `seqrtg serve` — the long-running streaming daemon (RTG extension #1
// taken to its deployment shape).
//
// The paper wires Sequence-RTG behind syslog-ng as a batch child process;
// this module turns the same parse-before-analyse loop into a continuously
// serving component:
//
//   socket/stdin readers ──► shard by hash(service) ──► N worker lanes
//        (producers)                                 (BoundedQueue each)
//                                                         │
//                                 Engine::analyze_by_service per flush
//                                                         │
//                                  PatternStore (WAL commit group per
//                                  flush; periodic + final checkpoint)
//
// Records arrive as JSON lines ({"service":...,"message":...}) over a
// localhost TCP socket and/or a streamed stdin pipe. Services are sharded
// onto lanes, so per-service pattern state is only ever touched by one
// lane — the paper's "patterns never cross services" horizontal-scaling
// property applied inside one process. Each lane flushes its accumulated
// mini-batch when it reaches batch_size records or flush_interval elapses,
// whichever is first.
//
// Graceful drain (SIGTERM/SIGINT via util::shutdown_requested, or
// request_stop()): the listener closes, connection readers finish and
// join, every queue is closed and drained by its worker, a final
// PatternStore::checkpoint() rotates a snapshot, and stop() returns a
// report whose invariant is accepted == processed (+ exact drop counts
// under the kDrop policy). A crash instead of a clean drain loses nothing
// acknowledged: every flush is one WAL commit group (PR 3 guarantees).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/analyze_by_service.hpp"
#include "core/evolution.hpp"
#include "core/governor.hpp"
#include "core/ingest.hpp"
#include "serve/http.hpp"
#include "serve/net.hpp"
#include "store/pattern_store.hpp"
#include "util/bounded_queue.hpp"
#include "util/clock.hpp"

namespace seqrtg::serve {

struct ServeOptions {
  core::EngineOptions engine;
  /// Ingest listener port on 127.0.0.1: -1 = no socket listener,
  /// 0 = kernel-assigned (tests), >0 = fixed.
  int port = -1;
  /// /metrics + /healthz responder port: same -1/0/>0 convention.
  int http_port = -1;
  /// Worker lanes (each an independent mini-batch pipeline). Clamped >= 1.
  std::size_t lanes = 1;
  /// Per-lane queue capacity (records).
  std::size_t queue_capacity = 8192;
  util::OverflowPolicy overflow = util::OverflowPolicy::kBlock;
  /// Records per analysis flush (clamped >= 1).
  std::size_t batch_size = 4096;
  /// Max seconds a record waits in a partial batch before analysis.
  double flush_interval_s = 1.0;
  /// Seconds between snapshot checkpoints (0 = only the final one).
  double checkpoint_interval_s = 0.0;
  /// Seconds between background pattern-evolution passes (0 = disabled).
  /// Each pass runs core::evolve_repository over the shared store, fed by
  /// the per-lane match-time value sketches; intervals are measured on the
  /// injected clock so testkit's ManualClock drives passes
  /// deterministically.
  double evolution_interval_s = 0.0;
  /// Rules for the background evolution pass. scanner/special/example_cap
  /// and now_unix are overwritten from the engine options and the injected
  /// clock each pass; the remaining knobs (specialise/merge/ttl_days...)
  /// are honoured as given.
  core::EvolutionOptions evolution;
  /// Resource governance (DESIGN.md §17). The server always owns a
  /// MemoryAccountant + Governor and attaches them to the store, so
  /// resident-bytes accounting is visible on /metrics even ungoverned;
  /// ceiling_bytes > 0 additionally enables LRU spill at lane safe points
  /// and admission shedding under overload. clock == nullptr inherits the
  /// serve clock below.
  core::GovernorPolicy governor;
  /// Rotate a final snapshot during the drain. Disabled by tests that
  /// assert WAL-replay recovery of a non-checkpointed exit.
  bool checkpoint_on_stop = true;
  /// Time source for flush deadlines, checkpoint intervals and the unix
  /// timestamps stamped onto pattern stats. nullptr = the real clock
  /// (util::Clock::system()). The testkit injects a util::ManualClock so
  /// timing-dependent behaviour becomes virtual-time and replayable.
  util::Clock* clock = nullptr;
  /// Scripted queue-overflow fault (testkit): consulted once per parsed
  /// record, in arrival order, with a global 0-based record index across
  /// all lanes. Returning true makes that record's lane queue reject it as
  /// a counted drop, exactly as if the queue were full at that instant.
  std::function<bool(std::uint64_t)> queue_fault;
};

struct ServeReport {
  /// Records parsed and acknowledged at admission (enqueued or shed).
  /// After stop(): accepted == processed + shed (+ dropped under kDrop).
  std::uint64_t accepted = 0;
  /// Lines rejected by the JSON-lines parser.
  std::uint64_t malformed = 0;
  /// Records rejected by a full queue under OverflowPolicy::kDrop.
  std::uint64_t dropped = 0;
  /// Records shed at admission while the governor reported overload.
  std::uint64_t shed = 0;
  /// Records analyzed by the lane workers.
  std::uint64_t processed = 0;
  /// Analysis flushes across all lanes.
  std::uint64_t batches = 0;
  /// Ingest socket connections accepted over the lifetime.
  std::uint64_t connections = 0;
  std::uint64_t new_patterns = 0;
  std::uint64_t matched_existing = 0;
  /// True when the drain rotated a final snapshot.
  bool checkpointed = false;
};

class Server {
 public:
  /// `store` must outlive the server; it may be durable (open()) or not.
  Server(store::PatternStore* store, ServeOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured sockets and starts lanes, listener, HTTP
  /// responder and the checkpoint timer. False (with `error`) when a
  /// socket cannot be bound; nothing keeps running in that case.
  bool start(std::string* error = nullptr);

  /// Ports actually bound (after start()); 0 when the listener is off.
  int ingest_port() const { return ingest_.port(); }
  int http_port() const { return http_.port(); }

  /// Blocking stdin-pipe reader run on the CALLER's thread: reads JSON
  /// lines from `in` until EOF or the drain starts. Safe to call while
  /// the socket listener runs.
  void feed(std::istream& in);

  /// Shards one already-parsed record onto its lane. The JSON paths
  /// (socket, feed()) call this after parsing; the cluster node feeds
  /// decoded binary kRecord frames here directly, so both transports hit
  /// the identical accounting and fault-injection path. Returns false
  /// when the daemon is draining and producers should stop.
  bool ingest_record(core::LogRecord record);

  /// Triggers the drain without blocking (idempotent, callable from any
  /// thread). stop() still must be called to join and collect the report.
  void request_stop();

  bool stopping() const {
    return stopping_.load(std::memory_order_relaxed);
  }

  /// Drains and joins everything, runs the final checkpoint, returns the
  /// final report. Idempotent (subsequent calls return the same report).
  ServeReport stop();

  /// Live counters for monitoring/tests while the server runs.
  std::uint64_t accepted() const;
  std::uint64_t dropped() const;
  std::uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }

  /// The governor owned by this server (always non-null after
  /// construction; enforcement only runs when the policy sets a ceiling).
  core::Governor* governor() { return governor_.get(); }
  core::MemoryAccountant* accountant() { return &accountant_; }
  std::uint64_t processed() const {
    return processed_.load(std::memory_order_relaxed);
  }
  std::uint64_t malformed() const {
    return malformed_.load(std::memory_order_relaxed);
  }
  /// Periodic snapshot rotations performed by the checkpoint timer (the
  /// final drain checkpoint is not counted here).
  std::uint64_t checkpoints() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }

  /// Background evolution passes completed so far.
  std::uint64_t evolution_passes() const {
    return evolution_passes_.load(std::memory_order_relaxed);
  }

  /// The /debug/evolution JSON document (also used by tests directly).
  std::string evolution_json() const;

  /// Blocks until `pred()` holds or `timeout` elapses (returns pred()'s
  /// final value). The server signals after every accounting change
  /// (accept/drop/malformed/flush), so tests wait on exact counter states
  /// instead of polling with sleeps. `pred` runs under the progress lock
  /// and must only read server counters.
  bool wait_until(const std::function<bool()>& pred,
                  std::chrono::milliseconds timeout =
                      std::chrono::milliseconds(10000)) const;

  /// The /healthz JSON document (also used by tests directly).
  std::string health_json() const;

  /// The /debug/lanes JSON document: one object per lane with queue depth,
  /// accept/drop totals and flush statistics.
  std::string lanes_json() const;

 private:
  struct Lane {
    explicit Lane(std::size_t capacity, util::OverflowPolicy policy)
        : queue(capacity, policy) {}
    util::BoundedQueue<core::LogRecord> queue;
    std::thread worker;
    // Introspection counters for /debug/lanes (written by the lane worker).
    std::atomic<std::uint64_t> flushes{0};
    std::atomic<std::uint64_t> flushed_records{0};
    std::atomic<std::int64_t> last_flush_unix{0};
  };

  void lane_loop(std::size_t index);
  void flush_lane(core::Engine& engine, std::vector<core::LogRecord>& batch,
                  std::size_t index);
  void connection_loop(int fd);
  void checkpoint_loop();
  void evolution_loop();
  void run_evolution_pass();
  /// Parses one line and shards it onto its lane. Returns false when the
  /// daemon is draining and producers should stop.
  bool ingest_line(std::string_view line, core::IngestStats& stats);
  void note_malformed();
  /// `target` is the request path with any query string still attached.
  HttpResponse handle_http(const std::string& target);
  HttpResponse debug_patterns(std::size_t top);
  HttpResponse debug_trace(std::int64_t window_ms) const;
  /// sketches.json in the store directory: restores the evolution value
  /// sketches on start and snapshots them at every checkpoint + the
  /// drain, so restarts keep their observation history. No-ops when the
  /// store is not durable.
  void load_sketches();
  void save_sketches();
  /// Wakes wait_until() waiters after a counter change.
  void notify_progress() const;

  store::PatternStore* store_;
  ServeOptions opts_;
  util::Clock* clock_;
  core::MemoryAccountant accountant_;
  std::unique_ptr<core::Governor> governor_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  HttpResponder http_;

  std::thread checkpoint_thread_;
  std::mutex checkpoint_mutex_;
  std::condition_variable checkpoint_cv_;

  /// Match-time value sketches shared by every lane engine; consumed (and
  /// pruned) by the background evolution pass.
  core::SketchRegistry sketches_;
  std::thread evolution_thread_;
  std::mutex evolution_mutex_;
  std::condition_variable evolution_cv_;
  mutable std::mutex evolution_report_mutex_;
  core::EvolutionReport last_evolution_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
  /// True when start() armed the process tracer (vs. a CLI --trace-out
  /// capture that was already live); stop() then disarms it, because the
  /// tracer would otherwise keep a pointer to opts_.clock past our life.
  bool armed_tracer_ = false;
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> new_patterns_{0};
  std::atomic<std::uint64_t> matched_existing_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<std::uint64_t> evolution_passes_{0};
  std::atomic<std::uint64_t> shed_{0};
  /// Global record index handed to opts_.queue_fault (arrival order).
  std::atomic<std::uint64_t> fault_index_{0};
  mutable std::mutex progress_mutex_;
  mutable std::condition_variable progress_cv_;
  ServeReport final_report_;
  /// Declared last: its connection threads use the members above.
  Listener ingest_;
};

}  // namespace seqrtg::serve
