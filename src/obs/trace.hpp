// Low-overhead span tracer (pipeline observability substrate).
//
// The metrics registry (PR 1) answers "how slow is stage X on average";
// it cannot answer "where did THIS batch spend its 40 ms" or "which lane
// wedged behind a WAL fsync". This module records *spans* — named,
// timestamped intervals with parent links — into per-thread lock-free ring
// buffers, and exports them as Chrome trace-event JSON loadable in
// chrome://tracing / Perfetto.
//
// Design constraints, in priority order:
//
//  1. Disabled cost ~ one relaxed atomic load + branch per span site. The
//     tracer is always compiled in; the bench gate (scripts/bench_check.sh)
//     holds the scan/parse hot paths to < 2% regression with tracing off.
//  2. Enabled cost stays off the allocator and off any mutex: a finished
//     span is a seqlock-published write into a fixed-size thread-local
//     ring (oldest spans overwritten on wrap). Span *names must be string
//     literals* (or otherwise static storage) — only the pointer is stored.
//  3. Capture never stops the world: a reader walks every thread's ring,
//     validating each slot's sequence counter; slots overwritten mid-read
//     are discarded, not torn. All slot accesses are atomics, so the
//     concurrent capture is clean under TSan.
//  4. Deterministic under test: timestamps come from an injectable
//     util::Clock (the testkit's ManualClock), and Tracer::start() resets
//     the span-id counter, so a single-threaded run under a ManualClock
//     dumps a byte-stable golden trace.
//
// Span model: every span carries a process-unique id and a parent id.
// Same-thread nesting is automatic (a thread-local current-span stack);
// cross-thread parenting (a lane flush's engine phases running on pool
// workers, a WAL commit on behalf of a batch) is explicit via ScopedParent.
// Per-record spans (scan/parse) go through TraceSpan::sampled so the hot
// path pays the two clock reads only 1-in-N; per-batch and per-phase spans
// are always recorded while tracing is on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/clock.hpp"
#include "util/stopwatch.hpp"

namespace seqrtg::obs {

/// Span category, rendered as the Chrome trace-event `cat` field.
enum class TraceCat : std::uint8_t {
  kScanner,
  kParser,
  kEngine,
  kStore,
  kServe,
  kPipeline,
  kMatchProg,
};

const char* trace_cat_name(TraceCat cat);

/// One finished span, as captured. Fixed size; `name` points at static
/// storage (a string literal at the record site).
struct SpanRecord {
  const char* name = nullptr;
  TraceCat cat = TraceCat::kEngine;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  std::uint32_t tid = 0;  // tracer-assigned small thread index
  /// Two optional numeric arguments (records in batch, lane index, ...);
  /// negative = unset.
  std::int64_t arg1 = -1;
  std::int64_t arg2 = -1;
};

struct TracerConfig {
  /// Slots per thread ring; oldest spans are overwritten on wrap.
  std::size_t ring_capacity = 8192;
  /// Per-record spans via TraceSpan::sampled record 1 in (mask+1); must be
  /// 2^n - 1. 0 = record every one.
  std::uint64_t sample_mask = 63;
  /// Time source for span timestamps; nullptr = util::Clock::system().
  /// Inject a ManualClock for deterministic golden traces.
  util::Clock* clock = nullptr;
};

/// Process-wide tracer. All methods are thread-safe; recording is wait-free
/// once a thread's ring exists.
class Tracer {
 public:
  /// Enables tracing: clears every ring, resets the span-id counter and
  /// installs `config`. Idempotent (a second start() just re-arms).
  void start(const TracerConfig& config = {});

  /// Disables recording. Captured spans stay readable until start() clears
  /// them.
  void stop();

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Timestamp in the tracer's clock domain (µs).
  std::int64_t now_us();

  /// Names the calling thread in the exported trace ("lane-0", "ingest").
  /// Also assigns the thread its ring, so call it before hot loops.
  void set_thread_name(const char* name);

  /// Snapshot of every valid span across all thread rings, sorted by
  /// (start_us, id). Spans being overwritten during the walk are skipped.
  /// `since_us` > INT64_MIN keeps only spans ending at or after it.
  std::vector<SpanRecord> collect(
      std::int64_t since_us = INT64_MIN) const;

  /// Chrome trace-event JSON (the {"traceEvents":[...]} object form):
  /// one "X" complete event per span plus thread_name metadata events.
  std::string to_chrome_json(const std::vector<SpanRecord>& spans) const;

  /// collect() + to_chrome_json() + write. False on I/O error.
  bool write_chrome_json(const std::string& path) const;

  /// Spans recorded since start() (including ones already overwritten).
  std::uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  const TracerConfig& config() const { return config_; }

  // Internal (TraceSpan / ScopedParent): exposed for the recording path.
  std::uint64_t next_span_id() {
    return span_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void record(const SpanRecord& span);
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  bool sample_tick();

 private:
  struct ThreadRing;
  ThreadRing* ring_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> span_ids_{0};
  std::atomic<std::uint64_t> recorded_{0};
  /// Bumped by start(); rings lazily reset themselves when they notice.
  std::atomic<std::uint64_t> generation_{0};
  /// Structural config (ring capacity) is guarded by registry_mutex_; the
  /// two fields the record path reads are mirrored into atomics because
  /// start() can race live recorders (/debug/trace arms the tracer while
  /// lanes run).
  TracerConfig config_;
  std::atomic<std::uint64_t> sample_mask_{63};
  std::atomic<std::size_t> ring_capacity_{8192};
  std::atomic<util::Clock*> clock_{nullptr};

  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<ThreadRing>> rings_;
};

/// The process-wide tracer every built-in instrumentation point records to.
Tracer& tracer();

/// One relaxed load: is the process tracer recording?
inline bool trace_enabled() { return tracer().enabled(); }

/// Id of the innermost open span on this thread (0 = none). New spans
/// parent to it automatically.
std::uint64_t current_span();

/// RAII span: stamps start on construction, records on destruction (or
/// end()). When tracing is disabled the constructor is a load + branch and
/// nothing else happens.
class TraceSpan {
 public:
  TraceSpan(TraceCat cat, const char* name) { open(cat, name, false); }

  /// Per-record variant: records only 1 in (sample_mask+1) calls.
  struct Sampled {};
  TraceSpan(Sampled, TraceCat cat, const char* name) {
    open(cat, name, true);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { end(); }

  /// This span's id (0 when not recording) — hand it to a ScopedParent on
  /// another thread to parent work done on this span's behalf.
  std::uint64_t id() const { return span_.id; }
  bool active() const { return span_.id != 0; }

  void set_args(std::int64_t arg1, std::int64_t arg2 = -1) {
    span_.arg1 = arg1;
    span_.arg2 = arg2;
  }

  /// Records now (idempotent); the destructor then does nothing.
  void end();

 private:
  void open(TraceCat cat, const char* name, bool sampled);

  SpanRecord span_;
  std::uint64_t prev_current_ = 0;
};

/// One instrumentation scope per pipeline stage: the stage's span and its
/// latency histogram. end() (or the destructor) records the span when the
/// tracer is on and observes the histogram, timed on util::Stopwatch
/// (steady clock, not the tracer's injectable clock), when telemetry is on.
class Stage {
 public:
  Stage(Histogram& histogram, TraceCat cat, const char* name)
      : span_(cat, name), histogram_(&histogram) {}

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;
  ~Stage() { end(); }

  std::uint64_t id() const { return span_.id(); }

  void set_args(std::int64_t arg1, std::int64_t arg2 = -1) {
    span_.set_args(arg1, arg2);
  }

  /// Records now (idempotent); the destructor then does nothing.
  void end() {
    if (histogram_ == nullptr) return;
    if (telemetry_enabled()) histogram_->observe(watch_.seconds());
    histogram_ = nullptr;
    span_.end();
  }

 private:
  TraceSpan span_;
  Histogram* histogram_;
  util::Stopwatch watch_;
};

/// Overrides this thread's current-span id for a scope — the cross-thread
/// parenting primitive (pool workers parent to the batch span of the
/// spawning thread).
class ScopedParent {
 public:
  explicit ScopedParent(std::uint64_t parent_id);
  ~ScopedParent();
  ScopedParent(const ScopedParent&) = delete;
  ScopedParent& operator=(const ScopedParent&) = delete;

 private:
  std::uint64_t prev_;
  bool active_;
};

}  // namespace seqrtg::obs
