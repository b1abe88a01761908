// PatternStore: persistent pattern repository over the embedded database.
//
// Implements RTG extension #2: "Sequence-RTG stores the patterns in a SQL
// database in a one-to-many relationship with their related services. We
// also include up to three unique examples for each pattern which are used
// as test cases for the syslog-ng pattern database... We label each pattern
// with a unique ID ... a SHA1 hash of the concatenated text of the pattern
// and the service."
//
// Schema:
//   patterns(pid TEXT PRIMARY KEY, service TEXT, ptext TEXT, tokens TEXT,
//            token_count INTEGER, complexity REAL, match_count INTEGER,
//            first_seen INTEGER, last_matched INTEGER)
//   examples(pid TEXT, seq INTEGER, message TEXT)
// with secondary indexes on patterns(service) and examples(pid).
//
// `tokens` holds the exact token list as JSON so typed variables round-trip
// losslessly (the display text alone cannot distinguish a key-named
// %srcport% Integer from a generic String).
//
// Durability (see DESIGN.md §10): open() attaches the store to a directory
// holding `snapshot-<seq>.db` files plus a `wal.log`. Every acknowledged
// mutation is appended to the WAL (one CRC-framed record per commit group)
// and fsynced before the call returns; checkpoint() rotates a fresh
// snapshot in via write-to-temp + fsync + atomic rename, then truncates
// the log. Recovery loads the newest valid snapshot and replays the WAL
// tail, skipping records at or below the snapshot's sequence watermark and
// truncating at the first corrupt record.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/governor.hpp"
#include "core/pattern.hpp"
#include "core/repository.hpp"
#include "store/database.hpp"
#include "store/token_codec.hpp"
#include "store/wal.hpp"

namespace seqrtg::store {

// Partition spill (resource governance, DESIGN.md §17):
//
// A spilled partition's rows live in a per-service `spill-<hash>.sp` file
// (write-to-temp + fsync + rename) instead of the in-memory database. Two
// WAL ops make residency transitions replayable AND replicable:
//
//   kOpSpill(service, rows)  — erase the partition's rows, (re)write its
//                              spill file from the embedded rows
//   kOpReload(service, rows) — insert the embedded rows verbatim, delete
//                              the spill file
//
// Both embed the full row set, so replay is a pure function of the log
// (it never needs to read a spill file, whose content at replay time may
// postdate the record) and a standby receiving shipped groups maintains
// its own spill files. The spill file itself exists for exactly one
// reason: checkpoint() truncates the WAL, and a partition spilled across
// a checkpoint has its only durable copy in the file. open() reconciles:
// a spill file whose service has resident rows after replay is a stale
// leftover of an interrupted spill and is deleted; the remainder define
// the spilled set.
//
// Ordering contract: spill/reload commit groups append immediately (never
// buffered into a batch scope), and a service with ops buffered in ANY
// open batch scope refuses to spill — together these keep WAL order
// identical to in-memory mutation order per service, which is what makes
// replay faithful.
class PatternStore final : public core::PatternRepository,
                           public core::SpillTarget {
 public:
  /// Creates the schema in a fresh in-memory database.
  PatternStore();

  // PatternRepository:
  std::vector<core::Pattern> load_service(std::string_view service) override;
  std::vector<std::string> services() override;
  void upsert_pattern(const core::Pattern& p) override;
  void record_match(const std::string& id, std::uint64_t count,
                    std::int64_t when) override;
  bool delete_pattern(const std::string& id) override;
  std::optional<core::Pattern> find(const std::string& id) override;
  std::size_t pattern_count() override;

  /// Batch hooks (PatternRepository): between begin_batch() and
  /// commit_batch() the WAL records of every mutation are buffered and
  /// appended+fsynced as ONE commit group, so the durable store either
  /// holds the whole batch or none of it. abort_batch() discards the
  /// buffered records — the in-memory database keeps any ops already
  /// applied, so an aborted batch leaves memory ahead of the log; reopen
  /// the directory to fall back to the last committed state.
  ///
  /// Batch scopes are per-thread: each serve lane (or any other concurrent
  /// caller) buffers into its own group keyed by thread id, so overlapping
  /// batches from different threads commit as independent atomic groups.
  /// Mutations from a thread with no open scope append immediately.
  void begin_batch() override;
  void commit_batch() override;
  void abort_batch() override;

  /// All patterns (optionally filtered), ordered by match count descending —
  /// the review/export ordering ("select only the strongest patterns").
  struct ExportFilter {
    std::uint64_t min_match_count = 0;
    /// Patterns at or above this complexity are excluded (1.01 = keep all).
    double max_complexity = 1.01;
    std::string service;  // empty = all services
  };
  std::vector<core::Pattern> export_patterns(const ExportFilter& filter);

  /// Persists/restores the whole store as a single snapshot file (no
  /// journal — the legacy `--db` path). Prefer open() for crash safety.
  bool save(const std::string& path);
  bool load(const std::string& path);

  /// Attaches the store to a durable directory: loads the newest valid
  /// snapshot, replays the WAL tail (truncating at the first corrupt
  /// record), and keeps the log open for appending. Creates the directory
  /// when missing. Returns false on unrecoverable I/O errors; the store
  /// is left empty and non-durable in that case.
  bool open(const std::string& dir);

  /// True when open() attached a directory and the WAL is live.
  bool durable() const { return wal_.is_open(); }

  /// Rotates a snapshot: write-to-temp + fsync + atomic rename + directory
  /// fsync, then truncates the WAL. Keeps the previous snapshot as a
  /// fallback and deletes older generations. No-op (false) when not
  /// durable.
  bool checkpoint();

  /// Point-in-time durability facts for `seqrtg stats`.
  struct DurabilityStats {
    bool durable = false;
    std::string dir;
    /// Sequence of the last committed WAL record (0 = none yet).
    std::uint64_t last_seq = 0;
    /// Watermark of the snapshot recovery loaded / checkpoint wrote.
    std::uint64_t snapshot_seq = 0;
    /// Records currently in the log (appended or replayed since the last
    /// checkpoint truncated it).
    std::uint64_t wal_records = 0;
    std::uint64_t wal_bytes = 0;
    /// Unix mtimes (0 when the file does not exist).
    std::int64_t snapshot_unix = 0;
    std::int64_t wal_unix = 0;
  };
  DurabilityStats durability_stats();

  /// Replication tap: invoked with (seq, ops) after every commit group is
  /// appended AND fsynced (under the store mutex, so groups arrive in
  /// exact WAL order). This is the shard node's WAL-shipping hook — a
  /// group handed to the sink is by construction locally durable, so the
  /// standby can only ever trail the primary, never lead it. Keep the
  /// sink fast or accept that it gates commit latency; pass nullptr to
  /// detach.
  void set_commit_sink(
      std::function<void(std::uint64_t, std::string_view)> sink) {
    std::lock_guard lock(mutex_);
    commit_sink_ = std::move(sink);
  }

  /// Standby-side ingestion of a shipped commit group: applies `ops` and
  /// appends them to the local WAL under the SAME sequence number the
  /// primary assigned, so a promoted standby's log is byte-compatible
  /// with the primary's history. Groups at or below the local watermark
  /// (already applied, or covered by a snapshot) are idempotently
  /// ignored. Returns false when the store is not durable or the local
  /// append could not honour `seq`.
  bool apply_replicated_group(std::uint64_t seq, std::string_view ops);

  /// Directory bound by open(); empty when not durable.
  const std::string& directory() const { return dir_; }

  /// Testkit simulation layer: forwards a scripted torn-tail fault to the
  /// underlying WAL (see Wal::set_fault_hook). The hook fires on the next
  /// matching commit group and wedges the log, so recovery tests can
  /// script "the process died while writing group N" without killing the
  /// process. No effect when the store is not durable.
  void set_wal_fault_hook(std::function<std::int64_t(std::uint64_t)> hook) {
    std::lock_guard lock(mutex_);
    wal_.set_fault_hook(std::move(hook));
  }

  /// Testkit: true once a scripted WAL fault has fired and wedged the log
  /// (read after the writers have quiesced).
  bool wal_wedged() const { return wal_.wedged(); }

  /// Direct access for ad-hoc SQL (tests, tooling).
  Database& database() { return db_; }

  /// Governance wiring: registers this store as the governor's spill
  /// target, seeds the accountant's ledger and the governor's LRU with
  /// the current resident partitions, and from then on reports every
  /// partition's resident bytes through the accountant. nullptr detaches.
  void attach_governor(core::Governor* governor);

  /// core::SpillTarget — durably persists `service`'s partition to its
  /// spill file + a kOpSpill commit group, then frees the in-RAM rows.
  /// Refuses (false) when the store is not durable, the WAL is wedged,
  /// the service is unknown/already spilled/pinned, or a batch scope has
  /// buffered ops for it.
  bool spill_partition(const std::string& service) override;

  /// True while `service`'s partition lives in its spill file. Reads
  /// through load_service/upsert reload it transparently; find() and
  /// record_match() see only resident rows (their callers load the
  /// service first — the engine pins it resident for the duration).
  bool is_spilled(std::string_view service);
  std::vector<std::string> spilled_services();

  /// Authoritative recount of every resident partition's bytes, computed
  /// from the rows themselves with one query per row. The store's own
  /// ledger is kept by deltas and never calls this; it exists for the
  /// governance audit (the accountant's ledger is checked against it).
  std::map<std::string, std::size_t> recount_partition_bytes();

 private:
  void create_schema();

  // Unlocked mutation bodies shared by the public entry points and WAL
  // replay (replay must not re-append). Every write to the pattern and
  // example tables goes through these three and erase_partition_locked,
  // which keep partition_bytes_ in step. record_match/delete return the
  // owning service (nullopt when no row matched) so the public entry
  // points can maintain the accountant and batch-scope bookkeeping.
  void apply_upsert(const core::Pattern& p);
  std::optional<std::string> apply_record_match(const std::string& id,
                                                std::uint64_t count,
                                                std::int64_t when);
  std::optional<std::string> apply_delete(const std::string& id);
  /// Replay bodies of the residency ops (also used by replicated apply).
  void apply_spill(std::string_view service, std::uint32_t n_patterns,
                   std::string_view rows_blob);
  void apply_reload(std::string_view service, std::string_view rows_blob);

  // Spill machinery (all require mutex_ held).
  std::string spill_file_path(std::string_view service) const;
  bool write_spill_file_locked(std::string_view service,
                               std::uint32_t n_patterns,
                               std::string_view rows_blob, bool fsync);
  bool ensure_resident_locked(std::string_view service);
  void erase_partition_locked(std::string_view service);
  std::vector<core::Pattern> partition_rows_locked(std::string_view service);
  /// Recount of one partition (recount_partition_bytes' per-service step).
  std::size_t partition_bytes_locked(std::string_view service);
  /// Rebuilds partition_bytes_ from the tables in one pass over the rows
  /// (after a snapshot load replaced the database).
  void seed_partition_bytes_locked();
  /// Reports `service`'s partition_bytes_ entry to the accountant (and its
  /// LRU presence to the governor) after a mutation. No-op without an
  /// attached governor.
  void refresh_partition_locked(std::string_view service);
  /// open()-time reconciliation: stale spill files (service resident) are
  /// deleted, the rest define the spilled set.
  void reconcile_spill_files_locked();
  /// Appends `ops` (or buffers them into the calling thread's open batch
  /// scope) and fsyncs.
  void log_ops(std::string ops);
  /// Records `service` into the calling thread's batch-scope touched set
  /// (spill exemption); no-op when the thread has no open scope.
  void note_batch_service_locked(std::string_view service);
  /// Appends one commit group to the WAL unconditionally and fsyncs.
  void append_group(std::string ops);
  /// Decodes and applies one replayed commit group. With a governor
  /// attached (a standby applying shipped groups) each op also reports its
  /// partition to the accountant, as the live entry points do.
  void replay_ops(std::string_view ops);

  std::mutex mutex_;
  Database db_;
  Wal wal_;
  std::string dir_;
  std::uint64_t snapshot_seq_ = 0;
  std::function<void(std::uint64_t, std::string_view)> commit_sink_;
  /// Open batch scopes, one buffered commit group per thread (guarded by
  /// mutex_ like everything else).
  std::map<std::thread::id, std::string> batch_ops_;
  /// Services with ops buffered in each open batch scope — those are
  /// spill-exempt until the scope closes (see the ordering contract in
  /// the class comment).
  std::map<std::thread::id, std::set<std::string, std::less<>>>
      batch_services_;

  /// Resident bytes per service, by the same row arithmetic as the
  /// recount; a service has an entry exactly while it has rows.
  std::map<std::string, std::size_t, std::less<>> partition_bytes_;

  core::Governor* governor_ = nullptr;
  struct SpilledInfo {
    std::size_t patterns = 0;
  };
  std::map<std::string, SpilledInfo, std::less<>> spilled_;
};

}  // namespace seqrtg::store
