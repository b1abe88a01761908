#include "store/pattern_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace seqrtg::store {

namespace {

namespace fs = std::filesystem;

/// WAL op codes (one byte each inside a commit group).
constexpr std::uint8_t kOpUpsert = 1;
constexpr std::uint8_t kOpRecordMatch = 2;
/// Pattern deletion (evolution/compaction rewrites).
constexpr std::uint8_t kOpDelete = 3;
/// Partition residency transitions (resource governance). Both embed the
/// partition's full row set — see the spill contract in pattern_store.hpp.
constexpr std::uint8_t kOpSpill = 4;
constexpr std::uint8_t kOpReload = 5;

constexpr std::string_view kWalFile = "wal.log";
constexpr std::string_view kSnapshotPrefix = "snapshot-";
constexpr std::string_view kSnapshotSuffix = ".db";
constexpr std::string_view kSpillPrefix = "spill-";
constexpr std::string_view kSpillSuffix = ".sp";
constexpr std::string_view kSpillMagic = "SQRTGSP1";

/// Fixed per-row overhead charged by the partition-bytes estimator on top
/// of the string payloads (column values, map/index nodes). The estimate
/// only has to be consistent between the ledger and the audit recount —
/// both charge rows through the two functions below — and monotone in
/// real usage.
constexpr std::size_t kPatternRowOverheadBytes = 160;
constexpr std::size_t kExampleRowOverheadBytes = 48;

std::size_t pattern_row_bytes(std::string_view pid, std::string_view service,
                              std::string_view ptext,
                              std::string_view tokens) {
  return kPatternRowOverheadBytes + pid.size() + service.size() +
         ptext.size() + tokens.size();
}

std::size_t example_row_bytes(std::string_view message) {
  return kExampleRowOverheadBytes + message.size();
}

/// A pattern row's bytes with its examples.
std::size_t row_bytes(std::string_view pid, const PatternRow& row) {
  std::size_t bytes =
      pattern_row_bytes(pid, row.service, row.ptext, row.tokens);
  for (const ExampleRow& e : row.examples) {
    bytes += example_row_bytes(e.message);
  }
  return bytes;
}

/// Store operation counters; same family as the in-memory repository,
/// distinguished by the backend label.
obs::Counter& store_op(const char* op) {
  return obs::default_registry().counter(
      "seqrtg_repo_ops_total", "Pattern repository operations",
      {{"backend", "sql"}, {"op", op}});
}

obs::Counter& wal_counter(const char* name, const char* help) {
  return obs::default_registry().counter(name, help);
}

struct StoreMetrics {
  obs::Counter& load_service;
  obs::Counter& match_patterns;
  obs::Counter& upsert;
  obs::Counter& record_match;
  obs::Counter& del;
  obs::Counter& save;
  obs::Counter& load;
  obs::Histogram& persist_seconds;
  obs::Counter& corrupt_rows;
  obs::Counter& wal_appends;
  obs::Counter& wal_bytes;
  obs::Counter& wal_replayed;
  obs::Counter& wal_truncations;
  obs::Counter& wal_snapshots;
};

StoreMetrics& store_metrics() {
  static StoreMetrics m{
      store_op("load_service"),
      store_op("match_patterns"),
      store_op("upsert"),
      store_op("record_match"),
      store_op("delete"),
      store_op("save"),
      store_op("load"),
      obs::default_registry().histogram(
          "seqrtg_store_persist_seconds",
          "Latency of PatternStore::save / load / checkpoint / open"),
      wal_counter("seqrtg_store_corrupt_rows_total",
                  "Pattern rows dropped because neither the JSON token list "
                  "nor the display text parsed"),
      wal_counter("seqrtg_store_wal_appends_total",
                  "Commit groups appended to the write-ahead log"),
      wal_counter("seqrtg_store_wal_bytes_total",
                  "Bytes appended to the write-ahead log"),
      wal_counter("seqrtg_store_wal_replayed_total",
                  "Commit groups replayed from the WAL tail during open()"),
      wal_counter("seqrtg_store_wal_truncations_total",
                  "Recoveries that dropped a torn or corrupt WAL tail"),
      wal_counter("seqrtg_store_wal_snapshots_total",
                  "Snapshot rotations completed by checkpoint()")};
  return m;
}

std::string snapshot_name(std::uint64_t seq) {
  return std::string(kSnapshotPrefix) + std::to_string(seq) +
         std::string(kSnapshotSuffix);
}

/// Parses "snapshot-<seq>.db"; false for anything else (including the
/// ".tmp" leftovers of an interrupted checkpoint).
bool parse_snapshot_name(std::string_view name, std::uint64_t* seq) {
  if (name.size() <= kSnapshotPrefix.size() + kSnapshotSuffix.size() ||
      name.substr(0, kSnapshotPrefix.size()) != kSnapshotPrefix ||
      name.substr(name.size() - kSnapshotSuffix.size()) != kSnapshotSuffix) {
    return false;
  }
  const std::string_view digits = name.substr(
      kSnapshotPrefix.size(),
      name.size() - kSnapshotPrefix.size() - kSnapshotSuffix.size());
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *seq = v;
  return true;
}

/// fsyncs an existing file (the freshly written snapshot temp) by path.
bool fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// fsyncs a directory so a completed rename survives a crash.
bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

std::int64_t file_mtime_unix(const fs::path& p) {
  struct stat st;
  if (::stat(p.c_str(), &st) != 0) return 0;
  return static_cast<std::int64_t>(st.st_mtime);
}

void encode_upsert(std::string& ops, const core::Pattern& p) {
  ops.push_back(static_cast<char>(kOpUpsert));
  wal_put_string(ops, p.service);
  wal_put_string(ops, pattern_tokens_to_json(p.tokens));
  wal_put_u64(ops, p.stats.match_count);
  wal_put_i64(ops, p.stats.first_seen);
  wal_put_i64(ops, p.stats.last_matched);
  wal_put_u32(ops, static_cast<std::uint32_t>(p.examples.size()));
  for (const std::string& e : p.examples) wal_put_string(ops, e);
}

void encode_record_match(std::string& ops, const std::string& id,
                         std::uint64_t count, std::int64_t when) {
  ops.push_back(static_cast<char>(kOpRecordMatch));
  wal_put_string(ops, id);
  wal_put_u64(ops, count);
  wal_put_i64(ops, when);
}

void encode_delete(std::string& ops, const std::string& id) {
  ops.push_back(static_cast<char>(kOpDelete));
  wal_put_string(ops, id);
}

void encode_residency(std::string& ops, std::uint8_t op,
                      std::string_view service, std::uint32_t n_patterns,
                      std::string_view rows_blob) {
  ops.push_back(static_cast<char>(op));
  wal_put_string(ops, service);
  wal_put_u32(ops, n_patterns);
  wal_put_string(ops, rows_blob);
}

/// FNV-1a 64 over the service name; two independent seeds give the
/// 128-bit spill file name (stable across processes, unlike std::hash).
std::uint64_t fnv1a64(std::string_view s, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string spill_file_name(std::string_view service) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "spill-%016llx%016llx.sp",
                static_cast<unsigned long long>(
                    fnv1a64(service, 14695981039346656037ull)),
                static_cast<unsigned long long>(
                    fnv1a64(service, 0x9e3779b97f4a7c15ull)));
  return buf;
}

bool is_spill_file_name(std::string_view name) {
  return name.size() ==
             kSpillPrefix.size() + 32 + kSpillSuffix.size() &&
         name.substr(0, kSpillPrefix.size()) == kSpillPrefix &&
         name.substr(name.size() - kSpillSuffix.size()) == kSpillSuffix;
}

/// Parsed spill file: "SQRTGSP1" u32(len) u32(crc32(payload)) payload,
/// payload := string(service) u32(n_patterns) string(rows_blob).
struct SpillFile {
  bool ok = false;
  std::string service;
  std::uint32_t n_patterns = 0;
  std::string rows_blob;
};

SpillFile read_spill_file(const std::string& path) {
  SpillFile out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  std::string data;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  if (data.size() < kSpillMagic.size() + 8 ||
      std::string_view(data).substr(0, kSpillMagic.size()) != kSpillMagic) {
    return out;
  }
  WalReader header{std::string_view(data).substr(kSpillMagic.size())};
  const std::uint32_t len = header.u32();
  const std::uint32_t crc = header.u32();
  if (!header.ok || header.data.size() - header.pos != len) return out;
  const std::string_view payload = header.data.substr(header.pos);
  if (crc32(payload) != crc) return out;
  WalReader r{payload};
  out.service = std::string(r.string());
  out.n_patterns = r.u32();
  out.rows_blob = std::string(r.string());
  out.ok = r.ok && r.at_end();
  return out;
}

/// Decodes a rows blob (concatenated kOpUpsert-encoded patterns) into
/// Pattern values without touching any database state.
bool decode_upsert_ops(std::string_view blob,
                       std::vector<core::Pattern>* out) {
  WalReader r{blob};
  while (r.ok && !r.at_end()) {
    if (r.u8() != kOpUpsert) return false;
    core::Pattern p;
    p.service = std::string(r.string());
    const std::string_view tokens_json = r.string();
    p.stats.match_count = r.u64();
    p.stats.first_seen = r.i64();
    p.stats.last_matched = r.i64();
    const std::uint32_t n_examples = r.u32();
    for (std::uint32_t i = 0; r.ok && i < n_examples; ++i) {
      p.examples.emplace_back(r.string());
    }
    if (!r.ok) return false;
    auto tokens = pattern_tokens_from_json(tokens_json);
    if (!tokens.has_value()) return false;
    p.tokens = std::move(*tokens);
    out->push_back(std::move(p));
  }
  return r.ok;
}

/// The fields of a pattern row that a Pattern is decoded from, copied out
/// under the store mutex; decode_rows turns them into Patterns, which
/// readers do after releasing the mutex. A RowCopy::kTokens copy holds
/// only `tokens` and `ptext`.
struct StoredRow {
  std::string tokens;
  std::string ptext;
  std::string service;
  core::PatternStats stats;
  std::vector<std::string> examples;
};

StoredRow take_row(const PatternRow& row, RowCopy copy = RowCopy::kFull) {
  StoredRow stored;
  stored.tokens = row.tokens;
  stored.ptext = row.ptext;
  if (copy == RowCopy::kTokens) return stored;
  stored.service = row.service;
  stored.stats.match_count = static_cast<std::uint64_t>(row.match_count);
  stored.stats.first_seen = row.first_seen;
  stored.stats.last_matched = row.last_matched;
  stored.examples.reserve(row.examples.size());
  for (const ExampleRow& e : row.examples) stored.examples.push_back(e.message);
  return stored;
}

/// A partition's rows in pid order, copied as `copy` says.
std::vector<StoredRow> take_rows(
    const std::map<std::string_view, PatternRow*>& rows, RowCopy copy) {
  std::vector<StoredRow> out;
  out.reserve(rows.size());
  for (const auto& [pid, row] : rows) out.push_back(take_row(*row, copy));
  return out;
}

/// Decodes stored rows into Patterns. A row that is unrecoverable (both
/// the JSON token list and the display-text fallback fail to parse) is
/// counted in seqrtg_store_corrupt_rows_total and skipped, so every
/// reader skips it.
std::vector<core::Pattern> decode_rows(std::vector<StoredRow>&& rows) {
  std::vector<core::Pattern> out;
  out.reserve(rows.size());
  for (StoredRow& stored : rows) {
    core::Pattern p;
    if (auto tokens = pattern_tokens_from_json(stored.tokens)) {
      p.tokens = std::move(*tokens);
    } else if (auto parsed = core::parse_pattern_text(stored.ptext)) {
      // Degraded fallback: rebuild from the display text (types become
      // String but matching still works).
      p.tokens = std::move(*parsed);
    } else {
      store_metrics().corrupt_rows.inc();
      continue;
    }
    p.service = std::move(stored.service);
    p.stats = stored.stats;
    p.examples = std::move(stored.examples);
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace

void PatternStore::reset_rows_locked(PatternRows rows) {
  rows_ = std::move(rows);
  partitions_.clear();
  next_stamp_ = 0;
  for (auto& [pid, row] : rows_) {
    Partition& partition = partitions_[row.service];
    partition.rows.emplace(pid, &row);
    partition.bytes += row_bytes(pid, row);
    next_stamp_ = std::max(next_stamp_, row.stamp + 1);
    for (const ExampleRow& e : row.examples) {
      next_stamp_ = std::max(next_stamp_, e.stamp + 1);
    }
  }
}

std::vector<core::Pattern> PatternStore::load_service(
    std::string_view service) {
  if (obs::telemetry_enabled()) store_metrics().load_service.inc();
  return read_partition(service, RowCopy::kFull);
}

std::vector<core::Pattern> PatternStore::match_patterns(
    std::string_view service) {
  if (obs::telemetry_enabled()) store_metrics().match_patterns.inc();
  return read_partition(service, RowCopy::kTokens);
}

std::vector<core::Pattern> PatternStore::read_partition(
    std::string_view service, RowCopy copy) {
  std::vector<StoredRow> rows;
  {
    std::lock_guard lock(mutex_);
    // Transparent reload: a spilled partition comes back through its spill
    // file + a kOpReload group before the caller sees any rows.
    ensure_resident_locked(service);
    if (const auto it = partitions_.find(service); it != partitions_.end()) {
      rows = take_rows(it->second.rows, copy);
    }
    refresh_partition_locked(service);
  }
  // Decoding the token lists is most of a read's work; doing it unlocked
  // keeps the other lanes' record_match/upsert from queueing behind it.
  std::vector<core::Pattern> patterns = decode_rows(std::move(rows));
  if (copy == RowCopy::kTokens) {
    // Token-only rows carry no service cell; every row of the partition
    // has `service`.
    for (core::Pattern& p : patterns) p.service = service;
  }
  return patterns;
}

std::vector<std::string> PatternStore::services() {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [svc, partition] : partitions_) out.push_back(svc);
  // Spilled partitions are still part of the logical store.
  for (const auto& [svc, info] : spilled_) out.push_back(svc);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const std::string& PatternStore::apply_upsert(const core::Pattern& p) {
  const auto [it, inserted] = rows_.try_emplace(p.id());
  PatternRow& row = it->second;
  if (inserted) {
    row.service = p.service;
    row.ptext = p.text();
    row.tokens = pattern_tokens_to_json(p.tokens);
    row.token_count = static_cast<std::int64_t>(p.token_count());
    row.complexity = p.complexity();
    row.match_count = static_cast<std::int64_t>(p.stats.match_count);
    row.first_seen = p.stats.first_seen;
    row.last_matched = p.stats.last_matched;
    row.stamp = next_stamp_++;
    for (const std::string& e : p.examples) {
      row.examples.push_back({e, next_stamp_++});
    }
    Partition& partition = partitions_[p.service];
    partition.rows.emplace(it->first, &row);
    partition.bytes += row_bytes(it->first, row);
    return row.service;
  }
  row.match_count += static_cast<std::int64_t>(p.stats.match_count);
  if (row.first_seen == 0 ||
      (p.stats.first_seen != 0 && p.stats.first_seen < row.first_seen)) {
    row.first_seen = p.stats.first_seen;
  }
  row.last_matched = std::max(row.last_matched, p.stats.last_matched);
  // The stored row's service owns the charge (it equals p.service unless
  // two text+service concatenations share a hash).
  std::size_t& bytes = partitions_[row.service].bytes;
  // Same text, different variable types (see widen_pattern_tokens): widen
  // the stored token list so the pattern matches the union.
  if (auto tokens = pattern_tokens_from_json(row.tokens)) {
    if (core::widen_pattern_tokens(*tokens, p.tokens)) {
      std::string widened = pattern_tokens_to_json(*tokens);
      bytes = bytes - row.tokens.size() + widened.size();
      row.tokens = std::move(widened);
    }
  }
  // Merge examples up to the configured cap (see
  // PatternRepository::set_example_cap — must agree with the in-memory
  // backend's merge_pattern_into cap or the differential oracle diverges).
  for (const std::string& e : p.examples) {
    if (row.examples.size() >= example_cap()) break;
    if (std::none_of(row.examples.begin(), row.examples.end(),
                     [&](const ExampleRow& x) { return x.message == e; })) {
      row.examples.push_back({e, next_stamp_++});
      bytes += example_row_bytes(e);
    }
  }
  return row.service;
}

std::optional<std::string> PatternStore::apply_record_match(
    const std::string& id, std::uint64_t count, std::int64_t when) {
  const auto it = rows_.find(id);
  if (it == rows_.end()) return std::nullopt;
  PatternRow& row = it->second;
  row.match_count += static_cast<std::int64_t>(count);
  row.last_matched = std::max(row.last_matched, when);
  return row.service;
}

std::optional<std::string> PatternStore::apply_delete(const std::string& id) {
  const auto it = rows_.find(id);
  if (it == rows_.end()) return std::nullopt;
  std::string service = it->second.service;
  const auto partition = partitions_.find(service);
  partition->second.bytes -= row_bytes(id, it->second);
  partition->second.rows.erase(id);
  if (partition->second.rows.empty()) partitions_.erase(partition);
  rows_.erase(it);
  return service;
}

void PatternStore::log_ops(std::string ops) {
  if (!wal_.is_open() || ops.empty()) return;
  const auto scope = batch_ops_.find(std::this_thread::get_id());
  if (scope != batch_ops_.end()) {
    scope->second.append(ops);
    return;
  }
  append_group(std::move(ops));
}

void PatternStore::append_group(std::string ops) {
  if (!wal_.is_open() || ops.empty()) return;
  obs::TraceSpan span(obs::TraceCat::kStore, "wal_append");
  span.set_args(static_cast<std::int64_t>(ops.size()));
  const std::uint64_t before = wal_.size_bytes();
  const std::uint64_t seq = wal_.append(ops);
  if (seq != 0) wal_.sync();
  if (obs::telemetry_enabled()) {
    store_metrics().wal_appends.inc();
    store_metrics().wal_bytes.inc(wal_.size_bytes() - before);
  }
  // Ship only after the local sync: the standby must never hold a group
  // the primary could lose.
  if (seq != 0 && commit_sink_) commit_sink_(seq, ops);
}

void PatternStore::note_batch_service_locked(std::string_view service) {
  const auto scope = batch_ops_.find(std::this_thread::get_id());
  if (scope == batch_ops_.end()) return;
  batch_services_[std::this_thread::get_id()].emplace(std::string(service));
}

void PatternStore::upsert_pattern(const core::Pattern& p) {
  if (obs::telemetry_enabled()) store_metrics().upsert.inc();
  std::lock_guard lock(mutex_);
  // A write to a spilled partition reloads it first, so the upsert merges
  // against the full row set instead of resurrecting a partial one.
  ensure_resident_locked(p.service);
  const std::string& service = apply_upsert(p);
  if (wal_.is_open()) {
    std::string ops;
    encode_upsert(ops, p);
    log_ops(std::move(ops));
    note_batch_service_locked(service);
  }
  refresh_partition_locked(service);
}

void PatternStore::record_match(const std::string& id, std::uint64_t count,
                                std::int64_t when) {
  if (obs::telemetry_enabled()) store_metrics().record_match.inc();
  std::lock_guard lock(mutex_);
  // Resident rows only: the engine pins the service around load + stats
  // update, so the row is here by contract. A spilled row is a caller bug
  // and drops the count, exactly like the pre-governance "unknown id"
  // case below.
  const std::optional<std::string> service =
      apply_record_match(id, count, when);
  if (!service.has_value()) return;
  if (wal_.is_open()) {
    std::string ops;
    encode_record_match(ops, id, count, when);
    log_ops(std::move(ops));
    note_batch_service_locked(*service);
  }
  // The bytes estimator is count-independent, so no ledger refresh here —
  // keeping the hot path at one extra map lookup.
}

bool PatternStore::delete_pattern(const std::string& id) {
  if (obs::telemetry_enabled()) store_metrics().del.inc();
  std::lock_guard lock(mutex_);
  const std::optional<std::string> service = apply_delete(id);
  if (!service.has_value()) return false;
  if (wal_.is_open()) {
    std::string ops;
    encode_delete(ops, id);
    log_ops(std::move(ops));
    note_batch_service_locked(*service);
  }
  refresh_partition_locked(*service);
  return true;
}

void PatternStore::begin_batch() {
  std::lock_guard lock(mutex_);
  batch_ops_[std::this_thread::get_id()].clear();
  batch_services_[std::this_thread::get_id()].clear();
}

void PatternStore::commit_batch() {
  std::lock_guard lock(mutex_);
  const auto scope = batch_ops_.find(std::this_thread::get_id());
  if (scope == batch_ops_.end()) return;
  std::string ops = std::move(scope->second);
  batch_ops_.erase(scope);
  batch_services_.erase(std::this_thread::get_id());
  append_group(std::move(ops));
}

void PatternStore::abort_batch() {
  std::lock_guard lock(mutex_);
  batch_ops_.erase(std::this_thread::get_id());
  batch_services_.erase(std::this_thread::get_id());
}

std::optional<core::Pattern> PatternStore::find(const std::string& id) {
  std::vector<StoredRow> rows;
  {
    std::lock_guard lock(mutex_);
    if (const auto it = rows_.find(id); it != rows_.end()) {
      rows.push_back(take_row(it->second));
    }
  }
  std::vector<core::Pattern> found = decode_rows(std::move(rows));
  if (found.empty()) return std::nullopt;
  return std::move(found.front());
}

std::size_t PatternStore::pattern_count() {
  std::lock_guard lock(mutex_);
  std::size_t count = rows_.size();
  for (const auto& [svc, info] : spilled_) count += info.patterns;
  return count;
}

std::vector<core::Pattern> PatternStore::export_patterns(
    const ExportFilter& filter) {
  std::lock_guard lock(mutex_);
  std::vector<const PatternRow*> resident;
  if (filter.service.empty()) {
    resident.reserve(rows_.size());
    for (const auto& [pid, row] : rows_) resident.push_back(&row);
  } else if (const auto it = partitions_.find(filter.service);
             it != partitions_.end()) {
    for (const auto& [pid, row] : it->second.rows) resident.push_back(row);
  }
  std::erase_if(resident, [&](const PatternRow* row) {
    return static_cast<std::uint64_t>(row->match_count) <
               filter.min_match_count ||
           row->complexity >= filter.max_complexity;
  });
  // Insertion order breaks match-count ties.
  std::sort(resident.begin(), resident.end(),
            [](const PatternRow* a, const PatternRow* b) {
              return a->match_count != b->match_count
                         ? a->match_count > b->match_count
                         : a->stamp < b->stamp;
            });
  std::vector<StoredRow> stored;
  stored.reserve(resident.size());
  for (const PatternRow* row : resident) stored.push_back(take_row(*row));
  std::vector<core::Pattern> out = decode_rows(std::move(stored));
  // Read-through over spilled partitions: decode the spill files directly
  // (no reload — export must not change residency), then restore the
  // match-count ordering across the combined set.
  bool added_spilled = false;
  for (const auto& [svc, info] : spilled_) {
    if (!filter.service.empty() && svc != filter.service) continue;
    SpillFile file = read_spill_file(spill_file_path(svc));
    std::vector<core::Pattern> rows;
    if (!file.ok || !decode_upsert_ops(file.rows_blob, &rows)) continue;
    for (core::Pattern& p : rows) {
      if (p.stats.match_count < filter.min_match_count) continue;
      if (p.complexity() >= filter.max_complexity) continue;
      out.push_back(std::move(p));
      added_spilled = true;
    }
  }
  if (added_spilled) {
    std::stable_sort(out.begin(), out.end(),
                     [](const core::Pattern& a, const core::Pattern& b) {
                       return a.stats.match_count > b.stats.match_count;
                     });
  }
  return out;
}

bool PatternStore::save(const std::string& path) {
  if (obs::telemetry_enabled()) store_metrics().save.inc();
  obs::Stage stage(store_metrics().persist_seconds, obs::TraceCat::kStore,
                   "save");
  std::lock_guard lock(mutex_);
  return save_snapshot(path, rows_);
}

bool PatternStore::load(const std::string& path) {
  if (obs::telemetry_enabled()) store_metrics().load.inc();
  obs::Stage stage(store_metrics().persist_seconds, obs::TraceCat::kStore,
                   "load");
  std::lock_guard lock(mutex_);
  spilled_.clear();
  std::optional<PatternRows> rows = load_snapshot(path);
  reset_rows_locked(rows.has_value() ? std::move(*rows) : PatternRows{});
  return rows.has_value();
}

void PatternStore::replay_ops(std::string_view ops) {
  WalReader r{ops};
  while (r.ok && !r.at_end()) {
    const std::uint8_t op = r.u8();
    if (op == kOpUpsert) {
      core::Pattern p;
      p.service = std::string(r.string());
      const std::string_view tokens_json = r.string();
      p.stats.match_count = r.u64();
      p.stats.first_seen = r.i64();
      p.stats.last_matched = r.i64();
      const std::uint32_t n_examples = r.u32();
      for (std::uint32_t i = 0; r.ok && i < n_examples; ++i) {
        p.examples.emplace_back(r.string());
      }
      if (!r.ok) break;
      auto tokens = pattern_tokens_from_json(tokens_json);
      if (!tokens.has_value()) {
        // CRC passed but the op is logically malformed (should never
        // happen): skip it, count it, keep replaying the group.
        store_metrics().corrupt_rows.inc();
        continue;
      }
      p.tokens = std::move(*tokens);
      refresh_partition_locked(apply_upsert(p));
    } else if (op == kOpRecordMatch) {
      const std::string id(r.string());
      const std::uint64_t count = r.u64();
      const std::int64_t when = r.i64();
      if (!r.ok) break;
      apply_record_match(id, count, when);
    } else if (op == kOpDelete) {
      const std::string id(r.string());
      if (!r.ok) break;
      if (const auto service = apply_delete(id)) {
        refresh_partition_locked(*service);
      }
    } else if (op == kOpSpill || op == kOpReload) {
      const std::string service(r.string());
      const std::uint32_t n_patterns = r.u32();
      const std::string blob(r.string());
      if (!r.ok) break;
      if (op == kOpSpill) {
        apply_spill(service, n_patterns, blob);
      } else {
        apply_reload(service, blob);
        refresh_partition_locked(service);
      }
    } else {
      break;  // unknown op: drop the rest of the group
    }
  }
}

bool PatternStore::apply_replicated_group(std::uint64_t seq,
                                          std::string_view ops) {
  std::lock_guard lock(mutex_);
  if (!wal_.is_open() || seq == 0 || ops.empty()) return false;
  // Idempotent re-delivery: a group the standby already holds (or that a
  // checkpoint folded into the snapshot) is acknowledged, not re-applied.
  if (seq <= wal_.last_seq() || seq <= snapshot_seq_) return true;
  replay_ops(ops);
  // Mirror the primary's sequence exactly — gaps included — so takeover
  // resumes numbering where the primary stopped.
  wal_.ensure_next_seq(seq);
  const std::uint64_t assigned = wal_.append(ops);
  if (assigned != 0) wal_.sync();
  return assigned == seq;
}

bool PatternStore::open(const std::string& dir) {
  if (obs::telemetry_enabled()) store_metrics().load.inc();
  obs::Stage stage(store_metrics().persist_seconds, obs::TraceCat::kStore,
                   "open");
  std::lock_guard lock(mutex_);
  wal_.close();
  dir_.clear();
  reset_rows_locked();
  snapshot_seq_ = 0;
  spilled_.clear();
  batch_ops_.clear();
  batch_services_.clear();

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return false;

  // Newest valid snapshot wins; older generations are the fallback when
  // the newest fails to parse (disk rot). ".tmp" leftovers of a checkpoint
  // that died before its rename are ignored entirely.
  std::vector<std::uint64_t> seqs;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t seq = 0;
    if (parse_snapshot_name(entry.path().filename().string(), &seq)) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.rbegin(), seqs.rend());
  for (const std::uint64_t seq : seqs) {
    const std::string path = (fs::path(dir) / snapshot_name(seq)).string();
    if (std::optional<PatternRows> rows = load_snapshot(path)) {
      // From here on the WAL replay keeps the ledger by deltas.
      reset_rows_locked(std::move(*rows));
      snapshot_seq_ = seq;
      break;
    }
  }

  // Replay the WAL tail past the snapshot watermark, then keep the log
  // open for appending (open() truncates any torn final record).
  Wal::ReplayResult recovered;
  const std::string wal_path = (fs::path(dir) / kWalFile).string();
  if (!wal_.open(wal_path, &recovered)) {
    reset_rows_locked();
    return false;
  }
  wal_.ensure_next_seq(snapshot_seq_ + 1);
  // Residency ops replayed below rewrite spill files, so the directory
  // must be bound before the replay loop runs.
  dir_ = dir;
  std::uint64_t replayed = 0;
  for (const Wal::Record& rec : recovered.records) {
    if (rec.seq <= snapshot_seq_) continue;  // stale pre-checkpoint record
    replay_ops(rec.payload);
    ++replayed;
  }
  if (obs::telemetry_enabled()) {
    store_metrics().wal_replayed.inc(replayed);
    if (recovered.truncated) store_metrics().wal_truncations.inc();
  }
  reconcile_spill_files_locked();
  return true;
}

bool PatternStore::checkpoint() {
  if (obs::telemetry_enabled()) store_metrics().save.inc();
  obs::Stage stage(store_metrics().persist_seconds, obs::TraceCat::kStore,
                   "checkpoint");
  std::lock_guard lock(mutex_);
  if (!wal_.is_open()) return false;

  const std::uint64_t seq = wal_.last_seq();
  const fs::path dir(dir_);
  const std::string final_path = (dir / snapshot_name(seq)).string();
  const std::string tmp_path = final_path + ".tmp";
  if (!save_snapshot(tmp_path, rows_)) return false;
  if (!fsync_path(tmp_path)) return false;
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) return false;
  if (!fsync_dir(dir_)) return false;
  // The snapshot is durable; the log can drop everything at or below its
  // watermark. A crash right here leaves stale records whose seq <= the
  // watermark — recovery skips them.
  if (!wal_.reset()) return false;

  // Retain the previous snapshot as a fallback; delete older generations.
  std::error_code ec;
  std::vector<std::uint64_t> seqs;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t s = 0;
    if (parse_snapshot_name(entry.path().filename().string(), &s) &&
        s < seq) {
      seqs.push_back(s);
    }
  }
  std::sort(seqs.rbegin(), seqs.rend());
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    fs::remove(dir / snapshot_name(seqs[i]), ec);
  }

  snapshot_seq_ = seq;
  if (obs::telemetry_enabled()) store_metrics().wal_snapshots.inc();
  return true;
}

std::string PatternStore::spill_file_path(std::string_view service) const {
  return (fs::path(dir_) / spill_file_name(service)).string();
}

bool PatternStore::write_spill_file_locked(std::string_view service,
                                           std::uint32_t n_patterns,
                                           std::string_view rows_blob,
                                           bool fsync) {
  std::string payload;
  wal_put_string(payload, service);
  wal_put_u32(payload, n_patterns);
  wal_put_string(payload, rows_blob);
  std::string data(kSpillMagic);
  wal_put_u32(data, static_cast<std::uint32_t>(payload.size()));
  wal_put_u32(data, crc32(payload));
  data.append(payload);

  const std::string final_path = spill_file_path(service);
  // 128-bit name-collision guard: never overwrite another service's file.
  std::error_code ec;
  if (fs::exists(final_path, ec)) {
    SpillFile existing = read_spill_file(final_path);
    if (existing.ok && existing.service != service) return false;
  }
  const std::string tmp_path = final_path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  if (ok && fsync) {
    ok = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  }
  ok = (std::fclose(f) == 0) && ok;
  if (!ok || std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  if (fsync && !fsync_dir(dir_)) return false;
  return true;
}

void PatternStore::refresh_partition_locked(std::string_view service) {
  if (governor_ == nullptr) return;
  core::MemoryAccountant* acct = governor_->accountant();
  const auto it = partitions_.find(service);
  const std::size_t bytes = it == partitions_.end() ? 0 : it->second.bytes;
  if (bytes == 0) {
    if (acct != nullptr) acct->drop_partition(service);
    governor_->on_deleted(service);
    return;
  }
  if (acct != nullptr) acct->set_partition_bytes(service, bytes);
  governor_->touch(service);
}

void PatternStore::erase_partition_locked(std::string_view service) {
  const auto it = partitions_.find(service);
  if (it == partitions_.end()) return;
  for (const auto& [pid, row] : it->second.rows) rows_.erase(std::string(pid));
  partitions_.erase(it);
}

void PatternStore::apply_spill(std::string_view service,
                               std::uint32_t n_patterns,
                               std::string_view rows_blob) {
  erase_partition_locked(service);
  // (Re)write the spill file from the embedded rows: a standby applying a
  // shipped group needs its own copy, and open-replay restores the
  // file ⟺ spilled invariant even if the live file write was torn. During
  // a live spill this rewrite is redundant but byte-identical.
  write_spill_file_locked(service, n_patterns, rows_blob, /*fsync=*/false);
  spilled_[std::string(service)] = SpilledInfo{n_patterns};
  if (governor_ != nullptr) {
    if (auto* acct = governor_->accountant()) acct->drop_partition(service);
    // Replay/standby apply mirrors a spill the primary already committed;
    // a local pin cannot veto it. A refused (pinned) entry just stays in
    // the LRU until the partition is reloaded through on_resident.
    (void)governor_->on_spilled(service);
  }
}

void PatternStore::apply_reload(std::string_view service,
                                std::string_view rows_blob) {
  // Residency ops are self-contained: clear anything present, then insert
  // the embedded rows verbatim (they hit the INSERT path of apply_upsert).
  erase_partition_locked(service);
  std::vector<core::Pattern> rows;
  if (decode_upsert_ops(rows_blob, &rows)) {
    for (const core::Pattern& p : rows) apply_upsert(p);
  } else {
    store_metrics().corrupt_rows.inc();
  }
  std::error_code ec;
  fs::remove(spill_file_path(service), ec);
  const auto it = spilled_.find(service);
  if (it != spilled_.end()) spilled_.erase(it);
  if (governor_ != nullptr) governor_->on_resident(service);
}

bool PatternStore::ensure_resident_locked(std::string_view service) {
  const auto it = spilled_.find(service);
  if (it == spilled_.end()) return true;
  obs::TraceSpan span(obs::TraceCat::kStore, "partition_reload");
  const std::string path = spill_file_path(service);
  SpillFile file = read_spill_file(path);
  std::vector<core::Pattern> rows;
  if (!file.ok || file.service != service ||
      !decode_upsert_ops(file.rows_blob, &rows)) {
    // Corrupt or missing spill file: the partition's rows are gone. Stop
    // claiming they exist, surface it loudly, and let the caller proceed
    // with an empty partition (mining will rebuild patterns from traffic).
    obs::logev(obs::LogLevel::kError, "store", "spill_file_corrupt",
               {{"service", std::string(service)}, {"path", path}});
    spilled_.erase(it);
    if (governor_ != nullptr) governor_->on_deleted(service);
    std::error_code ec;
    fs::remove(path, ec);
    return false;
  }
  // Commit point: the kOpReload group (rows embedded) reaches the WAL
  // before the file is deleted, so replay and the standby rebuild the
  // partition from the log alone.
  std::string ops;
  encode_residency(ops, kOpReload, service, file.n_patterns, file.rows_blob);
  append_group(std::move(ops));
  for (const core::Pattern& p : rows) apply_upsert(p);
  std::error_code ec;
  fs::remove(path, ec);
  fsync_dir(dir_);
  spilled_.erase(it);
  if (governor_ != nullptr) governor_->on_resident(service);
  refresh_partition_locked(service);
  if (obs::telemetry_enabled()) store_op("reload").inc();
  return true;
}

bool PatternStore::spill_partition(const std::string& service) {
  std::lock_guard lock(mutex_);
  if (!wal_.is_open() || wal_.wedged()) return false;
  if (spilled_.find(service) != spilled_.end()) return false;
  // Ordering contract: a service with ops buffered in any open batch scope
  // must not spill, or the WAL would record the spill ahead of mutations
  // that already happened in memory.
  for (const auto& [tid, touched] : batch_services_) {
    if (touched.find(service) != touched.end()) return false;
  }
  // Final pin re-check under our lock — closes the race where a lane pins
  // the victim between enforce()'s selection and this call.
  if (governor_ != nullptr && !governor_->try_claim_spill(service)) {
    return false;
  }
  std::vector<core::Pattern> rows;
  if (const auto it = partitions_.find(service); it != partitions_.end()) {
    rows = decode_rows(take_rows(it->second.rows, RowCopy::kFull));
  }
  if (rows.empty()) {
    // Nothing to spill. Refresh so a zero-row LRU entry (left by pin/touch
    // on a service with no stored patterns) is dropped once unpinned
    // instead of lingering as a permanent enforce() refusal.
    refresh_partition_locked(service);
    return false;
  }
  obs::TraceSpan span(obs::TraceCat::kStore, "partition_spill");
  span.set_args(static_cast<std::int64_t>(rows.size()));
  std::string blob;
  for (const core::Pattern& p : rows) encode_upsert(blob, p);
  const std::uint32_t n = static_cast<std::uint32_t>(rows.size());
  // Durable order: file first (tmp + fsync + rename + dir fsync), then the
  // kOpSpill group, then free the rows. Every crash window reconciles at
  // open() — see the class comment.
  if (!write_spill_file_locked(service, n, blob, /*fsync=*/true)) {
    return false;
  }
  std::string ops;
  encode_residency(ops, kOpSpill, service, n, blob);
  append_group(std::move(ops));
  erase_partition_locked(service);
  spilled_[service] = SpilledInfo{n};
  if (governor_ != nullptr) {
    if (auto* acct = governor_->accountant()) acct->drop_partition(service);
    if (!governor_->on_spilled(service)) {
      // A lane pinned the service between try_claim_spill above and the
      // commit: the claim failed late. Undo while still holding our lock —
      // the spill file just written reloads the rows (the WAL records
      // spill then reload, a consistent history), so the pinning lane
      // finds the partition resident exactly as its pin guarantees and
      // no stats update it applies against the loaded rows is lost.
      ensure_resident_locked(service);
      return false;
    }
  }
  if (obs::telemetry_enabled()) store_op("spill").inc();
  return true;
}

void PatternStore::reconcile_spill_files_locked() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    // ".sp.tmp" leftovers of an interrupted spill-file write.
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0 &&
        is_spill_file_name(
            std::string_view(name).substr(0, name.size() - 4))) {
      fs::remove(entry.path(), ec);
      continue;
    }
    if (!is_spill_file_name(name)) continue;
    SpillFile file = read_spill_file(entry.path().string());
    if (!file.ok) {
      obs::logev(obs::LogLevel::kError, "store", "spill_file_corrupt",
                 {{"path", entry.path().string()}});
      fs::remove(entry.path(), ec);
      continue;
    }
    if (partitions_.find(file.service) != partitions_.end()) {
      // Stale leftover of an interrupted spill: the kOpSpill group never
      // committed, so the rows are still resident and authoritative.
      fs::remove(entry.path(), ec);
      continue;
    }
    spilled_[file.service] = SpilledInfo{file.n_patterns};
  }
}

void PatternStore::attach_governor(core::Governor* governor) {
  std::lock_guard lock(mutex_);
  governor_ = governor;
  if (governor_ == nullptr) return;
  governor_->attach_target(this);
  // Seed the accountant and LRU with the current resident partitions, and
  // the spilled set with what reconcile/replay found.
  for (const auto& [svc, partition] : partitions_) {
    refresh_partition_locked(svc);
  }
  for (const auto& [svc, info] : spilled_) governor_->seed_spilled(svc);
}

bool PatternStore::is_spilled(std::string_view service) {
  std::lock_guard lock(mutex_);
  return spilled_.find(service) != spilled_.end();
}

std::vector<std::string> PatternStore::spilled_services() {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(spilled_.size());
  for (const auto& [svc, info] : spilled_) out.push_back(svc);
  return out;
}

std::map<std::string, std::size_t> PatternStore::recount_partition_bytes() {
  std::lock_guard lock(mutex_);
  std::map<std::string, std::size_t> out;
  for (const auto& [pid, row] : rows_) out[row.service] += row_bytes(pid, row);
  return out;
}

PatternStore::DurabilityStats PatternStore::durability_stats() {
  std::lock_guard lock(mutex_);
  DurabilityStats s;
  s.durable = wal_.is_open();
  if (!s.durable) return s;
  s.dir = dir_;
  s.last_seq = wal_.last_seq();
  s.snapshot_seq = snapshot_seq_;
  s.wal_records = wal_.record_count();
  s.wal_bytes = wal_.size_bytes();
  const fs::path dir(dir_);
  s.snapshot_unix = file_mtime_unix(dir / snapshot_name(snapshot_seq_));
  s.wal_unix = file_mtime_unix(dir / kWalFile);
  return s;
}

}  // namespace seqrtg::store
