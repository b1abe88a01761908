// Pattern repository interface.
//
// RTG extension #2 makes discovered patterns persistent between executions.
// The core stays storage-agnostic behind this interface: `store::PatternStore`
// implements it on top of the embedded database, and `InMemoryRepository`
// backs tests and single-run benches.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pattern.hpp"

namespace seqrtg::core {

class PatternRepository {
 public:
  virtual ~PatternRepository() = default;

  /// All patterns known for `service`.
  virtual std::vector<Pattern> load_service(std::string_view service) = 0;

  /// `service`'s patterns as the matcher needs them, in load_service's
  /// order (which is match precedence): only `service` and `tokens` are
  /// guaranteed set. The engine rebuilds each service's parser from this
  /// on every flush. The default is load_service; a store whose rows
  /// carry more than the matcher reads overrides it to copy less.
  virtual std::vector<Pattern> match_patterns(std::string_view service) {
    return load_service(service);
  }

  /// All known service names (sorted).
  virtual std::vector<std::string> services() = 0;

  /// Inserts `p` or merges it into the existing row with the same id:
  /// match counts add up, examples merge up to the cap, last_matched takes
  /// the most recent value.
  virtual void upsert_pattern(const Pattern& p) = 0;

  /// Records `count` additional matches of pattern `id` at time `when`.
  virtual void record_match(const std::string& id, std::uint64_t count,
                            std::int64_t when) = 0;

  /// Removes pattern `id` (and its examples) if present; true when a row
  /// was deleted. The evolution/compaction pass uses this to rewrite a
  /// service; durable repositories log the deletion so it is crash-safe.
  virtual bool delete_pattern(const std::string& id) = 0;

  virtual std::optional<Pattern> find(const std::string& id) = 0;

  virtual std::size_t pattern_count() = 0;

  /// Example merge cap applied by upsert_pattern (see merge_pattern_into).
  /// Held on the interface — not per-backend — so the in-memory and durable
  /// stores stay differentially identical when the engine configures a cap
  /// other than the default 3 (AnalyzerOptions::example_cap). Atomic
  /// because every serve lane constructs its Engine — which configures the
  /// cap — against the one shared store, concurrently with the others.
  void set_example_cap(std::size_t cap) {
    example_cap_.store(cap, std::memory_order_relaxed);
  }
  std::size_t example_cap() const {
    return example_cap_.load(std::memory_order_relaxed);
  }

  /// Batch transaction hooks. Durable repositories make every mutation
  /// between begin_batch() and commit_batch() atomic on disk — a crash (or
  /// abort_batch()) persists none of them. The defaults are no-ops so
  /// in-memory repositories stay unchanged.
  virtual void begin_batch() {}
  virtual void commit_batch() {}
  virtual void abort_batch() {}

 protected:
  std::atomic<std::size_t> example_cap_{3};
};

/// RAII batch scope: commits on `commit()`, aborts when destroyed without
/// one (e.g. an exception unwinding the engine's repo-save phase).
class RepositoryBatch {
 public:
  explicit RepositoryBatch(PatternRepository* repo) : repo_(repo) {
    repo_->begin_batch();
  }
  ~RepositoryBatch() {
    if (!done_) repo_->abort_batch();
  }
  RepositoryBatch(const RepositoryBatch&) = delete;
  RepositoryBatch& operator=(const RepositoryBatch&) = delete;

  void commit() {
    repo_->commit_batch();
    done_ = true;
  }

 private:
  PatternRepository* repo_;
  bool done_ = false;
};

/// Thread-safe in-memory repository (no persistence).
class InMemoryRepository final : public PatternRepository {
 public:
  std::vector<Pattern> load_service(std::string_view service) override;
  std::vector<std::string> services() override;
  void upsert_pattern(const Pattern& p) override;
  void record_match(const std::string& id, std::uint64_t count,
                    std::int64_t when) override;
  bool delete_pattern(const std::string& id) override;
  std::optional<Pattern> find(const std::string& id) override;
  std::size_t pattern_count() override;

 private:
  std::mutex mutex_;
  // id -> pattern; service -> ids keeps load_service cheap.
  std::map<std::string, Pattern> by_id_;
  std::map<std::string, std::vector<std::string>, std::less<>> by_service_;
};

/// Shared merge logic for upserts (used by both repository implementations).
void merge_pattern_into(Pattern& existing, const Pattern& incoming,
                        std::size_t example_cap = 3);

/// The pattern id is SHA-1(text + service), and the %-delimited text does
/// not encode variable *types* — two patterns can share an id while one
/// holds %uid% as Hex and the other as String (e.g. when some values of an
/// alphanumeric field happen to scan as hex). Widens `existing`'s variable
/// types to String wherever `incoming` disagrees, so the stored pattern
/// matches the union. Returns true when anything changed.
bool widen_pattern_tokens(std::vector<PatternToken>& existing,
                          const std::vector<PatternToken>& incoming);

}  // namespace seqrtg::core
