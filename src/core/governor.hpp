// Resource governance: memory-accounted partitions, LRU spill, admission
// control.
//
// Today's engine keeps every service partition resident forever; at the
// million-service cardinality the ROADMAP targets that is an OOM, not a
// product. This module bounds resident state the way streaming parsers
// (USTEP) and buffer pools do:
//
//  - `MemoryAccountant` is the single ledger every memory owner reports
//    through: the pattern repository charges bytes per service partition,
//    and the transient trie arenas / interner pools / sketch registry
//    report through category gauges. The ledger is what the governor
//    enforces against and what the governance oracle audits — a component
//    that mutates state without updating the ledger is a bug the
//    `misaccount@I` fault proves we catch.
//  - `Governor` keeps an LRU of unpinned, cold service partitions and, at
//    engine safe points, spills the coldest to the durable store (spill =
//    checkpoint the partition + free its RAM; touch = transparent reload
//    through the store's WAL/snapshot path) until resident bytes fall
//    under the policy watermark.
//  - When spilling cannot help (no durable store, everything pinned) the
//    governor flips `overloaded()` and serve sheds at admission with exact
//    `seqrtg_governor_*` accounting, reusing the BoundedQueue drop
//    contract.
//
// Policy is injectable (`GovernorPolicy`, including the clock used for
// TTL-of-coldness) so tests drive it with ManualClock and a future
// embeddable libseqrtg can supply its own; nothing here is hard-coded.
//
// The central correctness claim — governance never changes what gets
// mined — is proven by the governance differential oracle in testkit
// (`memlimit@B`): governed runs under spill thrash must produce canonical
// pattern sets byte-equal to ungoverned runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.hpp"

namespace seqrtg::core {

/// Non-partition memory owners that report through the accountant. These
/// are observability gauges (they do not drive spill — only partition
/// bytes do) but they make resident memory visible on /metrics, which it
/// was not before this layer existed.
enum class MemCategory : std::uint8_t {
  kTrieArena = 0,
  kInterner = 1,
  kSketches = 2,
};
inline constexpr std::size_t kMemCategoryCount = 3;

/// Thread-safe byte ledger. The repository calls set_partition_bytes /
/// drop_partition as rows change residency; resident_bytes() is the sum
/// the governor enforces the ceiling against.
class MemoryAccountant {
 public:
  /// Bytes the misaccount fault skews the ledger by when the hook fires —
  /// deliberately about one small partition, the exact class of bug
  /// (charging N-1 of N partitions) the audit exists to catch.
  static constexpr std::size_t kFaultSkewBytes = 4096;

  /// Fault hook: called once per accounting event with a running event
  /// index; returning true makes the ledger permanently over-count by
  /// kFaultSkewBytes (sticky, like a lost decrement would be). Testkit's
  /// `misaccount@I` installs this.
  using FaultHook = std::function<bool(std::uint64_t event_index)>;

  /// Records the authoritative resident size of `service`'s partition.
  void set_partition_bytes(std::string_view service, std::size_t bytes);

  /// The partition left RAM (spilled or deleted); stop charging it.
  void drop_partition(std::string_view service);

  std::size_t partition_bytes(std::string_view service) const;
  std::size_t partition_count() const;

  /// Sum of all partition bytes currently charged (plus any fault skew).
  std::size_t resident_bytes() const;

  /// High-water mark of resident_bytes() since construction/reset — the
  /// soak test's "never exceeded ceiling + slack" witness.
  std::size_t peak_resident_bytes() const;
  void reset_peak();

  void set_category_bytes(MemCategory c, std::size_t bytes);
  std::size_t category_bytes(MemCategory c) const;

  /// Compares the ledger against an authoritative recount (the store
  /// re-deriving partition sizes from its rows). Returns a description of
  /// the first discrepancy, or nullopt when the ledger balances. This is
  /// the governance oracle's audit step: canonical-output equality cannot
  /// see a misaccounted ledger (governance is output-transparent), the
  /// audit can.
  std::optional<std::string> audit(
      const std::map<std::string, std::size_t>& actual) const;

  void set_fault_hook(FaultHook hook);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::size_t, std::less<>> partitions_;
  std::size_t total_ = 0;
  std::size_t peak_ = 0;
  std::size_t skew_ = 0;
  std::uint64_t events_ = 0;
  std::size_t categories_[kMemCategoryCount] = {0, 0, 0};
  FaultHook fault_;
};

/// Injectable governance policy. ceiling_bytes == 0 disables enforcement
/// (accounting still runs). All knobs are plain data so the CLI, serve
/// options and tests construct them directly.
struct GovernorPolicy {
  /// Hard ceiling on summed partition bytes; 0 = unlimited.
  std::size_t ceiling_bytes = 0;
  /// enforce() spills until resident <= ceiling * spill_watermark, so a
  /// burst of growth doesn't re-trigger a spill per record.
  double spill_watermark = 0.9;
  /// Upper bound on partitions spilled per enforce() call; keeps the
  /// latency of one safe point bounded under thrash.
  std::size_t spill_batch = 8;
  /// A partition must have been untouched for this long before it is
  /// spill-eligible (TTL of coldness). 0 = immediately eligible.
  std::int64_t min_cold_ms = 0;
  /// Clock for coldness; nullptr = util::Clock::system().
  util::Clock* clock = nullptr;
};

/// Durable destination for spilled partitions — implemented by
/// store::PatternStore. Lives here so core does not depend on store.
class SpillTarget {
 public:
  virtual ~SpillTarget() = default;

  /// Durably persists `service`'s partition and frees its in-RAM rows.
  /// Implementations must drop the partition from the accountant and
  /// commit via Governor::on_spilled. Returns false when the partition
  /// cannot be spilled (store not durable, service unknown, pinned) — if
  /// on_spilled refuses the commit because a pin landed mid-spill, the
  /// implementation must restore the partition's residency before
  /// returning false.
  virtual bool spill_partition(const std::string& service) = 0;
};

/// LRU spill policy over service partitions. Thread-safe: serve lanes
/// pin/touch concurrently while one lane's safe point runs enforce().
class Governor {
 public:
  Governor(GovernorPolicy policy, MemoryAccountant* accountant);

  /// The durable store partitions spill to. Unset (or never attached)
  /// means enforce() cannot spill and overload is reported instead.
  void attach_target(SpillTarget* target);

  const GovernorPolicy& policy() const { return policy_; }
  MemoryAccountant* accountant() const { return accountant_; }
  bool enabled() const { return policy_.ceiling_bytes > 0; }

  /// Partition lifecycle, called by the engine around service processing
  /// and by the store on load/reload/delete. All create the LRU entry
  /// lazily, so callers never need to announce a partition first.
  void touch(std::string_view service);  ///< mark most-recently-used
  void pin(std::string_view service);    ///< in flight: not spillable
  void unpin(std::string_view service);
  void on_resident(std::string_view service);  ///< (re)loaded into RAM

  /// Spill commit: the store calls this after durably spilling `service`
  /// but before releasing its lock. Returns false when a pin arrived
  /// between try_claim_spill and this call — the claim failed late, the
  /// entry (pins included) survives, and the store must undo the spill
  /// (reload the partition) before unlocking so the pin's contract (rows
  /// stay resident) holds.
  bool on_spilled(std::string_view service);

  /// Partition removed (zero rows after a delete, corrupt spill file).
  /// Preserves the LRU entry when a lane still holds pins so the later
  /// unpin balances; only the spilled marking is dropped.
  void on_deleted(std::string_view service);

  /// Marks a partition as spilled without counting a spill — the store
  /// seeds pre-existing spilled partitions through this at attach time.
  void seed_spilled(std::string_view service);

  /// Final pin re-check the spill target runs (under its own lock) right
  /// before spilling: false when the partition is pinned or unknown, in
  /// which case the spill must be abandoned. Closes the race where a lane
  /// pins a victim between enforce()'s selection and the actual spill.
  bool try_claim_spill(std::string_view service);

  /// Ceiling enforcement at an engine safe point (never called while the
  /// caller holds store locks). Spills coldest unpinned partitions until
  /// resident <= ceiling * spill_watermark, up to policy.spill_batch.
  /// Returns partitions spilled; updates the overload flag.
  std::size_t enforce();

  /// Admission control: true while the ledger is above the ceiling and
  /// the last enforce() could not bring it down (nothing spillable).
  /// serve sheds new records while this holds. A relaxed atomic load: the
  /// admission path reads it per record without the governor mutex.
  bool overloaded() const {
    return overloaded_.load(std::memory_order_relaxed);
  }

  /// Serve's shed path reports each shed record here for exact
  /// accounting (`accepted == processed + shed`).
  void note_shed();

  struct Stats {
    std::size_t resident_bytes = 0;
    std::size_t peak_resident_bytes = 0;
    std::size_t ceiling_bytes = 0;
    std::size_t resident_partitions = 0;
    std::size_t spilled_partitions = 0;
    std::size_t pinned_partitions = 0;
    std::uint64_t spills = 0;
    std::uint64_t reloads = 0;
    std::uint64_t sheds = 0;
    std::uint64_t enforce_calls = 0;
  };
  Stats stats() const;
  std::string debug_json() const;

  /// Services in eviction order, coldest first, pinned included (the
  /// model-based LRU property test compares this against a reference
  /// std::list driven by the same touch/spill/reload trajectory).
  std::vector<std::string> lru_order() const;

 private:
  struct Entry {
    std::list<std::string>::iterator lru_it;
    std::uint32_t pins = 0;
    std::int64_t last_touch_ms = 0;
  };

  // Must be called with mutex_ held.
  Entry& entry_locked(std::string_view service);
  void erase_locked(std::string_view service);

  GovernorPolicy policy_;
  MemoryAccountant* accountant_;
  SpillTarget* target_ = nullptr;
  util::Clock* clock_;

  mutable std::mutex mutex_;
  std::list<std::string> lru_;  // front = coldest, back = hottest
  std::map<std::string, Entry, std::less<>> entries_;
  std::map<std::string, bool, std::less<>> spilled_;  // spilled set
  // Stored by enforce() only; read lock-free by overloaded().
  std::atomic<bool> overloaded_{false};
  std::uint64_t spills_ = 0;
  std::uint64_t reloads_ = 0;
  std::uint64_t sheds_ = 0;
  std::uint64_t enforce_calls_ = 0;
};

}  // namespace seqrtg::core
