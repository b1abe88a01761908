#include "core/governor.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"

namespace seqrtg::core {

namespace {

struct GovernorMetrics {
  obs::Gauge& resident_bytes;
  obs::Gauge& ceiling_bytes;
  obs::Gauge& resident_partitions;
  obs::Counter& spills;
  obs::Counter& reloads;
  obs::Counter& sheds;
};

GovernorMetrics& governor_metrics() {
  static GovernorMetrics m{
      obs::default_registry().gauge(
          "seqrtg_governor_resident_bytes",
          "Partition bytes currently charged to the memory accountant"),
      obs::default_registry().gauge(
          "seqrtg_governor_ceiling_bytes",
          "Configured memory ceiling (0 = governance disabled)"),
      obs::default_registry().gauge(
          "seqrtg_governor_resident_partitions",
          "Service partitions currently resident in RAM"),
      obs::default_registry().counter(
          "seqrtg_governor_spill_total",
          "Cold service partitions spilled to the pattern store"),
      obs::default_registry().counter(
          "seqrtg_governor_reload_total",
          "Spilled service partitions transparently reloaded on touch"),
      obs::default_registry().counter(
          "seqrtg_governor_shed_total",
          "Records shed at admission while the governor was overloaded"),
  };
  return m;
}

obs::Gauge& category_gauge(MemCategory c) {
  static obs::Gauge* gauges[kMemCategoryCount] = {
      &obs::default_registry().gauge(
          "seqrtg_engine_trie_arena_resident_bytes",
          "Resident bytes of the analyser trie arenas (last batch)"),
      &obs::default_registry().gauge(
          "seqrtg_engine_interner_resident_bytes",
          "Resident bytes of the literal interner pools (last batch)"),
      &obs::default_registry().gauge(
          "seqrtg_sketch_resident_bytes",
          "Approximate resident bytes of the value-sketch registry"),
  };
  return *gauges[static_cast<std::size_t>(c)];
}

}  // namespace

// ---------------------------------------------------------------------------
// MemoryAccountant

void MemoryAccountant::set_partition_bytes(std::string_view service,
                                           std::size_t bytes) {
  std::lock_guard lock(mutex_);
  if (fault_ && fault_(events_)) skew_ += kFaultSkewBytes;
  ++events_;
  auto it = partitions_.find(service);
  if (it == partitions_.end()) {
    partitions_.emplace(std::string(service), bytes);
    total_ += bytes;
  } else {
    total_ += bytes;
    total_ -= it->second;
    it->second = bytes;
  }
  if (total_ + skew_ > peak_) peak_ = total_ + skew_;
  if (obs::telemetry_enabled()) {
    governor_metrics().resident_bytes.set(
        static_cast<double>(total_ + skew_));
    governor_metrics().resident_partitions.set(
        static_cast<double>(partitions_.size()));
  }
}

void MemoryAccountant::drop_partition(std::string_view service) {
  std::lock_guard lock(mutex_);
  if (fault_ && fault_(events_)) skew_ += kFaultSkewBytes;
  ++events_;
  auto it = partitions_.find(service);
  if (it == partitions_.end()) return;
  total_ -= it->second;
  partitions_.erase(it);
  if (obs::telemetry_enabled()) {
    governor_metrics().resident_bytes.set(
        static_cast<double>(total_ + skew_));
    governor_metrics().resident_partitions.set(
        static_cast<double>(partitions_.size()));
  }
}

std::size_t MemoryAccountant::partition_bytes(std::string_view service) const {
  std::lock_guard lock(mutex_);
  auto it = partitions_.find(service);
  return it == partitions_.end() ? 0 : it->second;
}

std::size_t MemoryAccountant::partition_count() const {
  std::lock_guard lock(mutex_);
  return partitions_.size();
}

std::size_t MemoryAccountant::resident_bytes() const {
  std::lock_guard lock(mutex_);
  return total_ + skew_;
}

std::size_t MemoryAccountant::peak_resident_bytes() const {
  std::lock_guard lock(mutex_);
  return peak_;
}

void MemoryAccountant::reset_peak() {
  std::lock_guard lock(mutex_);
  peak_ = total_ + skew_;
}

void MemoryAccountant::set_category_bytes(MemCategory c, std::size_t bytes) {
  {
    std::lock_guard lock(mutex_);
    categories_[static_cast<std::size_t>(c)] = bytes;
  }
  if (obs::telemetry_enabled()) {
    category_gauge(c).set(static_cast<double>(bytes));
  }
}

std::size_t MemoryAccountant::category_bytes(MemCategory c) const {
  std::lock_guard lock(mutex_);
  return categories_[static_cast<std::size_t>(c)];
}

std::optional<std::string> MemoryAccountant::audit(
    const std::map<std::string, std::size_t>& actual) const {
  std::lock_guard lock(mutex_);
  for (const auto& [service, bytes] : actual) {
    auto it = partitions_.find(service);
    if (it == partitions_.end()) {
      return "partition untracked by accountant: " + service;
    }
    if (it->second != bytes) {
      return "partition bytes mismatch for " + service + ": ledger " +
             std::to_string(it->second) + " vs actual " +
             std::to_string(bytes);
    }
  }
  for (const auto& [service, bytes] : partitions_) {
    if (actual.find(service) == actual.end()) {
      return "ledger charges non-resident partition: " + service;
    }
  }
  std::size_t actual_total = 0;
  for (const auto& [service, bytes] : actual) actual_total += bytes;
  // The per-partition pass above already proved the per-service figures
  // equal; this catches a skewed global figure (the misaccount fault is a
  // sticky over-count, exactly a lost decrement).
  if (total_ + skew_ != actual_total) {
    return "ledger total " + std::to_string(total_ + skew_) +
           " != recount total " + std::to_string(actual_total);
  }
  return std::nullopt;
}

void MemoryAccountant::set_fault_hook(FaultHook hook) {
  std::lock_guard lock(mutex_);
  fault_ = std::move(hook);
}

// ---------------------------------------------------------------------------
// Governor

Governor::Governor(GovernorPolicy policy, MemoryAccountant* accountant)
    : policy_(policy),
      accountant_(accountant),
      clock_(policy.clock != nullptr ? policy.clock
                                     : &util::Clock::system()) {
  if (obs::telemetry_enabled()) {
    governor_metrics().ceiling_bytes.set(
        static_cast<double>(policy_.ceiling_bytes));
  }
}

void Governor::attach_target(SpillTarget* target) {
  std::lock_guard lock(mutex_);
  target_ = target;
}

Governor::Entry& Governor::entry_locked(std::string_view service) {
  auto it = entries_.find(service);
  if (it == entries_.end()) {
    lru_.emplace_back(service);
    auto lru_it = std::prev(lru_.end());
    it = entries_.emplace(std::string(service), Entry{lru_it, 0, 0}).first;
  }
  return it->second;
}

void Governor::erase_locked(std::string_view service) {
  auto it = entries_.find(service);
  if (it == entries_.end()) return;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void Governor::touch(std::string_view service) {
  std::lock_guard lock(mutex_);
  Entry& e = entry_locked(service);
  lru_.splice(lru_.end(), lru_, e.lru_it);  // move to hot end
  e.last_touch_ms = clock_->now_ms();
}

void Governor::pin(std::string_view service) {
  std::lock_guard lock(mutex_);
  Entry& e = entry_locked(service);
  lru_.splice(lru_.end(), lru_, e.lru_it);
  e.last_touch_ms = clock_->now_ms();
  ++e.pins;
}

void Governor::unpin(std::string_view service) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(service);
  if (it != entries_.end() && it->second.pins > 0) --it->second.pins;
}

void Governor::on_resident(std::string_view service) {
  std::lock_guard lock(mutex_);
  Entry& e = entry_locked(service);
  lru_.splice(lru_.end(), lru_, e.lru_it);
  e.last_touch_ms = clock_->now_ms();
  auto sp = spilled_.find(service);
  if (sp != spilled_.end()) {
    spilled_.erase(sp);
    ++reloads_;
    if (obs::telemetry_enabled()) governor_metrics().reloads.inc();
  }
}

bool Governor::on_spilled(std::string_view service) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(service);
  if (it != entries_.end() && it->second.pins > 0) {
    // A lane pinned this partition after the store's try_claim_spill but
    // before this commit callback: the claim failed late. Keep the entry
    // (and its pin count) so the pin protocol holds; the store must undo
    // the spill before releasing its lock.
    return false;
  }
  erase_locked(service);
  spilled_[std::string(service)] = true;
  ++spills_;
  if (obs::telemetry_enabled()) governor_metrics().spills.inc();
  return true;
}

void Governor::on_deleted(std::string_view service) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(service);
  if (it != entries_.end() && it->second.pins > 0) {
    // The partition's rows went away (zero-row refresh, corrupt spill
    // file) while a lane holds a pin. Erasing the entry would destroy the
    // pin count: the lane's later unpin would hit a recreated entry at
    // pins=0, leaving the in-flight window spillable. Keep the entry; it
    // is uncharged (the ledger drop already happened) and gets cleaned up
    // once unpinned.
    spilled_.erase(std::string(service));
    return;
  }
  erase_locked(service);
  spilled_.erase(std::string(service));
}

void Governor::seed_spilled(std::string_view service) {
  std::lock_guard lock(mutex_);
  erase_locked(service);
  spilled_[std::string(service)] = true;
}

bool Governor::try_claim_spill(std::string_view service) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(service);
  return it != entries_.end() && it->second.pins == 0;
}

std::size_t Governor::enforce() {
  if (!enabled()) return 0;
  const std::size_t target_bytes = static_cast<std::size_t>(
      static_cast<double>(policy_.ceiling_bytes) * policy_.spill_watermark);

  std::size_t spilled_count = 0;
  bool blocked = false;
  {
    std::lock_guard lock(mutex_);
    ++enforce_calls_;
  }
  // Spill one candidate per iteration: pick the coldest eligible
  // partition under the governor lock, release it, then call the store
  // (which takes its own lock and calls back into on_spilled). Never
  // holding both locks at once keeps the lock order acyclic with lanes
  // that call touch/pin from inside store operations.
  //
  // Victims the store refuses (pinned at the final claim, buffered in an
  // open batch scope, zero rows) are remembered and skipped so selection
  // moves on to the next-coldest candidate — a single stuck entry at the
  // LRU front must not flip the governor overloaded while plenty of
  // spillable cold partitions sit behind it. blocked is only set once no
  // candidate in the whole LRU can be spilled.
  std::set<std::string, std::less<>> refused;
  while (spilled_count < policy_.spill_batch &&
         accountant_->resident_bytes() > target_bytes) {
    std::string victim;
    SpillTarget* target = nullptr;
    {
      std::lock_guard lock(mutex_);
      target = target_;
      if (target == nullptr) {
        blocked = true;
        break;
      }
      const std::int64_t now = clock_->now_ms();
      for (const std::string& service : lru_) {  // coldest first
        auto it = entries_.find(service);
        if (it->second.pins > 0) continue;
        if (refused.find(service) != refused.end()) continue;
        if (policy_.min_cold_ms > 0 &&
            now - it->second.last_touch_ms < policy_.min_cold_ms) {
          // The list is touch-ordered, so everything hotter is too warm
          // as well.
          break;
        }
        victim = service;
        break;
      }
      if (victim.empty()) {
        blocked = true;
        break;
      }
    }
    if (!target->spill_partition(victim)) {
      refused.insert(std::move(victim));
      continue;
    }
    ++spilled_count;
  }

  const bool over =
      accountant_->resident_bytes() > policy_.ceiling_bytes && blocked;
  overloaded_.store(over, std::memory_order_relaxed);
  if (spilled_count > 0 && obs::telemetry_enabled()) {
    obs::logev(obs::LogLevel::kDebug, "governor", "enforce",
               {{"spilled", spilled_count},
                {"resident", accountant_->resident_bytes()},
                {"overloaded", over}});
  }
  return spilled_count;
}

void Governor::note_shed() {
  {
    std::lock_guard lock(mutex_);
    ++sheds_;
  }
  if (obs::telemetry_enabled()) governor_metrics().sheds.inc();
}

Governor::Stats Governor::stats() const {
  Stats s;
  s.resident_bytes = accountant_->resident_bytes();
  s.peak_resident_bytes = accountant_->peak_resident_bytes();
  std::lock_guard lock(mutex_);
  s.ceiling_bytes = policy_.ceiling_bytes;
  s.resident_partitions = entries_.size();
  s.spilled_partitions = spilled_.size();
  for (const auto& [service, e] : entries_) {
    if (e.pins > 0) ++s.pinned_partitions;
  }
  s.spills = spills_;
  s.reloads = reloads_;
  s.sheds = sheds_;
  s.enforce_calls = enforce_calls_;
  return s;
}

std::string Governor::debug_json() const {
  const Stats s = stats();
  std::ostringstream out;
  out << "{\"ceiling_bytes\":" << s.ceiling_bytes
      << ",\"resident_bytes\":" << s.resident_bytes
      << ",\"peak_resident_bytes\":" << s.peak_resident_bytes
      << ",\"resident_partitions\":" << s.resident_partitions
      << ",\"spilled_partitions\":" << s.spilled_partitions
      << ",\"pinned_partitions\":" << s.pinned_partitions
      << ",\"spills\":" << s.spills << ",\"reloads\":" << s.reloads
      << ",\"sheds\":" << s.sheds << ",\"enforce_calls\":" << s.enforce_calls
      << ",\"overloaded\":" << (overloaded() ? "true" : "false") << "}";
  return out.str();
}

std::vector<std::string> Governor::lru_order() const {
  std::lock_guard lock(mutex_);
  return {lru_.begin(), lru_.end()};
}

}  // namespace seqrtg::core
