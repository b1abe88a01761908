// Resource governance unit + property tests (DESIGN.md §17):
//
//  - MemoryAccountant: ledger arithmetic, peak tracking, audit against an
//    authoritative recount, and the misaccount fault hook (the sticky
//    lost-decrement the governance oracle must catch).
//  - Governor LRU: model-based property test against a reference
//    std::list driven by the same touch/pin/spill/reload trajectory.
//  - enforce(): coldest-first victim selection, watermark hysteresis,
//    spill_batch bound, pin exemption, min_cold_ms TTL under ManualClock,
//    and the overload flip when nothing is spillable.
//  - A thread race stress (touch/pin/reload racing enforce-driven spills)
//    meant to run under TSan via scripts/sanitize.sh.
#include "core/governor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/clock.hpp"
#include "util/rng.hpp"

namespace seqrtg::core {
namespace {

TEST(MemoryAccountant, LedgerArithmeticAndPeak) {
  MemoryAccountant acc;
  EXPECT_EQ(acc.resident_bytes(), 0u);
  acc.set_partition_bytes("a", 100);
  acc.set_partition_bytes("b", 50);
  EXPECT_EQ(acc.resident_bytes(), 150u);
  EXPECT_EQ(acc.partition_count(), 2u);
  EXPECT_EQ(acc.partition_bytes("a"), 100u);
  acc.set_partition_bytes("a", 30);  // shrink in place
  EXPECT_EQ(acc.resident_bytes(), 80u);
  acc.drop_partition("b");
  EXPECT_EQ(acc.resident_bytes(), 30u);
  EXPECT_EQ(acc.partition_count(), 1u);
  acc.drop_partition("nope");  // unknown partition is a no-op
  EXPECT_EQ(acc.resident_bytes(), 30u);
  EXPECT_EQ(acc.peak_resident_bytes(), 150u) << "peak is a high-water mark";
  acc.reset_peak();
  EXPECT_EQ(acc.peak_resident_bytes(), 30u);
}

TEST(MemoryAccountant, CategoryGaugesAreIndependentOfPartitions) {
  MemoryAccountant acc;
  acc.set_category_bytes(MemCategory::kTrieArena, 111);
  acc.set_category_bytes(MemCategory::kInterner, 222);
  acc.set_category_bytes(MemCategory::kSketches, 333);
  EXPECT_EQ(acc.category_bytes(MemCategory::kTrieArena), 111u);
  EXPECT_EQ(acc.category_bytes(MemCategory::kInterner), 222u);
  EXPECT_EQ(acc.category_bytes(MemCategory::kSketches), 333u);
  EXPECT_EQ(acc.resident_bytes(), 0u)
      << "categories are observability gauges, not enforced bytes";
}

TEST(MemoryAccountant, AuditPassesWhenLedgerBalances) {
  MemoryAccountant acc;
  acc.set_partition_bytes("a", 10);
  acc.set_partition_bytes("b", 20);
  const std::map<std::string, std::size_t> actual = {{"a", 10}, {"b", 20}};
  EXPECT_FALSE(acc.audit(actual).has_value());
}

TEST(MemoryAccountant, AuditCatchesEveryDiscrepancyDirection) {
  MemoryAccountant acc;
  acc.set_partition_bytes("a", 10);

  // Ledger value differs from the recount.
  auto verdict = acc.audit({{"a", 11}});
  ASSERT_TRUE(verdict.has_value());
  EXPECT_NE(verdict->find("a"), std::string::npos);

  // A resident partition the ledger never tracked.
  verdict = acc.audit({{"a", 10}, {"ghost", 5}});
  ASSERT_TRUE(verdict.has_value());
  EXPECT_NE(verdict->find("untracked"), std::string::npos);

  // The ledger charges a partition that is no longer resident.
  verdict = acc.audit({});
  ASSERT_TRUE(verdict.has_value());
  EXPECT_NE(verdict->find("non-resident"), std::string::npos);
}

TEST(MemoryAccountant, FaultHookSkewsAtExactEventIndexAndSticks) {
  MemoryAccountant acc;
  // Events are counted across set/drop alike; fire at event #2.
  acc.set_fault_hook(
      [](std::uint64_t event_index) { return event_index == 2; });
  acc.set_partition_bytes("a", 10);  // event 0
  acc.set_partition_bytes("b", 10);  // event 1
  EXPECT_EQ(acc.resident_bytes(), 20u) << "no skew before the index";
  acc.drop_partition("a");  // event 2 — the fault fires here
  EXPECT_EQ(acc.resident_bytes(),
            10u + MemoryAccountant::kFaultSkewBytes);
  acc.drop_partition("b");  // event 3 — skew is sticky, not repeated
  EXPECT_EQ(acc.resident_bytes(), MemoryAccountant::kFaultSkewBytes);

  // The skew is exactly what the audit exists to catch: per-partition
  // figures all balance, only the total betrays the lost decrement.
  const auto verdict = acc.audit({});
  ASSERT_TRUE(verdict.has_value());
  EXPECT_NE(verdict->find("total"), std::string::npos);
}

/// SpillTarget double of the store: honours try_claim_spill, drops the
/// ledger entry and confirms via on_spilled — the exact protocol
/// PatternStore::spill_partition follows.
struct FakeStore : SpillTarget {
  Governor* governor = nullptr;
  MemoryAccountant* accountant = nullptr;
  std::mutex mutex;
  std::vector<std::string> spilled;
  bool fail = false;
  std::set<std::string> refuse;  // per-service refusals (batch scope, …)
  bool spill_partition(const std::string& service) override {
    std::lock_guard lock(mutex);
    if (fail) return false;
    if (refuse.find(service) != refuse.end()) return false;
    if (!governor->try_claim_spill(service)) return false;
    const std::size_t bytes = accountant->partition_bytes(service);
    accountant->drop_partition(service);
    if (!governor->on_spilled(service)) {
      // Pin landed mid-spill: undo, exactly like the real store reloads.
      accountant->set_partition_bytes(service, bytes);
      governor->on_resident(service);
      return false;
    }
    spilled.push_back(service);
    return true;
  }
};

struct Harness {
  explicit Harness(GovernorPolicy policy)
      : governor(policy, &accountant) {
    store.governor = &governor;
    store.accountant = &accountant;
    governor.attach_target(&store);
  }
  MemoryAccountant accountant;
  Governor governor;
  FakeStore store;

  void add(const std::string& service, std::size_t bytes) {
    accountant.set_partition_bytes(service, bytes);
    governor.touch(service);
  }
};

TEST(Governor, EnforceSpillsColdestFirstDownToWatermark) {
  GovernorPolicy policy;
  policy.ceiling_bytes = 250;
  policy.spill_watermark = 0.8;  // target = 200
  Harness h(policy);
  h.add("cold", 100);
  h.add("warm", 100);
  h.add("hot", 100);

  const std::size_t spilled = h.governor.enforce();
  // 300 -> spill "cold" -> 200 == target, stop.
  EXPECT_EQ(spilled, 1u);
  ASSERT_EQ(h.store.spilled.size(), 1u);
  EXPECT_EQ(h.store.spilled[0], "cold");
  EXPECT_EQ(h.accountant.resident_bytes(), 200u);
  EXPECT_FALSE(h.governor.overloaded());
  EXPECT_EQ(h.governor.stats().spills, 1u);
}

TEST(Governor, EnforceRespectsSpillBatchBound) {
  GovernorPolicy policy;
  policy.ceiling_bytes = 10;
  policy.spill_batch = 2;
  Harness h(policy);
  for (int i = 0; i < 6; ++i) {
    h.add('s' + std::to_string(i), 100);
  }
  EXPECT_EQ(h.governor.enforce(), 2u)
      << "one safe point spills at most spill_batch partitions";
  EXPECT_EQ(h.governor.enforce(), 2u);
  EXPECT_EQ(h.governor.enforce(), 2u);
  EXPECT_EQ(h.accountant.resident_bytes(), 0u);
}

TEST(Governor, PinnedPartitionsAreExemptAndUnpinMakesEligible) {
  GovernorPolicy policy;
  policy.ceiling_bytes = 50;
  Harness h(policy);
  h.add("a", 100);
  h.governor.pin("a");
  EXPECT_EQ(h.governor.enforce(), 0u);
  EXPECT_TRUE(h.governor.overloaded())
      << "resident above ceiling with nothing spillable = overload";
  EXPECT_FALSE(h.governor.try_claim_spill("a"));

  h.governor.unpin("a");
  EXPECT_TRUE(h.governor.try_claim_spill("a"));
  EXPECT_EQ(h.governor.enforce(), 1u);
  EXPECT_FALSE(h.governor.overloaded());
}

TEST(Governor, MinColdTtlHonouredOnManualClock) {
  util::ManualClock clock;
  GovernorPolicy policy;
  policy.ceiling_bytes = 10;
  policy.min_cold_ms = 1000;
  policy.clock = &clock;
  Harness h(policy);
  h.add("fresh", 100);
  EXPECT_EQ(h.governor.enforce(), 0u)
      << "a partition touched under min_cold_ms ago is too warm to spill";
  EXPECT_TRUE(h.governor.overloaded());
  clock.advance_ms(1000);
  EXPECT_EQ(h.governor.enforce(), 1u);
  EXPECT_FALSE(h.governor.overloaded());
}

TEST(Governor, DisabledPolicyNeverSpillsOrOverloads) {
  GovernorPolicy policy;  // ceiling 0 = disabled
  Harness h(policy);
  h.add("a", 1 << 20);
  EXPECT_FALSE(h.governor.enabled());
  EXPECT_EQ(h.governor.enforce(), 0u);
  EXPECT_FALSE(h.governor.overloaded());
  EXPECT_TRUE(h.store.spilled.empty());
}

TEST(Governor, NoTargetOrFailingTargetFlipsOverload) {
  GovernorPolicy policy;
  policy.ceiling_bytes = 10;
  MemoryAccountant accountant;
  Governor governor(policy, &accountant);  // no target attached
  accountant.set_partition_bytes("a", 100);
  governor.touch("a");
  EXPECT_EQ(governor.enforce(), 0u);
  EXPECT_TRUE(governor.overloaded());

  FakeStore store;
  store.governor = &governor;
  store.accountant = &accountant;
  store.fail = true;  // a store that refuses (not durable, say)
  governor.attach_target(&store);
  EXPECT_EQ(governor.enforce(), 0u);
  EXPECT_TRUE(governor.overloaded());

  store.fail = false;
  EXPECT_EQ(governor.enforce(), 1u);
  EXPECT_FALSE(governor.overloaded());
}

TEST(Governor, NoteShedCountsExactly) {
  GovernorPolicy policy;
  policy.ceiling_bytes = 1;
  Harness h(policy);
  h.governor.note_shed();
  h.governor.note_shed();
  EXPECT_EQ(h.governor.stats().sheds, 2u);
}

TEST(Governor, OnSpilledRefusesWhenPinArrivedMidSpill) {
  GovernorPolicy policy;
  policy.ceiling_bytes = 1;
  Harness h(policy);
  h.add("a", 100);
  // The window: try_claim_spill succeeded, then a lane pinned "a" before
  // the store's commit callback. The commit must fail and leave the pin
  // (and the LRU entry) intact — erasing it would let a concurrent
  // enforce() spill the partition out from under the lane's stats window.
  ASSERT_TRUE(h.governor.try_claim_spill("a"));
  h.governor.pin("a");
  EXPECT_FALSE(h.governor.on_spilled("a"));
  EXPECT_EQ(h.governor.stats().spills, 0u);
  EXPECT_EQ(h.governor.stats().pinned_partitions, 1u);
  EXPECT_EQ(h.governor.lru_order(), (std::vector<std::string>{"a"}));
  EXPECT_FALSE(h.governor.try_claim_spill("a"));

  h.governor.unpin("a");
  EXPECT_TRUE(h.governor.on_spilled("a"));
  EXPECT_EQ(h.governor.stats().spills, 1u);
  EXPECT_TRUE(h.governor.lru_order().empty());
}

TEST(Governor, OnDeletedPreservesActivePins) {
  GovernorPolicy policy;
  policy.ceiling_bytes = 1;
  Harness h(policy);
  h.add("a", 100);
  h.governor.pin("a");
  // Zero-row refresh / corrupt spill file: the rows are gone but the
  // lane's pin must survive so its later unpin balances instead of
  // hitting a recreated entry at pins=0.
  h.governor.on_deleted("a");
  EXPECT_EQ(h.governor.lru_order(), (std::vector<std::string>{"a"}));
  EXPECT_FALSE(h.governor.try_claim_spill("a")) << "still pinned";
  h.governor.unpin("a");
  EXPECT_TRUE(h.governor.try_claim_spill("a"));
  h.governor.on_deleted("a");
  EXPECT_TRUE(h.governor.lru_order().empty());
}

TEST(Governor, EnforceSkipsRefusedVictimsAndSpillsNextColdest) {
  GovernorPolicy policy;
  policy.ceiling_bytes = 250;
  policy.spill_watermark = 0.8;  // target = 200
  Harness h(policy);
  h.add("stuck", 100);  // coldest, but the store refuses it (batch scope)
  h.add("warm", 100);
  h.add("hot", 100);
  h.store.refuse.insert("stuck");

  // 300 -> "stuck" refused -> spill "warm" -> 200 == target, stop. The
  // refused victim at the LRU front must not block the colder-to-hotter
  // scan or flip the governor overloaded.
  EXPECT_EQ(h.governor.enforce(), 1u);
  EXPECT_EQ(h.store.spilled, (std::vector<std::string>{"warm"}));
  EXPECT_FALSE(h.governor.overloaded());

  // When every candidate refuses, enforce() is genuinely blocked.
  h.store.refuse.insert("hot");
  h.accountant.set_partition_bytes("hot", 200);  // back above the ceiling
  EXPECT_EQ(h.governor.enforce(), 0u);
  EXPECT_TRUE(h.governor.overloaded());
}

// ---------------------------------------------------------------------------
// Model-based LRU property test: the governor's eviction order must match
// a reference std::list driven by the same trajectory. The model: every
// touch/pin/reload moves the service to the hot end (creating it when
// absent), spill/delete removes it, unpin never reorders.

struct LruModel {
  std::list<std::string> order;  // front = coldest
  std::map<std::string, std::uint32_t> pins;

  void to_hot(const std::string& s) {
    order.remove(s);
    order.push_back(s);
  }
  void remove(const std::string& s) {
    order.remove(s);
    pins.erase(s);
  }
  std::vector<std::string> snapshot() const {
    return {order.begin(), order.end()};
  }
};

TEST(GovernorProperty, LruOrderMatchesReferenceModelUnderRandomTrajectory) {
  MemoryAccountant accountant;
  GovernorPolicy policy;
  policy.ceiling_bytes = 1;  // enabled, but enforce() is never called here
  Governor governor(policy, &accountant);
  LruModel model;

  const std::vector<std::string> services = {"s0", "s1", "s2", "s3",
                                             "s4", "s5", "s6", "s7"};
  util::Rng rng(util::kDefaultSeed ^ 0x90BE41ULL);
  for (int step = 0; step < 4000; ++step) {
    const std::string& s = services[rng.next_below(services.size())];
    switch (rng.next_below(6)) {
      case 0:
        governor.touch(s);
        model.to_hot(s);
        break;
      case 1:
        governor.pin(s);
        model.to_hot(s);
        ++model.pins[s];
        break;
      case 2:
        governor.unpin(s);
        if (model.pins[s] > 0) --model.pins[s];
        break;
      case 3:  // reload (also exercises reload-during-spill bookkeeping)
        governor.on_resident(s);
        model.to_hot(s);
        break;
      case 4:
        // A spill commit against a pinned entry is refused (the pin
        // arrived mid-spill); position and pin count are untouched.
        if (model.pins[s] > 0) {
          EXPECT_FALSE(governor.on_spilled(s));
        } else {
          EXPECT_TRUE(governor.on_spilled(s));
          model.remove(s);
        }
        break;
      default:
        // Deleting a pinned partition's rows preserves the entry (and
        // its pins) so the lane's later unpin balances.
        if (model.pins[s] == 0) {
          model.remove(s);
        }
        governor.on_deleted(s);
        break;
    }
    ASSERT_EQ(governor.lru_order(), model.snapshot())
        << "diverged at step " << step << " after op on " << s;
  }
}

TEST(GovernorProperty, SpillVictimIsAlwaysTheColdestUnpinned) {
  util::Rng rng(util::kDefaultSeed ^ 0x5917CULL);
  for (int round = 0; round < 50; ++round) {
    GovernorPolicy policy;
    policy.ceiling_bytes = 1;
    policy.spill_batch = 1;
    Harness h(policy);
    LruModel model;
    const std::size_t n = 3 + rng.next_below(6);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string s = "svc" + std::to_string(i);
      h.add(s, 64);
      model.to_hot(s);
    }
    // Random warm-ups and pins.
    for (int k = 0; k < 20; ++k) {
      const std::string s = "svc" + std::to_string(rng.next_below(n));
      if (rng.next_below(4) == 0) {
        h.governor.pin(s);
        model.to_hot(s);
        ++model.pins[s];
      } else {
        h.governor.touch(s);
        model.to_hot(s);
      }
    }
    std::string expected;
    for (const std::string& s : model.order) {
      if (model.pins[s] == 0) {
        expected = s;
        break;
      }
    }
    const std::size_t spilled = h.governor.enforce();
    if (expected.empty()) {
      EXPECT_EQ(spilled, 0u);
      EXPECT_TRUE(h.governor.overloaded());
    } else {
      ASSERT_GE(spilled, 1u);
      EXPECT_EQ(h.store.spilled.front(), expected)
          << "round " << round << ": victim must be the coldest unpinned";
    }
  }
}

// Race stress for TSan: lanes touch/pin/unpin/reload their services while
// another thread runs enforce-driven spills and a third re-loads spilled
// partitions (the double-touch / reload-during-spill interleavings). The
// assertions are structural; the sanitizer is the real oracle.
TEST(GovernorStress, ConcurrentTouchSpillReloadIsRaceFree) {
  GovernorPolicy policy;
  policy.ceiling_bytes = 256;
  policy.spill_batch = 4;
  Harness h(policy);
  const std::vector<std::string> services = {"a", "b", "c", "d", "e", "f"};
  for (const std::string& s : services) h.add(s, 128);

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&h, &services, t] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 2000; ++i) {
        const std::string& s = services[rng.next_below(services.size())];
        switch (rng.next_below(4)) {
          case 0:
            h.governor.pin(s);
            h.accountant.set_partition_bytes(s, 64 + rng.next_below(128));
            h.governor.unpin(s);
            break;
          case 1:
            h.governor.touch(s);
            break;
          case 2:  // reload: partition back in RAM with fresh bytes
            h.accountant.set_partition_bytes(s, 128);
            h.governor.on_resident(s);
            break;
          default:
            h.governor.enforce();
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const Governor::Stats stats = h.governor.stats();
  EXPECT_EQ(stats.resident_bytes, h.accountant.resident_bytes());
  EXPECT_EQ(stats.ceiling_bytes, 256u);
  // Every service is either in the LRU (resident) or in the spilled set.
  EXPECT_LE(stats.resident_partitions + stats.spilled_partitions,
            services.size() * 2)
      << "bookkeeping must not leak entries";
}

}  // namespace
}  // namespace seqrtg::core
