// Property test of PatternStore's partition ledger (DESIGN.md §17).
//
// The store keeps each service's resident byte total by deltas inside
// apply_upsert, apply_delete and erase_partition_locked, seeded by one
// pass over the rows when a snapshot replaces the database; the per-row
// recount (recount_partition_bytes) survives only as the audit reference.
// Seeded random operation sequences — new upserts, merges that widen
// variable types or hit the example cap, record_match, delete_pattern,
// batch scopes, spill and reload, checkpoints, cold reopens that replay
// the WAL, and a hot standby applying every shipped group through
// apply_replicated_group (with its own checkpoints and reopens) — must
// leave each node's accountant auditing clean against its recount after
// every operation. The audit must still bite: an injected misaccount skew
// and a raw-SQL writer that bypasses apply_* are both caught.
//
// Replay one failing sequence alone with
//   SEQRTG_FUZZ_SEED=<seed> ./ledger_property_test
#include "store/pattern_store.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/governor.hpp"
#include "util/rng.hpp"

namespace seqrtg::store {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("seqrtg_ledger_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

/// A durable store with its own accountant and governor, wired the way
/// serve wires one. The ceiling is out of reach, so residency changes
/// only when the test spills or reloads.
class Node {
 public:
  explicit Node(fs::path dir) : dir_(std::move(dir)) {}
  ~Node() { close(); }

  bool open() {
    close();
    accountant_ = std::make_unique<core::MemoryAccountant>();
    core::GovernorPolicy policy;
    policy.ceiling_bytes = std::size_t{1} << 40;
    governor_ = std::make_unique<core::Governor>(policy, accountant_.get());
    store_ = std::make_unique<PatternStore>();
    if (!store_->open(dir_.string())) return false;
    store_->attach_governor(governor_.get());
    return true;
  }

  void close() {
    if (store_ != nullptr) store_->attach_governor(nullptr);
    store_.reset();
    governor_.reset();
    accountant_.reset();
  }

  PatternStore& store() { return *store_; }
  core::MemoryAccountant& accountant() { return *accountant_; }

  /// Empty when the ledger balances, else the first discrepancy.
  std::string audit() {
    return accountant_->audit(store_->recount_partition_bytes())
        .value_or("");
  }

 private:
  fs::path dir_;
  std::unique_ptr<core::MemoryAccountant> accountant_;
  std::unique_ptr<core::Governor> governor_;
  std::unique_ptr<PatternStore> store_;
};

const std::vector<std::string> kServices = {"alpha", "beta", "gamma",
                                            "delta"};

/// Patterns from a small space of shapes, so re-upserts merge often. A
/// shape's variables keep their names while their types vary, which is
/// what makes a merge widen the stored token list.
core::Pattern random_pattern(util::Rng& rng) {
  static const std::vector<std::string> kWords = {
      "login", "session", "opened", "closed", "for", "user", "\"quoted\"",
      "caf\xc3\xa9"};
  static const std::vector<core::TokenType> kTypes = {
      core::TokenType::Integer, core::TokenType::IPv4, core::TokenType::Hex,
      core::TokenType::String};
  static const std::vector<std::string> kExamples = {
      "login 1", "login 2", "session 10.0.0.1 opened", "closed for 7",
      "user \"root\" a\\b", ""};
  core::Pattern p;
  p.service = rng.choice(kServices);
  const std::uint64_t shape = rng.next_below(12);
  util::Rng shape_rng(shape * 7919 + 1);
  const std::size_t n = 2 + shape_rng.next_below(7);
  for (std::size_t i = 0; i < n; ++i) {
    core::PatternToken t;
    t.is_space_before = i > 0;
    t.is_variable = shape_rng.chance(0.4);
    if (t.is_variable) {
      t.name = "v" + std::to_string(i);
      t.var_type = rng.choice(kTypes);
    } else {
      t.text = shape_rng.choice(kWords);
    }
    p.tokens.push_back(std::move(t));
  }
  p.stats.match_count = 1 + rng.next_below(5);
  p.stats.first_seen = static_cast<std::int64_t>(rng.next_below(1000));
  p.stats.last_matched = p.stats.first_seen + 10;
  const std::size_t examples = rng.next_below(4);
  for (std::size_t i = 0; i < examples; ++i) {
    p.examples.push_back(rng.choice(kExamples));
  }
  return p;
}

std::uint64_t round_seed(int round) {
  return util::kDefaultSeed ^
         (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(round + 1));
}

TEST(LedgerProperty, AuditBalancesAfterEveryOperation) {
  const char* replay = std::getenv("SEQRTG_FUZZ_SEED");
  const int rounds = replay != nullptr ? 1 : 24;
  std::size_t spills = 0;
  std::size_t widening_merges = 0;
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed =
        replay != nullptr ? std::strtoull(replay, nullptr, 0)
                          : round_seed(round);
    SCOPED_TRACE("repro: SEQRTG_FUZZ_SEED=" + std::to_string(seed) +
                 " ./ledger_property_test");
    util::Rng rng(seed);
    TempDir primary_dir("primary");
    TempDir standby_dir("standby");
    // The standby outlives the primary, whose commit sink refers to it.
    Node standby(standby_dir.path);
    Node primary(primary_dir.path);
    ASSERT_TRUE(standby.open());
    const auto ship = [&standby](std::uint64_t seq, std::string_view ops) {
      EXPECT_TRUE(standby.store().apply_replicated_group(seq, ops));
    };
    ASSERT_TRUE(primary.open());
    primary.store().set_commit_sink(ship);

    std::vector<std::string> ids;
    for (int step = 0; step < 80; ++step) {
      const std::uint64_t op = rng.next_below(100);
      std::string what;
      if (op < 35) {
        const core::Pattern p = random_pattern(rng);
        const auto before = primary.store().find(p.id());
        what = "upsert " + p.id();
        primary.store().upsert_pattern(p);
        ids.push_back(p.id());
        const auto after = primary.store().find(p.id());
        if (before.has_value() && after.has_value() &&
            before->tokens != after->tokens) {
          ++widening_merges;
        }
      } else if (op < 50 && !ids.empty()) {
        what = "record_match";
        primary.store().record_match(rng.choice(ids), 1 + rng.next_below(3),
                                     2000);
      } else if (op < 58 && !ids.empty()) {
        what = "delete";
        primary.store().delete_pattern(rng.choice(ids));
      } else if (op < 68) {
        const std::string& service = rng.choice(kServices);
        what = "spill " + service;
        if (primary.store().spill_partition(service)) ++spills;
      } else if (op < 76) {
        const std::string& service = rng.choice(kServices);
        what = "load_service " + service;
        primary.store().load_service(service);
      } else if (op < 82) {
        what = "batch";
        primary.store().begin_batch();
        const std::size_t n = 1 + rng.next_below(4);
        for (std::size_t i = 0; i < n; ++i) {
          const core::Pattern p = random_pattern(rng);
          primary.store().upsert_pattern(p);
          ids.push_back(p.id());
          primary.store().record_match(rng.choice(ids), 1, 3000);
        }
        primary.store().commit_batch();
      } else if (op < 87) {
        what = "checkpoint";
        primary.store().checkpoint();
      } else if (op < 92) {
        what = "reopen primary";
        ASSERT_TRUE(primary.open());
        primary.store().set_commit_sink(ship);
      } else if (op < 96) {
        what = "checkpoint standby";
        standby.store().checkpoint();
      } else {
        what = "reopen standby";
        ASSERT_TRUE(standby.open());
      }
      SCOPED_TRACE("step " + std::to_string(step) + ": " + what);
      ASSERT_EQ(primary.audit(), "") << "primary ledger drifted";
      ASSERT_EQ(standby.audit(), "") << "standby ledger drifted";
    }
    EXPECT_EQ(primary.store().recount_partition_bytes(),
              standby.store().recount_partition_bytes())
        << "the standby mirrors the primary's rows and residency";
    primary.store().set_commit_sink(nullptr);
  }
  if (replay == nullptr) {
    // Vacuity guard: the sequences really spilled and widened.
    EXPECT_GT(spills, 20u);
    EXPECT_GT(widening_merges, 10u);
  }
}

TEST(LedgerProperty, MisaccountSkewIsCaught) {
  TempDir dir("misaccount");
  Node node(dir.path);
  ASSERT_TRUE(node.open());
  std::uint64_t events = 0;
  node.accountant().set_fault_hook([&](std::uint64_t index) {
    events = index + 1;
    return index == 5;
  });
  util::Rng rng(util::kDefaultSeed);
  for (int i = 0; i < 20; ++i) node.store().upsert_pattern(random_pattern(rng));
  ASSERT_GT(events, 5u) << "the skew event must be reached";
  EXPECT_NE(node.audit(), "") << "the audit missed a sticky ledger skew";
  node.accountant().set_fault_hook(nullptr);
}

TEST(LedgerProperty, WriterBypassingApplyIsCaught) {
  // The ledger trusts every write to go through apply_*; a raw SQL
  // writer (what `seqrtg purge` was) leaves it stale, and the audit
  // says so.
  TempDir dir("bypass");
  Node node(dir.path);
  ASSERT_TRUE(node.open());
  util::Rng rng(util::kDefaultSeed);
  core::Pattern p = random_pattern(rng);
  p.examples = {"one example"};
  node.store().upsert_pattern(p);
  ASSERT_EQ(node.audit(), "");
  node.store().database().exec("DELETE FROM examples WHERE pid = ?",
                               {Value(p.id())});
  node.store().load_service(p.service);  // reports the stale entry
  EXPECT_NE(node.audit(), "");
}

}  // namespace
}  // namespace seqrtg::store
