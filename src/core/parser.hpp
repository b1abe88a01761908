// The Sequence parser: matches scanned messages against known patterns.
//
// Paper §III: "Sequence has its own parser to match new messages against
// existing known patterns. It follows a similar process as while learning
// the messages, by first tokenising the messages, but instead of
// discovering patterns, it attempts to match new messages to a known
// pattern."
//
// Each service's patterns are compiled into a MatchProgram
// (core/matchprog.hpp): a per-token-count match trie, flattened, whose edges
// are either exact literal text or typed wildcards. Matching is a
// depth-first walk preferring literal edges over wildcards (most-specific
// wins); the caller gets the parsed fields (the "small amount of
// information ... extracted from the message" of §II). Patterns ending in
// the %rest% marker match any suffix (multi-line handling, extension #6).
//
// The Parser keeps each service's patterns in insertion order and compiles
// the program lazily: add_pattern invalidates it, and the next match of
// that service rebuilds it in one step from the pattern list.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/matchprog.hpp"
#include "core/pattern.hpp"
#include "core/scanner.hpp"
#include "core/special_tokens.hpp"
#include "core/token.hpp"
#include "util/interner.hpp"

namespace seqrtg::core {

struct ParseResult {
  /// The matched pattern (owned by the Parser; stable until clear()).
  const Pattern* pattern = nullptr;
  ParsedFields fields;
};

class Parser {
 public:
  explicit Parser(ScannerOptions scanner_opts = {},
                  SpecialTokenOptions special_opts = {});

  /// Adds `p` to its service's pattern set. Patterns are owned (copied, or
  /// moved in by the rvalue overload); returns the stored pattern (stable
  /// until clear()), which is the pointer a match of this pattern reports.
  const Pattern& add_pattern(const Pattern& p);
  const Pattern& add_pattern(Pattern&& p);

  /// Number of compiled patterns.
  std::size_t pattern_count() const { return owned_.size(); }

  /// Scans `message` and matches it against the patterns of `service`.
  /// Uses a thread-local scratch buffer; the convenience entry point for
  /// callers without their own.
  std::optional<ParseResult> parse(std::string_view service,
                                   std::string_view message) const;

  /// As above, but tokenising into the caller's reusable `scratch` buffer —
  /// the zero-allocation hot path for pipeline workers that parse many
  /// messages in a loop.
  std::optional<ParseResult> parse(std::string_view service,
                                   std::string_view message,
                                   TokenBuffer& scratch) const;

  /// Matches an already scanned-and-promoted token sequence into `out`,
  /// which is cleared and refilled; `out.fields` keeps its capacity, so a
  /// loop that reuses one result allocates no field vector per match.
  /// Returns false on no match (`out` is then unspecified).
  bool match_tokens(std::string_view service, const std::vector<Token>& tokens,
                    ParseResult& out) const;

  /// As above, into a fresh result; std::nullopt on no match.
  std::optional<ParseResult> match_tokens(std::string_view service,
                                          const std::vector<Token>& tokens) const;

  /// Scans and promotes exactly as the match path does (exposed so the
  /// analyser sees identical token sequences). Tokens view `message`.
  std::vector<Token> scan(std::string_view message) const;

  /// Buffer-reusing variant of scan(): tokenises and promotes into `out`.
  void scan_into(std::string_view message, TokenBuffer& out) const;

  void clear();

  /// Bumped on every pattern-set change (add_pattern / clear); compiled
  /// programs from an older epoch are invalid and lazily rebuilt.
  std::uint64_t pattern_epoch() const { return pattern_epoch_; }

 private:
  struct ServiceIndex {
    /// The service's patterns (owned by `owned_`) in insertion order, which
    /// is match precedence.
    std::vector<const Pattern*> patterns;
    /// The service's compiled program, published once compiled. nulled by
    /// add_pattern when the pattern set changes. The pointee is owned by
    /// `programs_` and never freed before the Parser dies, so a reader
    /// that loaded the pointer just before an invalidation finishes its
    /// match on the stale (but complete) program safely.
    mutable std::atomic<const MatchProgram*> program{nullptr};
  };

  /// match_tokens without the telemetry counters (the public entry point
  /// adds the match/miss accounting).
  bool match_tokens_impl(std::string_view service,
                         const std::vector<Token>& tokens,
                         ParseResult& out) const;

  /// Double-checked lazy compile: returns the service's program, compiling
  /// and publishing it under `compile_mutex_` when absent.
  const MatchProgram* compile_service(const ServiceIndex& svc) const;

  Scanner scanner_;
  SpecialTokenOptions special_opts_;
  std::deque<Pattern> owned_;
  // unordered_map is node-based: ServiceIndex (with its atomic member)
  // never moves once inserted, and rehashing keeps node addresses stable.
  std::unordered_map<std::string, ServiceIndex, util::StringHash,
                     std::equal_to<>>
      services_;
  std::uint64_t pattern_epoch_ = 0;
  // Held by pointer so the Parser stays movable (benchmarks return trained
  // parsers by value).
  std::unique_ptr<std::mutex> compile_mutex_;
  /// Every program ever compiled, live and retired; see ServiceIndex.
  mutable std::deque<std::unique_ptr<MatchProgram>> programs_;
};

}  // namespace seqrtg::core
