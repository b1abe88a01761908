#include "core/scanner.hpp"

#include <array>
#include <optional>

#include "core/fsm_general.hpp"
#include "core/fsm_hex.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/simd_classify.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace seqrtg::core {

namespace {

using util::byte_class;
using util::is_space;
using util::kByteAlpha;
using util::kByteBreakPunct;
using util::kByteDigit;
using util::kByteHexDigit;
using util::kByteLineBreak;
using util::kByteSpace;
using util::kByteTrailPunct;

struct ScannerMetrics {
  obs::Counter& messages;
  obs::Counter& tokens;
  obs::Counter& truncated;
  obs::Histogram& scan_seconds;
};

ScannerMetrics& scanner_metrics() {
  auto& reg = obs::default_registry();
  static ScannerMetrics m{
      reg.counter("seqrtg_scanner_messages_total",
                  "Messages tokenised by the scanner"),
      reg.counter("seqrtg_scanner_tokens_total",
                  "Tokens emitted by the scanner"),
      reg.counter("seqrtg_scanner_truncated_total",
                  "Scans truncated by a line break or the token cap"),
      reg.histogram("seqrtg_scanner_scan_seconds",
                    "Single-message scan latency, sampled 1 in 64")};
  return m;
}

/// Which classifier kernel served the scan (scalar / avx2). The level
/// is fixed per process outside tests, so this mostly confirms at a glance
/// that production hosts actually run the vector path.
obs::Counter& scans_by_path(util::SimdLevel level) {
  auto& reg = obs::default_registry();
  static std::array<obs::Counter*, 2> paths = [&reg] {
    std::array<obs::Counter*, 2> p{};
    for (std::uint8_t i = 0; i < 2; ++i) {
      p[i] = &reg.counter(
          "seqrtg_scanner_scans_by_path_total",
          "Scans served per SIMD dispatch path",
          {{"path", util::simd_level_name(static_cast<util::SimdLevel>(i))}});
    }
    return p;
  }();
  return *paths[static_cast<std::uint8_t>(level)];
}

/// Per-message latency is sampled so the hot path pays the two clock reads
/// only once every 64 scans.
constexpr std::uint64_t kScanSampleMask = 63;

}  // namespace

void Scanner::scan_into(std::string_view message, TokenBuffer& out) const {
  const bool telemetry = obs::telemetry_enabled();
  std::optional<util::Stopwatch> watch;
  if (telemetry) {
    thread_local std::uint64_t sample_tick = 0;
    if ((sample_tick++ & kScanSampleMask) == 0) watch.emplace();
  }
  obs::TraceSpan span(obs::TraceSpan::Sampled{}, obs::TraceCat::kScanner,
                      "scan");
  out.clear();

  // One vectorised pass classifies every byte into the boundary bitmap; the
  // token loop below never re-asks "is this a delimiter?" per character.
  const util::SimdLevel simd = util::simd_level();
  thread_local util::TokenBoundaryMap boundary;
  boundary.build(message, simd);

  std::size_t pos = 0;
  bool space_pending = false;
  std::string_view pending_key;  // set after '=', consumed by next value
  bool truncated = false;

  const auto push = [&](TokenType type, std::string_view value) {
    Token t;
    t.type = type;
    t.value = value;
    t.is_space_before = space_pending;
    space_pending = false;
    // key=value semantic naming: attach the key to the first non-quote
    // token following '='.
    if (!pending_key.empty() && type != TokenType::Literal) {
      t.key = pending_key;
      pending_key = {};
    } else if (!pending_key.empty() && type == TokenType::Literal &&
               t.value != "\"" && t.value != "'") {
      t.key = pending_key;
      pending_key = {};
    }
    out.push(t);
  };

  while (pos < message.size()) {
    const char c = message[pos];
    const std::uint8_t cls = byte_class(c);
    if (cls & kByteLineBreak) {
      // Multi-line message: process only the first line (extension #6).
      truncated = util::trim(message.substr(pos)).size() > 0;
      break;
    }
    if (cls & kByteSpace) {
      space_pending = true;
      ++pos;
      continue;
    }
    if (opts_.max_tokens != 0 && out.size() >= opts_.max_tokens) {
      truncated = true;
      break;
    }

    const std::string_view rest = message.substr(pos);

    if (cls & kByteBreakPunct) {
      // Pre-processed wildcard from the logparser benchmarks.
      if (c == '<' && opts_.detect_preprocessed_wildcard &&
          util::starts_with(rest, "<*>")) {
        push(TokenType::String, rest.substr(0, 3));
        pos += 3;
        continue;
      }
      // ':' is the one break character that can open a larger token: a
      // "::"-compressed IPv6 address ("::1", "::ffff:10.0.0.1"). The other
      // FSMs all require a hex digit / letter / digit first byte.
      if (c == ':') {
        if (const std::size_t len = match_ipv6(rest); len > 0) {
          push(TokenType::IPv6, rest.substr(0, len));
          pos += len;
          continue;
        }
      }
      const bool was_equals = (c == '=');
      // Record the key before push() clears context: the previous token
      // must be a literal word for "key=" naming to apply.
      std::string_view key;
      if (was_equals && opts_.split_key_value && !out.empty() &&
          out.back().type == TokenType::Literal &&
          util::has_alpha(out.back().value) &&
          out.back().value.find(' ') == std::string_view::npos) {
        key = out.back().value;
      }
      push(TokenType::Literal, rest.substr(0, 1));
      if (!key.empty()) pending_key = key;
      ++pos;
      continue;
    }

    // The first delimiter after this token start doubles as a structural
    // gate for the colon-shaped FSMs below and as the chunk end afterwards.
    // ':' is break punctuation, so an IPv6 address (first hex group of at
    // most 4 digits) and a URL (alpha-only scheme of at most 5 letters)
    // must both put a ':' at the first delimiter — tokens that do not are
    // rejected without running those automata.
    const std::size_t end = boundary.next_delim(pos + 1);
    const bool colon_delim = end < message.size() && message[end] == ':';

    // FSM order matters: hex-family first (colon-separated groups would
    // confuse the time FSM), then datetime, then the general shapes. Each
    // probe is gated on the first byte's class: a MAC or IPv6 address must
    // open with a hex digit, a timestamp with a digit or letter, a URL
    // scheme with a letter — anything else skips straight to chunking.
    if (cls & kByteHexDigit) {
      // match_mac self-gates in two compares (length, then text[2] must be
      // ':' or '-' — the '-' variant never reaches a delimiter), so only
      // the IPv6 automaton needs the colon gate.
      if (const std::size_t len = match_mac(rest); len > 0) {
        push(TokenType::Mac, rest.substr(0, len));
        pos += len;
        continue;
      }
      if (colon_delim && end - pos <= 4) {
        if (const std::size_t len = match_ipv6(rest); len > 0) {
          push(TokenType::IPv6, rest.substr(0, len));
          pos += len;
          continue;
        }
      }
    }
    if (cls & (kByteDigit | kByteAlpha)) {
      if (const std::size_t len = match_datetime(rest, opts_.datetime);
          len > 0) {
        push(TokenType::Time, rest.substr(0, len));
        pos += len;
        continue;
      }
    }
    // URLs span break punctuation (':', '/') and must be matched before
    // chunk extraction.
    if ((cls & kByteAlpha) && colon_delim && end - pos <= 5 &&
        end + 2 < message.size() && message[end + 1] == '/' &&
        message[end + 2] == '/') {
      if (const std::size_t len = match_url(rest); len > 0) {
        push(TokenType::Url, rest.substr(0, len));
        pos += len;
        continue;
      }
    }

    // General chunk: up to whitespace or breaking punctuation — the next
    // set bit in the boundary map. The chunk is classified as a whole —
    // prefix matches do not count, so a UUID never decays into a hex run
    // plus a literal tail (which would make token counts value-dependent
    // and split patterns).
    std::size_t chunk_end = end;
    // Peel trailing sentence punctuation (keep at least one character).
    while (chunk_end > pos + 1 &&
           (byte_class(message[chunk_end - 1]) & kByteTrailPunct)) {
      --chunk_end;
    }
    const std::string_view chunk = message.substr(pos, chunk_end - pos);
    // The digit bitmap (built in the same SIMD pass as the boundary map)
    // classifies the two common cases — a pure word and a pure number —
    // with masked word tests instead of a per-byte loop. Valid because ':'
    // is a break character, so a chunk can never contain a URL scheme
    // ("://"), and a bare hex run must mix digits with letters.
    if (!boundary.any_digit(pos, chunk_end)) {
      push(TokenType::Literal, chunk);
    } else if (boundary.all_digits(pos, chunk_end)) {
      push(TokenType::Integer, chunk);
    } else if (match_hex(chunk) == chunk.size()) {
      push(TokenType::Hex, chunk);
    } else {
      push(classify_general(chunk), chunk);
    }
    pos = chunk_end;
    while (pos < end) {
      if (opts_.max_tokens != 0 && out.size() >= opts_.max_tokens) {
        truncated = true;
        break;
      }
      push(TokenType::Literal, message.substr(pos, 1));
      ++pos;
    }
    if (truncated) break;
  }

  if (truncated) {
    Token t;
    t.type = TokenType::Rest;
    t.value = {};
    // The ignored remainder is always separated from the kept prefix (a
    // line break or inter-token whitespace), so the marker renders with a
    // space: "error trace follows %rest%".
    t.is_space_before = !out.empty();
    out.push(t);
  }
  if (span.active()) {
    span.set_args(static_cast<std::int64_t>(message.size()),
                  static_cast<std::int64_t>(out.size()));
  }
  if (telemetry) {
    ScannerMetrics& m = scanner_metrics();
    m.messages.inc();
    m.tokens.inc(out.size());
    if (truncated) m.truncated.inc();
    scans_by_path(simd).inc();
    if (watch) m.scan_seconds.observe(watch->seconds());
  }
}

std::vector<Token> Scanner::scan(std::string_view message) const {
  // The thread-local buffer keeps scan() allocation-stable: repeated calls
  // grow it to the high-water token count once, then only the returned
  // vector allocates. (A fresh per-call buffer used to re-grow past its
  // initial reserve on every >24-token message, which made the allocation
  // counters in bench_scanner drift with the benchmark's iteration count.)
  thread_local TokenBuffer buf;
  scan_into(message, buf);
  return buf.tokens();
}

}  // namespace seqrtg::core
