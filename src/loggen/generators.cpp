// Placeholder expansion engine for the synthetic corpora (see corpus.hpp
// for the placeholder language).
#include <array>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "loggen/corpus.hpp"
#include "util/strings.hpp"

namespace seqrtg::loggen {

namespace {

constexpr std::array<const char*, 12> kMonths = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
constexpr std::array<const char*, 7> kDays = {"Thu", "Fri", "Sat", "Sun",
                                              "Mon", "Tue", "Wed"};

/// Civil date from unix seconds (Howard Hinnant's algorithm, UTC).
struct Civil {
  int year;
  unsigned month;  // 1..12
  unsigned day;    // 1..31
  unsigned hour;
  unsigned minute;
  unsigned second;
  unsigned weekday;  // 0 = Thu (1970-01-01)
};

Civil civil_from_unix(std::int64_t t) {
  const std::int64_t days = (t >= 0 ? t : t - 86399) / 86400;
  std::int64_t secs = t - days * 86400;
  Civil c{};
  c.weekday = static_cast<unsigned>(((days % 7) + 7) % 7);
  c.hour = static_cast<unsigned>(secs / 3600);
  c.minute = static_cast<unsigned>((secs % 3600) / 60);
  c.second = static_cast<unsigned>(secs % 60);
  std::int64_t z = days + 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp < 10 ? mp + 3 : mp - 9;
  c.year = static_cast<int>(y + (m <= 2));
  c.month = m;
  c.day = d;
  return c;
}

std::string fmt(const char* layout, ...) {
  char buf[128];
  va_list args;
  va_start(args, layout);
  std::vsnprintf(buf, sizeof(buf), layout, args);
  va_end(args);
  return buf;
}

const std::vector<std::string>& word_pool() {
  static const std::vector<std::string> kWords = {
      "alpha",   "bravo",   "charlie", "delta",   "echo",    "foxtrot",
      "golf",    "hotel",   "india",   "juliet",  "kilo",    "lima",
      "mike",    "november", "oscar",  "papa",    "quebec",  "romeo",
      "sierra",  "tango",   "uniform", "victor",  "whiskey", "xray",
      "yankee",  "zulu",    "worker",  "daemon",  "session", "client"};
  return kWords;
}

const std::vector<std::string>& path_pool() {
  static const std::vector<std::string> kPaths = {
      "/var/log/messages",       "/etc/ssh/sshd_config",
      "/usr/lib/systemd/system", "/opt/app/releases/current",
      "/home/users/data/cache",  "/tmp/scratch/job/output",
      "/srv/storage/pool/vol",   "/proc/sys/net/ipv4",
      "/data/hadoop/dfs/name",   "/var/spool/mail/root"};
  return kPaths;
}

std::string gen_ip(util::Rng& rng) {
  return fmt("%d.%d.%d.%d", static_cast<int>(rng.uniform(10, 250)),
             static_cast<int>(rng.uniform(0, 255)),
             static_cast<int>(rng.uniform(0, 255)),
             static_cast<int>(rng.uniform(1, 254)));
}

std::string gen_ipv6(util::Rng& rng) {
  return fmt("fe80::%s:%s:%s:%s", rng.hex_string(4).c_str(),
             rng.hex_string(4).c_str(), rng.hex_string(4).c_str(),
             rng.hex_string(4).c_str());
}

std::string gen_mac(util::Rng& rng) {
  std::string out;
  for (int i = 0; i < 6; ++i) {
    if (i > 0) out += ':';
    out += rng.hex_string(2);
  }
  return out;
}

std::string gen_uuid(util::Rng& rng) {
  return rng.hex_string(8) + "-" + rng.hex_string(4) + "-" +
         rng.hex_string(4) + "-" + rng.hex_string(4) + "-" +
         rng.hex_string(12);
}

/// Parses "kind:arg" and dispatches to a generator. Returns the raw value.
std::string generate_value(std::string_view kind_and_arg, GenContext& ctx) {
  util::Rng& rng = ctx.rng;
  std::string_view kind = kind_and_arg;
  std::string_view arg;
  if (const std::size_t colon = kind_and_arg.find(':');
      colon != std::string_view::npos) {
    kind = kind_and_arg.substr(0, colon);
    arg = kind_and_arg.substr(colon + 1);
  }
  const auto arg_int = [&](std::int64_t fallback) {
    if (arg.empty()) return fallback;
    return static_cast<std::int64_t>(
        std::strtoll(std::string(arg).c_str(), nullptr, 10));
  };

  if (kind == "int") {
    if (!arg.empty() && arg.find('-') != std::string_view::npos) {
      const auto parts = util::split(arg, '-');
      const std::int64_t lo =
          std::strtoll(std::string(parts[0]).c_str(), nullptr, 10);
      const std::int64_t hi =
          std::strtoll(std::string(parts[1]).c_str(), nullptr, 10);
      return std::to_string(rng.uniform(lo, hi));
    }
    return std::to_string(rng.uniform(0, 99999));
  }
  if (kind == "float") {
    return fmt("%.2f", static_cast<double>(rng.uniform(0, 999999)) / 100.0);
  }
  if (kind == "hex") {
    return rng.hex_string(static_cast<std::size_t>(arg_int(8)));
  }
  if (kind == "ip") return gen_ip(rng);
  if (kind == "ipv6") return gen_ipv6(rng);
  if (kind == "mac") return gen_mac(rng);
  if (kind == "port") return std::to_string(rng.uniform(1024, 65535));
  if (kind == "pid") return std::to_string(rng.uniform(100, 32768));
  if (kind == "word") {
    const auto cap = static_cast<std::size_t>(arg_int(
        static_cast<std::int64_t>(word_pool().size())));
    const std::size_t n =
        std::min(cap == 0 ? word_pool().size() : cap, word_pool().size());
    return word_pool()[static_cast<std::size_t>(rng.next_below(n))];
  }
  if (kind == "alnum") {
    // Mixed alphanumeric id; always starts with a letter and contains at
    // least one digit so it scans as a literal-with-digits.
    const auto len = static_cast<std::size_t>(arg_int(8));
    std::string s = rng.alnum_string(len > 2 ? len - 2 : 1);
    return std::string(1, static_cast<char>('a' + rng.next_below(26))) + s +
           std::to_string(rng.next_below(10));
  }
  if (kind == "path") {
    return rng.choice(path_pool()) + "/" + rng.alnum_string(6);
  }
  if (kind == "host") {
    return "node-" + std::to_string(rng.uniform(1, 480)) +
           ".cluster.example.org";
  }
  if (kind == "email") {
    return rng.choice(word_pool()) + std::to_string(rng.uniform(1, 99)) +
           "@example.org";
  }
  if (kind == "url") {
    return "https://svc.example.org/api/v1/" + rng.alnum_string(6);
  }
  if (kind == "user") {
    return rng.choice(word_pool()) + std::to_string(rng.uniform(0, 999));
  }
  if (kind == "dur") {
    // "{dur:colon}" pins the mm:ss form; "{dur:ms}" pins the "N.NN ms"
    // form; bare "{dur}" mixes both (Table I: Duration is a Text/Number
    // mix whose shapes vary within one field).
    const bool colon_form =
        arg == "colon" || (arg.empty() && rng.chance(0.5));
    if (arg != "ms" && colon_form) {
      return fmt("%02d:%02d", static_cast<int>(rng.uniform(0, 59)),
                 static_cast<int>(rng.uniform(0, 59)));
    }
    return fmt("%d.%02d ms", static_cast<int>(rng.uniform(0, 900)),
               static_cast<int>(rng.uniform(0, 99)));
  }
  if (kind == "blk") {
    const std::int64_t v = rng.uniform(1000000000, 9999999999LL);
    return std::string("blk_") + (rng.chance(0.5) ? "-" : "") +
           std::to_string(v);
  }
  if (kind == "uuid") return gen_uuid(rng);
  if (kind == "intstar") {
    // Proxifier quirk: "alphanumeric fields where it is common for the data
    // to be fully numeric in some cases" — sometimes "64", sometimes "64*".
    std::string v = std::to_string(rng.uniform(1, 9999));
    if (rng.chance(0.4)) v += "*";
    return v;
  }

  // Timestamp kinds share the synthetic clock.
  const Civil c = civil_from_unix(ctx.clock);
  if (kind == "ts_syslog") {
    return fmt("%s %2u %02u:%02u:%02u", kMonths[c.month - 1], c.day, c.hour,
               c.minute, c.second);
  }
  if (kind == "ts_iso") {
    return fmt("%04d-%02u-%02u %02u:%02u:%02u", c.year, c.month, c.day,
               c.hour, c.minute, c.second);
  }
  if (kind == "ts_iso_comma") {
    return fmt("%04d-%02u-%02u %02u:%02u:%02u,%03d", c.year, c.month, c.day,
               c.hour, c.minute, c.second,
               static_cast<int>(rng.uniform(0, 999)));
  }
  if (kind == "ts_windows") {
    return fmt("%04d-%02u-%02u %02u:%02u:%02u", c.year, c.month, c.day,
               c.hour, c.minute, c.second);
  }
  if (kind == "ts_spark") {
    return fmt("%02d/%02u/%02u %02u:%02u:%02u", c.year % 100, c.month, c.day,
               c.hour, c.minute, c.second);
  }
  if (kind == "ts_android") {
    return fmt("%02u-%02u %02u:%02u:%02u.%03d", c.month, c.day, c.hour,
               c.minute, c.second, static_cast<int>(rng.uniform(0, 999)));
  }
  if (kind == "ts_healthapp") {
    // Time parts deliberately lack leading zeros — the documented
    // limitation of the seminal datetime FSM (paper §IV).
    return fmt("%04d%02u%02u-%u:%u:%u:%d", c.year, c.month, c.day, c.hour,
               c.minute, c.second, static_cast<int>(rng.uniform(0, 999)));
  }
  if (kind == "ts_proxifier") {
    return fmt("%02u.%02u %02u:%02u:%02u", c.month, c.day, c.hour, c.minute,
               c.second);
  }
  if (kind == "ts_bgl") {
    return fmt("%04d-%02u-%02u-%02u.%02u.%02u.%06d", c.year, c.month, c.day,
               c.hour, c.minute, c.second,
               static_cast<int>(rng.uniform(0, 999999)));
  }
  if (kind == "ts_apache") {
    return fmt("%s %s %02u %02u:%02u:%02u %04d", kDays[c.weekday],
               kMonths[c.month - 1], c.day, c.hour, c.minute, c.second,
               c.year);
  }
  if (kind == "ts_epoch") return std::to_string(ctx.clock);

  // Unknown placeholder: emit it verbatim so template bugs are visible.
  return '{' + std::string(kind_and_arg) + '}';
}

}  // namespace

void expand_template(std::string_view tmpl, GenContext& ctx, std::string* raw,
                     std::string* pre) {
  std::size_t pos = 0;
  while (pos < tmpl.size()) {
    const std::size_t open = tmpl.find('{', pos);
    if (open == std::string_view::npos) {
      const auto tail = tmpl.substr(pos);
      if (raw != nullptr) raw->append(tail);
      if (pre != nullptr) pre->append(tail);
      break;
    }
    const std::size_t close = tmpl.find('}', open + 1);
    if (close == std::string_view::npos) {
      const auto tail = tmpl.substr(pos);
      if (raw != nullptr) raw->append(tail);
      if (pre != nullptr) pre->append(tail);
      break;
    }
    const auto literal = tmpl.substr(pos, open - pos);
    if (raw != nullptr) raw->append(literal);
    if (pre != nullptr) pre->append(literal);

    const std::string_view body = tmpl.substr(open + 1, close - open - 1);
    std::string_view kind = body;
    std::string_view arg;
    if (const std::size_t colon = body.find(':');
        colon != std::string_view::npos) {
      kind = body.substr(0, colon);
      arg = body.substr(colon + 1);
    }

    // Structural placeholders (ground truth treats all of these as one
    // event; they are what makes the hard datasets hard):
    if (kind == "oneof") {
      // Semi-constant value from a tiny closed set ("on|off").
      const auto choices = util::split(arg, '|');
      const auto pick = choices[static_cast<std::size_t>(
          ctx.rng.next_below(choices.size()))];
      if (raw != nullptr) raw->append(pick);
      if (pre != nullptr) pre->append("<*>");
      pos = close + 1;
      continue;
    }
    if (kind == "opt") {
      // Optional constant suffix/infix, present in ~half the messages —
      // the same event then has two token counts.
      if (ctx.rng.chance(0.5)) {
        if (raw != nullptr) raw->append(arg);
        if (pre != nullptr) pre->append(arg);
      }
      pos = close + 1;
      continue;
    }
    if (kind == "intlist") {
      // Variable-length list of integers ("3552 3534 3375"); the
      // pre-processed form gets one <*> per element, so token counts vary
      // in both variants.
      std::int64_t lo = 2;
      std::int64_t hi = 6;
      if (const std::size_t dash = arg.find('-');
          dash != std::string_view::npos) {
        lo = std::strtoll(std::string(arg.substr(0, dash)).c_str(), nullptr,
                          10);
        hi = std::strtoll(std::string(arg.substr(dash + 1)).c_str(), nullptr,
                          10);
      }
      const std::int64_t k = ctx.rng.uniform(lo, hi);
      for (std::int64_t i = 0; i < k; ++i) {
        if (i > 0) {
          if (raw != nullptr) raw->append(" ");
          if (pre != nullptr) pre->append(" ");
        }
        if (raw != nullptr) {
          raw->append(std::to_string(ctx.rng.uniform(1000, 9999)));
        }
        if (pre != nullptr) pre->append("<*>");
      }
      pos = close + 1;
      continue;
    }

    const std::string value = generate_value(body, ctx);
    if (raw != nullptr) raw->append(value);
    if (pre != nullptr) pre->append("<*>");
    pos = close + 1;
  }
}

}  // namespace seqrtg::loggen
