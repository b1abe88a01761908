#include "store/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "util/json.hpp"
#include "util/json_reader.hpp"
#include "util/strings.hpp"

namespace seqrtg::store {

namespace {

/// A column's name and the tag of its cells ('I', 'R' or 'T').
using ColumnDef = std::pair<std::string_view, char>;

constexpr ColumnDef kExampleColumns[] = {
    {"pid", 'T'}, {"seq", 'I'}, {"message", 'T'}};
constexpr ColumnDef kPatternColumns[] = {
    {"pid", 'T'},         {"service", 'T'},     {"ptext", 'T'},
    {"tokens", 'T'},      {"token_count", 'I'}, {"complexity", 'R'},
    {"match_count", 'I'}, {"first_seen", 'I'},  {"last_matched", 'I'}};

std::string_view type_word(char tag) {
  return tag == 'I' ? "INTEGER" : tag == 'R' ? "REAL" : "TEXT";
}

// --- writer -----------------------------------------------------------------

template <std::size_t N>
void write_header(std::ofstream& out, std::string_view name, int key,
                  const ColumnDef (&columns)[N]) {
  out << "table " << name << ' ' << N << ' ' << key << '\n';
  for (const auto& [column, tag] : columns) {
    out << "col " << column << ' ' << type_word(tag) << '\n';
  }
}

void put_text(std::string& line, std::string_view text) {
  line += "\tT";
  line += util::json_escape(text);
}

void put_integer(std::string& line, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "\tI%lld", static_cast<long long>(v));
  line += buf;
}

void put_real(std::string& line, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\tR%.17g", v);
  line += buf;
}

// --- reader -----------------------------------------------------------------

/// One decoded cell of the row being read.
struct Cell {
  char tag = 'N';
  std::int64_t integer = 0;
  double real = 0.0;
  std::string text;
};

/// An example row waiting for its pattern row (examples sort first).
struct PendingExample {
  std::string pid;
  std::int64_t seq = 0;
  std::string message;
};

template <std::size_t N>
bool is_schema(const std::vector<std::pair<std::string, char>>& columns,
               int key, int want_key, const ColumnDef (&want)[N]) {
  return key == want_key &&
         std::equal(columns.begin(), columns.end(), std::begin(want),
                    std::end(want), [](const auto& have, const ColumnDef& w) {
                      return have.first == w.first && have.second == w.second;
                    });
}

template <std::size_t N>
bool cells_typed(const std::vector<Cell>& cells, const ColumnDef (&want)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    if (cells[i].tag != want[i].second) return false;
  }
  return true;
}

/// The `seqrtgdb 1` reader: checks every table the way the format says and
/// keeps the rows of the store's two.
class Loader {
 public:
  /// Consumes one line after the header; false when the file is invalid.
  bool line(std::string_view text) {
    if (text.empty()) return true;
    if (util::starts_with(text, "table ")) return table_line(text);
    if (util::starts_with(text, "col ")) return col_line(text);
    if (util::starts_with(text, "row")) return row_line(text);
    if (text != "end") return false;
    if (!started_ && !name_.empty()) start_table();  // a table with no rows
    started_ = false;
    name_.clear();
    header_.clear();
    return true;
  }

  std::optional<PatternRows> finish() {
    if (!patterns_read_ || !examples_read_) return std::nullopt;
    // Each pattern's examples in seq order, ties in file order; an example
    // whose pid has no pattern row is dropped.
    std::vector<std::size_t> order(examples_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                     std::size_t b) {
      return examples_[a].seq < examples_[b].seq;
    });
    for (const std::size_t i : order) {
      const auto it = patterns_.find(examples_[i].pid);
      if (it == patterns_.end()) continue;
      it->second.examples.push_back({std::move(examples_[i].message), i});
    }
    return std::move(patterns_);
  }

 private:
  enum class Mode : std::uint8_t { kPatterns, kExamples, kChecked };

  bool table_line(std::string_view line) {
    const auto parts = util::split_whitespace(line);
    if (parts.size() != 4) return false;
    name_ = std::string(parts[1]);
    started_ = false;
    header_.clear();
    key_ = static_cast<int>(
        std::strtol(std::string(parts[3]).c_str(), nullptr, 10));
    return true;
  }

  bool col_line(std::string_view line) {
    const auto parts = util::split_whitespace(line);
    if (parts.size() != 3) return false;
    const char tag =
        parts[2] == "INTEGER" ? 'I' : parts[2] == "REAL" ? 'R' : 'T';
    header_.emplace_back(std::string(parts[1]), tag);
    return true;
  }

  /// The table being read takes effect: at its first row, or at its end
  /// line when it has none. Later col lines do not change it.
  void start_table() {
    started_ = true;
    columns_ = header_.size();
    table_key_ = key_;
    keys_.clear();
    mode_ = Mode::kChecked;
    if (name_ == "patterns") {
      patterns_.clear();
      patterns_read_ = is_schema(header_, key_, 0, kPatternColumns);
      if (patterns_read_) mode_ = Mode::kPatterns;
    } else if (name_ == "examples") {
      examples_.clear();
      examples_read_ = is_schema(header_, key_, -1, kExampleColumns);
      if (examples_read_) mode_ = Mode::kExamples;
    }
  }

  bool row_line(std::string_view line) {
    if (name_.empty()) return false;
    if (!started_) start_table();
    // A key past the last column cannot index any row.
    if (table_key_ >= static_cast<int>(columns_)) return false;
    std::size_t n = 0;
    for (std::size_t at = line.find('\t'); at != std::string_view::npos;) {
      const std::size_t next = line.find('\t', at + 1);
      if (n == cells_.size()) cells_.emplace_back();
      if (!decode(line.substr(at + 1, next - at - 1), cells_[n++])) {
        return false;
      }
      at = next;
    }
    if (n != columns_) return false;
    if (mode_ == Mode::kPatterns && cells_typed(cells_, kPatternColumns)) {
      return add_pattern();
    }
    if (mode_ == Mode::kExamples && cells_typed(cells_, kExampleColumns)) {
      examples_.push_back({std::move(cells_[0].text), cells_[1].integer,
                           std::move(cells_[2].text)});
      return true;
    }
    if (mode_ != Mode::kChecked) make_unreadable();
    if (table_key_ < 0) return true;
    return keys_.insert(key_of(cells_[static_cast<std::size_t>(table_key_)]))
        .second;
  }

  bool add_pattern() {
    const std::size_t stamp = patterns_.size();
    const auto [it, inserted] = patterns_.try_emplace(std::move(cells_[0].text));
    if (!inserted) return false;  // duplicate key
    PatternRow& row = it->second;
    row.service = std::move(cells_[1].text);
    row.ptext = std::move(cells_[2].text);
    row.tokens = std::move(cells_[3].text);
    row.token_count = cells_[4].integer;
    row.complexity = cells_[5].real;
    row.match_count = cells_[6].integer;
    row.first_seen = cells_[7].integer;
    row.last_matched = cells_[8].integer;
    row.stamp = stamp;
    return true;
  }

  /// A store table with a cell of another type than its column: its rows
  /// are dropped, but the rest of it is still checked like any table, its
  /// keys so far included.
  void make_unreadable() {
    if (mode_ == Mode::kPatterns) {
      for (const auto& [pid, row] : patterns_) keys_.insert('T' + pid);
      patterns_.clear();
      patterns_read_ = false;
    } else {
      examples_.clear();
      examples_read_ = false;
    }
    mode_ = Mode::kChecked;
  }

  /// Decodes a tagged cell; false when it does not decode.
  bool decode(std::string_view cell, Cell& out) {
    if (cell.empty()) return false;
    out.tag = cell[0];
    const std::string_view body = cell.substr(1);
    switch (out.tag) {
      case 'N':
        return true;
      case 'I': {
        const std::string s(body);
        char* end = nullptr;
        out.integer = std::strtoll(s.c_str(), &end, 10);
        return *end == '\0';
      }
      case 'R': {
        const std::string s(body);
        char* end = nullptr;
        out.real = std::strtod(s.c_str(), &end);
        return *end == '\0';
      }
      case 'T': {
        // The body is a JSON string without its quotes.
        quoted_.assign(1, '"');
        quoted_.append(body);
        quoted_.push_back('"');
        util::JsonReader in(quoted_);
        std::string_view text;
        if (!in.read_string(text) || !in.at_end()) return false;
        out.text.assign(text);
        return true;
      }
      default:
        return false;
    }
  }

  /// A key that is equal exactly for equal cells.
  static std::string key_of(const Cell& cell) {
    switch (cell.tag) {
      case 'I':
        return 'I' + std::to_string(cell.integer);
      case 'R': {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "R%.17g", cell.real);
        return buf;
      }
      case 'T':
        return 'T' + cell.text;
      default:
        return "N";
    }
  }

  // The header being read: name, col lines so far, key column.
  std::string name_;
  std::vector<std::pair<std::string, char>> header_;
  int key_ = -1;
  // The table that took effect.
  bool started_ = false;
  std::size_t columns_ = 0;
  int table_key_ = -1;
  Mode mode_ = Mode::kChecked;
  std::unordered_set<std::string> keys_;
  std::vector<Cell> cells_;
  std::string quoted_;
  // The store's two tables, as the last table of each name left them:
  // readable when it had the store's schema and only cells of its types.
  bool patterns_read_ = false;
  bool examples_read_ = false;
  PatternRows patterns_;
  std::vector<PendingExample> examples_;
};

}  // namespace

bool save_snapshot(const std::string& path, const PatternRows& rows) {
  // Both tables list their rows in insertion-stamp order.
  std::vector<const PatternRows::value_type*> patterns;
  patterns.reserve(rows.size());
  struct ExampleRef {
    const std::string* pid;
    std::size_t seq;
    const ExampleRow* row;
  };
  std::vector<ExampleRef> examples;
  for (const auto& entry : rows) {
    patterns.push_back(&entry);
    const std::vector<ExampleRow>& list = entry.second.examples;
    for (std::size_t i = 0; i < list.size(); ++i) {
      examples.push_back({&entry.first, i, &list[i]});
    }
  }
  std::sort(patterns.begin(), patterns.end(), [](const auto* a, const auto* b) {
    return a->second.stamp < b->second.stamp;
  });
  std::sort(examples.begin(), examples.end(),
            [](const ExampleRef& a, const ExampleRef& b) {
              return a.row->stamp < b.row->stamp;
            });

  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "seqrtgdb 1\n";
  std::string line;
  write_header(out, "examples", -1, kExampleColumns);
  for (const ExampleRef& e : examples) {
    line.assign("row");
    put_text(line, *e.pid);
    put_integer(line, static_cast<std::int64_t>(e.seq));
    put_text(line, e.row->message);
    line += '\n';
    out << line;
  }
  out << "end\n";
  write_header(out, "patterns", 0, kPatternColumns);
  for (const auto* entry : patterns) {
    const PatternRow& p = entry->second;
    line.assign("row");
    put_text(line, entry->first);
    put_text(line, p.service);
    put_text(line, p.ptext);
    put_text(line, p.tokens);
    put_integer(line, p.token_count);
    put_real(line, p.complexity);
    put_integer(line, p.match_count);
    put_integer(line, p.first_seen);
    put_integer(line, p.last_matched);
    line += '\n';
    out << line;
  }
  out << "end\n";
  return static_cast<bool>(out);
}

std::optional<PatternRows> load_snapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != "seqrtgdb 1") return std::nullopt;
  Loader loader;
  while (std::getline(in, line)) {
    if (!loader.line(line)) return std::nullopt;
  }
  return loader.finish();
}

}  // namespace seqrtg::store
