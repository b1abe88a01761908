#include "store/snapshot.hpp"

#include <cstdlib>
#include <fstream>

#include "util/strings.hpp"

namespace seqrtg::store {

bool save_snapshot(const std::string& path,
                   const std::map<std::string_view, const Table*>& tables) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "seqrtgdb 1\n";
  for (const auto& [name, table] : tables) {
    const Schema& schema = table->schema();
    out << "table " << name << ' ' << schema.columns.size() << ' '
        << schema.primary_key << '\n';
    for (const Column& col : schema.columns) {
      out << "col " << col.name << ' ' << value_type_name(col.type) << '\n';
    }
    for (const Row* row : table->snapshot()) {
      out << "row";
      for (const Value& v : *row) {
        out << '\t' << v.encode();
      }
      out << '\n';
    }
    out << "end\n";
  }
  return static_cast<bool>(out);
}

std::optional<TableMap> load_snapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != "seqrtgdb 1") return std::nullopt;

  TableMap tables;
  // The table being read: its name (empty between tables), the schema its
  // col lines have built so far, and — once its first row or its end line
  // arrives — the table itself. A later table of the same name replaces
  // an earlier one.
  std::string name;
  Schema schema;
  Table* current = nullptr;
  const auto create = [&] {
    current = &(tables[name] = Table(schema));
  };

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (util::starts_with(line, "table ")) {
      const auto parts = util::split_whitespace(line);
      if (parts.size() != 4) return std::nullopt;
      name = std::string(parts[1]);
      current = nullptr;
      schema = Schema();
      schema.primary_key = static_cast<int>(
          std::strtol(std::string(parts[3]).c_str(), nullptr, 10));
    } else if (util::starts_with(line, "col ")) {
      const auto parts = util::split_whitespace(line);
      if (parts.size() != 3) return std::nullopt;
      ValueType type = ValueType::Text;
      if (parts[2] == "INTEGER") type = ValueType::Integer;
      if (parts[2] == "REAL") type = ValueType::Real;
      schema.columns.push_back({std::string(parts[1]), type});
    } else if (util::starts_with(line, "row")) {
      if (name.empty()) return std::nullopt;
      if (current == nullptr) create();
      // A key past the last column cannot index any row.
      if (current->schema().primary_key >=
          static_cast<int>(current->schema().columns.size())) {
        return std::nullopt;
      }
      const auto fields = util::split(line, '\t');
      Row row;
      row.reserve(fields.size() - 1);
      for (std::size_t i = 1; i < fields.size(); ++i) {
        bool ok = false;
        row.push_back(Value::decode(fields[i], &ok));
        if (!ok) return std::nullopt;
      }
      if (!current->insert(std::move(row))) return std::nullopt;
    } else if (line == "end") {
      if (current == nullptr && !name.empty()) create();  // no rows
      current = nullptr;
      name.clear();
      schema = Schema();
    } else {
      return std::nullopt;
    }
  }
  return tables;
}

}  // namespace seqrtg::store
