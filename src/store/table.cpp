#include "store/table.hpp"

#include <algorithm>

namespace seqrtg::store {

namespace {

/// True when `a` and `b` have the same index key (equal encode()).
bool same_key(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == ValueType::Real) return a.encode() == b.encode();
  return a == b;
}

}  // namespace

int Schema::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Table::Table(Schema schema) : schema_(std::move(schema)) {}

bool Table::insert(Row row) {
  if (row.size() != schema_.columns.size()) return false;
  const RowId id = rows_.size();
  if (schema_.primary_key >= 0) {
    const std::string key =
        row[static_cast<std::size_t>(schema_.primary_key)].encode();
    if (!pk_index_.emplace(key, id).second) return false;
  }
  for (Index& index : secondary_) link(index, row[index.column], id);
  rows_.emplace_back(std::move(row));
  ++live_count_;
  return true;
}

std::optional<RowId> Table::find_pk(const Value& key) const {
  if (schema_.primary_key < 0) return std::nullopt;
  const auto it = pk_index_.find(key.encode());
  if (it == pk_index_.end()) return std::nullopt;
  return it->second;
}

bool Table::add_index(std::string_view column) {
  const int col = schema_.column_index(column);
  if (col < 0) return false;
  for (const Index& index : secondary_) {
    if (index.column_name == column) return true;
  }
  Index index{std::string(column), static_cast<std::size_t>(col), {}};
  for (RowId id = 0; id < rows_.size(); ++id) {
    if (rows_[id].has_value()) link(index, (*rows_[id])[index.column], id);
  }
  secondary_.push_back(std::move(index));
  return true;
}

std::vector<RowId> Table::find_eq(std::string_view column,
                                  const Value& key) const {
  for (const Index& index : secondary_) {
    if (index.column_name != column) continue;
    const auto it = index.ids.find(key.encode());
    if (it != index.ids.end()) return it->second;
    break;
  }
  return {};
}

bool Table::update_row(RowId id, Row new_values) {
  if (id >= rows_.size() || !rows_[id].has_value()) return false;
  if (new_values.size() != schema_.columns.size()) return false;
  Row& old = *rows_[id];
  if (schema_.primary_key >= 0) {
    const auto pk = static_cast<std::size_t>(schema_.primary_key);
    if (!same_key(old[pk], new_values[pk])) {
      if (!pk_index_.emplace(new_values[pk].encode(), id).second) {
        return false;
      }
      pk_index_.erase(old[pk].encode());
    }
  }
  for (Index& index : secondary_) {
    const Value& before = old[index.column];
    const Value& after = new_values[index.column];
    if (same_key(before, after)) continue;
    unlink(index, before, id);
    link(index, after, id);
  }
  old = std::move(new_values);
  return true;
}

void Table::erase(RowId id) {
  if (id >= rows_.size() || !rows_[id].has_value()) return;
  const Row& r = *rows_[id];
  if (schema_.primary_key >= 0) {
    pk_index_.erase(r[static_cast<std::size_t>(schema_.primary_key)].encode());
  }
  for (Index& index : secondary_) unlink(index, r[index.column], id);
  rows_[id].reset();
  --live_count_;
}

std::vector<const Row*> Table::snapshot() const {
  std::vector<const Row*> out;
  out.reserve(live_count_);
  for (const auto& r : rows_) {
    if (r.has_value()) out.push_back(&*r);
  }
  return out;
}

void Table::link(Index& index, const Value& key, RowId id) {
  std::vector<RowId>& ids = index.ids[key.encode()];
  ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
}

void Table::unlink(Index& index, const Value& key, RowId id) {
  const auto it = index.ids.find(key.encode());
  if (it == index.ids.end()) return;
  std::vector<RowId>& ids = it->second;
  const auto pos = std::lower_bound(ids.begin(), ids.end(), id);
  if (pos != ids.end() && *pos == id) ids.erase(pos);
  if (ids.empty()) index.ids.erase(it);
}

}  // namespace seqrtg::store
