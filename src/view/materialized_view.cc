#include "view/materialized_view.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace viewmat::view {

namespace {

db::Schema WithCountColumn(const db::Schema& view_schema) {
  std::vector<db::Field> fields = view_schema.fields();
  fields.push_back(db::Field::Int64("__dup"));
  return db::Schema(std::move(fields));
}

}  // namespace

MaterializedView::MaterializedView(storage::BufferPool* pool,
                                   std::string name, db::Schema view_schema,
                                   size_t view_key_field)
    : view_schema_(std::move(view_schema)),
      stored_schema_(WithCountColumn(view_schema_)),
      view_key_field_(view_key_field) {
  VIEWMAT_CHECK(view_key_field_ < view_schema_.field_count());
  stored_ = std::make_unique<db::Relation>(
      pool, std::move(name), stored_schema_,
      db::AccessMethod::kClusteredBTree, view_key_field_);
}

db::Tuple MaterializedView::WithCount(const db::Tuple& value,
                                      int64_t count) const {
  std::vector<db::Value> vals = value.values();
  vals.emplace_back(count);
  return db::Tuple(std::move(vals));
}

StatusOr<db::Tuple> MaterializedView::FindStored(
    const db::Tuple& value) const {
  const int64_t key = value.at(view_key_field_).AsInt64();
  db::Tuple stored;
  bool have = false;
  VIEWMAT_RETURN_IF_ERROR(
      stored_->RangeScanRecords(key, key, [&](const uint8_t* record) {
        db::Tuple::DeserializeInto(stored_schema_, record, &stored);
        // Equal on every view field; the trailing count is not compared.
        have = std::equal(value.values().begin(), value.values().end(),
                          stored.values().begin(), stored.values().end() - 1);
        return !have;
      }));
  if (!have) return Status::NotFound("view value not stored");
  return stored;
}

Status MaterializedView::ApplyInsert(const db::Tuple& value) {
  auto existing = FindStored(value);
  ++total_count_;
  if (existing.ok()) {
    const int64_t count = existing->values().back().AsInt64();
    return stored_->UpdateExact(*existing, WithCount(value, count + 1));
  }
  return stored_->Insert(WithCount(value, 1));
}

Status MaterializedView::ApplyDelete(const db::Tuple& value) {
  auto existing = FindStored(value);
  if (!existing.ok()) {
    return Status::Internal(
        "counting invariant violated: deleting an absent view value " +
        value.ToString());
  }
  const int64_t count = existing->values().back().AsInt64();
  --total_count_;
  if (count > 1) {
    return stored_->UpdateExact(*existing, WithCount(value, count - 1));
  }
  return stored_->DeleteExact(*existing);
}

Status MaterializedView::ApplyDelta(const std::vector<db::Tuple>& inserts,
                                    const std::vector<db::Tuple>& deletes) {
  for (const db::Tuple& t : deletes) {
    VIEWMAT_RETURN_IF_ERROR(ApplyDelete(t));
  }
  for (const db::Tuple& t : inserts) {
    VIEWMAT_RETURN_IF_ERROR(ApplyInsert(t));
  }
  return Status::OK();
}

Status MaterializedView::Query(int64_t lo, int64_t hi,
                               const CountedVisitor& visit) const {
  const uint32_t count_offset =
      stored_schema_.offset(stored_schema_.field_count() - 1);
  db::Tuple value;
  return stored_->RangeScanRecords(lo, hi, [&](const uint8_t* record) {
    db::Tuple::DeserializeInto(view_schema_, record, &value);
    int64_t count = 0;
    std::memcpy(&count, record + count_offset, sizeof(count));
    return visit(value, count);
  });
}

Status MaterializedView::ScanAll(const CountedVisitor& visit) const {
  // The stored relation is a B+-tree, whose full scan is exactly the
  // unbounded range scan.
  return Query(std::numeric_limits<int64_t>::min(),
               std::numeric_limits<int64_t>::max(), visit);
}

Status MaterializedView::Clear() {
  std::vector<db::Tuple> all;
  VIEWMAT_RETURN_IF_ERROR(
      stored_->Scan([&](const db::Tuple& stored) {
        all.push_back(stored);
        return true;
      }));
  for (const db::Tuple& t : all) {
    VIEWMAT_RETURN_IF_ERROR(stored_->DeleteExact(t));
  }
  total_count_ = 0;
  return Status::OK();
}

}  // namespace viewmat::view
