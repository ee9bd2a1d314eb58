#include "view/materialized_view.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace viewmat::view {
namespace {

db::Schema ViewSchema() {
  return db::Schema({db::Field::Int64("dept"), db::Field::Double("salary")});
}

db::Tuple V(int64_t dept, double salary) {
  return db::Tuple({db::Value(dept), db::Value(salary)});
}

class MaterializedViewTest : public ::testing::Test {
 protected:
  MaterializedViewTest()
      : disk_(512, &tracker_),
        pool_(&disk_, 32),
        view_(&pool_, "v", ViewSchema(), 0) {}

  std::map<db::Tuple, int64_t> Contents() {
    std::map<db::Tuple, int64_t> out;
    VIEWMAT_CHECK(view_.ScanAll([&](const db::Tuple& t, int64_t c) {
      out[t] = c;
      return true;
    }).ok());
    return out;
  }

  storage::CostTracker tracker_;
  storage::SimulatedDisk disk_;
  storage::BufferPool pool_;
  MaterializedView view_;
};

TEST_F(MaterializedViewTest, FirstInsertHasCountOne) {
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  const auto contents = Contents();
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents.at(V(1, 100)), 1);
  EXPECT_EQ(view_.distinct_count(), 1u);
  EXPECT_EQ(view_.total_count(), 1);
}

TEST_F(MaterializedViewTest, DuplicateInsertIncrementsCount) {
  // The §2.1 duplicate-count rule: projection can map several sources to
  // the same view value.
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  const auto contents = Contents();
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents.at(V(1, 100)), 3);
  EXPECT_EQ(view_.distinct_count(), 1u);  // stored once
  EXPECT_EQ(view_.total_count(), 3);
}

TEST_F(MaterializedViewTest, DeleteDecrementsUntilRemoval) {
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  ASSERT_TRUE(view_.ApplyDelete(V(1, 100)).ok());
  EXPECT_EQ(Contents().at(V(1, 100)), 1);
  ASSERT_TRUE(view_.ApplyDelete(V(1, 100)).ok());
  EXPECT_TRUE(Contents().empty());
  EXPECT_EQ(view_.total_count(), 0);
}

TEST_F(MaterializedViewTest, DeletingAbsentValueIsCorruption) {
  // Exactly the failure mode Appendix A's incorrect expansion triggers.
  EXPECT_EQ(view_.ApplyDelete(V(9, 9)).code(), StatusCode::kInternal);
}

TEST_F(MaterializedViewTest, SameKeyDifferentValuesCoexist) {
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  ASSERT_TRUE(view_.ApplyInsert(V(1, 200)).ok());
  const auto contents = Contents();
  EXPECT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents.at(V(1, 100)), 1);
  EXPECT_EQ(contents.at(V(1, 200)), 1);
}

TEST_F(MaterializedViewTest, QueryRangeFiltersOnViewKey) {
  for (int64_t dept = 0; dept < 20; ++dept) {
    ASSERT_TRUE(view_.ApplyInsert(V(dept, dept * 1.5)).ok());
  }
  std::vector<int64_t> seen;
  ASSERT_TRUE(view_.Query(5, 8, [&](const db::Tuple& t, int64_t) {
    seen.push_back(t.at(0).AsInt64());
    return true;
  }).ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{5, 6, 7, 8}));
}

TEST_F(MaterializedViewTest, ApplyDeltaDeletesBeforeInserts) {
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  // Replace (1,100) with (1,101) atomically.
  ASSERT_TRUE(view_.ApplyDelta({V(1, 101)}, {V(1, 100)}).ok());
  const auto contents = Contents();
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents.count(V(1, 101)), 1u);
}

TEST_F(MaterializedViewTest, ClearEmptiesView) {
  for (int64_t dept = 0; dept < 10; ++dept) {
    ASSERT_TRUE(view_.ApplyInsert(V(dept, 1)).ok());
  }
  ASSERT_TRUE(view_.Clear().ok());
  EXPECT_TRUE(Contents().empty());
  EXPECT_EQ(view_.total_count(), 0);
  ASSERT_TRUE(view_.ApplyInsert(V(1, 1)).ok());  // usable after clear
  EXPECT_EQ(view_.total_count(), 1);
}

TEST_F(MaterializedViewTest, QueryAndScanAllYieldKeyOrderedCounts) {
  // Counts above one, and several values under one key.
  for (int64_t dept = 0; dept < 12; ++dept) {
    for (int64_t copies = 0; copies <= dept % 3; ++copies) {
      ASSERT_TRUE(view_.ApplyInsert(V(dept, 10.0 * dept)).ok());
    }
  }
  ASSERT_TRUE(view_.ApplyInsert(V(4, 0.5)).ok());
  using Row = std::pair<db::Tuple, int64_t>;
  auto collect = [&](int64_t lo, int64_t hi) {
    std::vector<Row> rows;
    EXPECT_TRUE(view_.Query(lo, hi, [&](const db::Tuple& t, int64_t c) {
      rows.emplace_back(t, c);
      return true;
    }).ok());
    return rows;
  };
  const std::vector<Row> got = collect(3, 5);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], Row(V(3, 30), 1));
  EXPECT_EQ(got[3], Row(V(5, 50), 3));
  // Key 4 holds two values; both appear, each with its own count.
  const std::map<db::Tuple, int64_t> key4(got.begin() + 1, got.begin() + 3);
  EXPECT_EQ(key4,
            (std::map<db::Tuple, int64_t>{{V(4, 40), 2}, {V(4, 0.5), 1}}));

  std::vector<Row> all;
  ASSERT_TRUE(view_.ScanAll([&](const db::Tuple& t, int64_t c) {
    all.emplace_back(t, c);
    return true;
  }).ok());
  EXPECT_EQ(all, collect(std::numeric_limits<int64_t>::min(),
                         std::numeric_limits<int64_t>::max()));
  ASSERT_EQ(all.size(), 13u);
  int64_t total = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(all[i - 1].first.at(0).AsInt64(), all[i].first.at(0).AsInt64());
    }
    total += all[i].second;
  }
  EXPECT_EQ(total, view_.total_count());
}

TEST(MaterializedViewStrings, ScanDecodesStringFieldsRowByRow) {
  // Rows decode into one scratch tuple; a short string after a long one
  // must not keep the long one's tail, and copies taken by the visitor
  // must stay intact.
  storage::CostTracker tracker;
  storage::SimulatedDisk disk(512, &tracker);
  storage::BufferPool pool(&disk, 32);
  MaterializedView view(
      &pool, "names",
      db::Schema({db::Field::Int64("id"), db::Field::String("name", 16),
                  db::Field::Double("w")}),
      0);
  auto row = [](int64_t id, std::string name, double w) {
    return db::Tuple({db::Value(id), db::Value(std::move(name)), db::Value(w)});
  };
  const std::vector<std::pair<db::Tuple, int64_t>> want = {
      {row(1, "a-sixteen-chars!", 1.0), 2},
      {row(2, "mid", 2.0), 1},
      {row(3, "", 3.0), 3},
      {row(4, "longer-again", 4.0), 1},
  };
  for (const auto& [t, count] : want) {
    for (int64_t i = 0; i < count; ++i) ASSERT_TRUE(view.ApplyInsert(t).ok());
  }
  std::vector<std::pair<db::Tuple, int64_t>> got;
  ASSERT_TRUE(view.ScanAll([&](const db::Tuple& t, int64_t c) {
    got.emplace_back(t, c);
    return true;
  }).ok());
  EXPECT_EQ(got, want);
  got.clear();
  ASSERT_TRUE(view.Query(2, 3, [&](const db::Tuple& t, int64_t c) {
    got.emplace_back(t, c);
    return true;
  }).ok());
  EXPECT_EQ(got,
            (std::vector<std::pair<db::Tuple, int64_t>>{want[1], want[2]}));
  // Deletes match the stored value on every field, strings included.
  ASSERT_TRUE(view.ApplyDelete(row(1, "a-sixteen-chars!", 1.0)).ok());
  EXPECT_EQ(view.ApplyDelete(row(2, "mi", 2.0)).code(), StatusCode::kInternal);
  EXPECT_EQ(view.total_count(), 6);
}

TEST_F(MaterializedViewTest, RandomChurnMatchesCountedOracle) {
  Random rng(33);
  std::map<db::Tuple, int64_t> oracle;
  for (int step = 0; step < 2000; ++step) {
    const int64_t dept = rng.UniformInt(0, 8);
    const double salary = static_cast<double>(rng.UniformInt(0, 3));
    const db::Tuple value = V(dept, salary);
    if (oracle[value] == 0 || rng.Bernoulli(0.55)) {
      ASSERT_TRUE(view_.ApplyInsert(value).ok());
      ++oracle[value];
    } else {
      ASSERT_TRUE(view_.ApplyDelete(value).ok());
      if (--oracle[value] == 0) oracle.erase(value);
    }
    if (oracle[value] == 0) oracle.erase(value);
  }
  EXPECT_EQ(Contents(), oracle);
}

}  // namespace
}  // namespace viewmat::view
