#include "net/multiset_digest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "costmodel/params.h"
#include "net/session_server.h"
#include "sim/strategy_driver.h"

namespace viewmat::net {
namespace {

db::Tuple Row(int64_t k, double v) {
  return db::Tuple({db::Value(k), db::Value(v)});
}

uint64_t DigestOf(const std::vector<std::pair<db::Tuple, int64_t>>& entries) {
  MultisetDigest d;
  for (const auto& [t, count] : entries) d.Add(t, count);
  return d.value();
}

TEST(MultisetDigest, IndependentOfEntryOrder) {
  std::vector<std::pair<db::Tuple, int64_t>> entries = {
      {Row(1, 1.5), 1}, {Row(2, -3.0), 4}, {Row(3, 0.25), 2},
      {db::Tuple({db::Value(int64_t{9}), db::Value(std::string("s"))}), 1}};
  const uint64_t forward = DigestOf(entries);
  std::reverse(entries.begin(), entries.end());
  EXPECT_EQ(DigestOf(entries), forward);
  std::swap(entries[0], entries[2]);
  EXPECT_EQ(DigestOf(entries), forward);
}

TEST(MultisetDigest, CountsAddLinearly) {
  const db::Tuple t = Row(7, 2.5);
  EXPECT_EQ(DigestOf({{t, 2}}), DigestOf({{t, 1}, {t, 1}}));
  EXPECT_EQ(DigestOf({{t, 3}, {t, -3}}), MultisetDigest().value());
  EXPECT_NE(DigestOf({{t, 2}}), DigestOf({{t, 1}}));
  // A zero-count entry contributes nothing.
  EXPECT_EQ(DigestOf({{Row(1, 1.0), 1}, {t, 0}}),
            DigestOf({{Row(1, 1.0), 1}}));
}

TEST(MultisetDigest, DomainTagsSeparateEqualMultisets) {
  MultisetDigest base(1), view(2);
  base.Add(Row(1, 1.0), 1);
  view.Add(Row(1, 1.0), 1);
  EXPECT_NE(base.value(), view.value());
}

TEST(MultisetDigest, SensitiveToTheLastBitOfADouble) {
  // Regression: the old digest rendered doubles with %g (six significant
  // digits), so these two answers digested the same.
  EXPECT_NE(DigestOf({{Row(1, 523.4567), 1}}),
            DigestOf({{Row(1, 523.4568), 1}}));
  const double v = 523.4567;
  EXPECT_NE(DigestOf({{Row(1, v), 1}}),
            DigestOf({{Row(1, std::nextafter(v, 1e9)), 1}}));
}

TEST(MultisetDigest, DigestMultisetIsTheSameAccumulator) {
  sim::ViewMultiset m = {{Row(1, 1.0), 2}, {Row(2, 2.0), 1}};
  EXPECT_EQ(DigestMultiset(m),
            DigestOf({{Row(2, 2.0), 1}, {Row(1, 1.0), 2}}));
  EXPECT_EQ(DigestMultiset({}), MultisetDigest().value());
}

TEST(MultisetDigest, StreamingAQueryEqualsDigestingItsCollectedMultiset) {
  sim::StrategyDriver::Options dopt;
  dopt.kind = sim::StrategyKind::kDeferred;
  dopt.model = 1;
  dopt.params = sim::TortureParams(costmodel::Params{});
  dopt.seed = 5;
  auto driver = sim::StrategyDriver::Create(dopt);
  ASSERT_TRUE(driver.ok()) << driver.status().message();
  const int64_t n = (*driver)->scenario()->n();
  for (const auto& [lo, hi] :
       std::vector<std::pair<int64_t, int64_t>>{{0, n - 1}, {3, n / 2}}) {
    MultisetDigest streamed;
    sim::ViewMultiset collected;
    size_t rows = 0;
    ASSERT_TRUE((*driver)
                    ->Query(lo, hi,
                            [&](const db::Tuple& t, int64_t count) {
                              streamed.Add(t, count);
                              collected[t] += count;
                              ++rows;
                              return true;
                            })
                    .ok());
    ASSERT_GT(rows, 0u);
    EXPECT_EQ(streamed.value(), DigestMultiset(collected));
  }
}

}  // namespace
}  // namespace viewmat::net
