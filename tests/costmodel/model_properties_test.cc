#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "costmodel/model1.h"
#include "costmodel/model2.h"
#include "costmodel/model3.h"

namespace viewmat::costmodel {
namespace {

/// Structural properties every cost formula must satisfy regardless of the
/// parameter point — cheap insurance against sign errors and mistranscribed
/// terms in the OCR-reconstructed formulas.

class ModelPropertiesTest : public ::testing::TestWithParam<double> {
 protected:
  Params At(double P) const { return Params().WithUpdateProbability(P); }
};

TEST_P(ModelPropertiesTest, AllTotalsArePositiveAndFinite) {
  const Params p = At(GetParam());
  for (const double total :
       {TotalDeferred1(p), TotalImmediate1(p), TotalClustered(p),
        TotalUnclustered(p), TotalSequential(p), TotalDeferred2(p),
        TotalImmediate2(p), TotalLoopJoin(p), TotalDeferred3(p),
        TotalImmediate3(p), TotalRecompute3(p)}) {
    EXPECT_GT(total, 0.0);
    EXPECT_TRUE(std::isfinite(total));
  }
}

TEST_P(ModelPropertiesTest, QueryModificationIsFlatInP) {
  // QM does no maintenance: its per-query cost cannot depend on P.
  const Params p = At(GetParam());
  const Params p2 = At(std::min(GetParam() + 0.2, 0.95));
  EXPECT_DOUBLE_EQ(TotalClustered(p), TotalClustered(p2));
  EXPECT_DOUBLE_EQ(TotalUnclustered(p), TotalUnclustered(p2));
  EXPECT_DOUBLE_EQ(TotalSequential(p), TotalSequential(p2));
  EXPECT_DOUBLE_EQ(TotalLoopJoin(p), TotalLoopJoin(p2));
  EXPECT_DOUBLE_EQ(TotalRecompute3(p), TotalRecompute3(p2));
}

TEST_P(ModelPropertiesTest, MaintenanceCostsRiseWithP) {
  const double P = GetParam();
  if (P >= 0.9) return;
  const Params lo = At(P);
  const Params hi = At(P + 0.05);
  EXPECT_GT(TotalDeferred1(hi), TotalDeferred1(lo));
  EXPECT_GT(TotalImmediate1(hi), TotalImmediate1(lo));
  EXPECT_GT(TotalDeferred2(hi), TotalDeferred2(lo));
  EXPECT_GT(TotalImmediate2(hi), TotalImmediate2(lo));
  EXPECT_GE(TotalDeferred3(hi), TotalDeferred3(lo));
  EXPECT_GE(TotalImmediate3(hi), TotalImmediate3(lo));
}

TEST_P(ModelPropertiesTest, EveryIoTermScalesWithC2) {
  // Doubling the disk cost must not decrease any total (and must strictly
  // increase all I/O-bearing ones).
  Params p = At(GetParam());
  Params expensive = p;
  expensive.C2 *= 2.0;
  EXPECT_GT(TotalDeferred1(expensive), TotalDeferred1(p));
  EXPECT_GT(TotalImmediate1(expensive), TotalImmediate1(p));
  EXPECT_GT(TotalClustered(expensive), TotalClustered(p));
  EXPECT_GT(TotalLoopJoin(expensive), TotalLoopJoin(p));
  EXPECT_GT(TotalRecompute3(expensive), TotalRecompute3(p));
}

TEST_P(ModelPropertiesTest, LargerViewsCostMoreToQuery) {
  Params small = At(GetParam());
  small.f = 0.05;
  Params large = small;
  large.f = 0.5;
  EXPECT_GT(CQuery1(large), CQuery1(small));
  EXPECT_GT(CQuery2(large), CQuery2(small));
  EXPECT_GT(TotalClustered(large), TotalClustered(small));
}

TEST_P(ModelPropertiesTest, ScreeningScalesWithSelectivityAndUpdates) {
  Params p = At(GetParam());
  Params more_f = p;
  more_f.f = std::min(1.0, p.f * 3.0);
  EXPECT_GE(CScreen(more_f), CScreen(p));
  Params more_l = p;
  more_l.l *= 4.0;
  EXPECT_GE(CScreen(more_l), CScreen(p));
}

TEST_P(ModelPropertiesTest, ZeroUpdateProbabilityCollapsesToQueryCost) {
  const Params p = At(0.0);
  EXPECT_DOUBLE_EQ(TotalDeferred1(p), CQuery1(p));
  EXPECT_DOUBLE_EQ(TotalImmediate1(p), CQuery1(p));
  EXPECT_DOUBLE_EQ(TotalDeferred2(p), CQuery2(p));
  EXPECT_DOUBLE_EQ(TotalImmediate2(p), CQuery2(p));
  EXPECT_DOUBLE_EQ(TotalImmediate3(p), CQuery3(p));
}

TEST_P(ModelPropertiesTest, BatchingDirectionFollowsConcavityOfYao) {
  // The refresh term alone: deferred patches the view once per query with
  // u = (k/q)·l accumulated tuples; immediate patches k/q times with l
  // each. y is concave through the origin, so batching wins exactly when
  // several transactions are merged (k/q >= 1, i.e. P >= .5) and loses
  // when a refresh serves less than one transaction's worth (P < .5) —
  // the formula-level root of the paper's "at low P immediate has a
  // slight advantage".
  const Params p = At(GetParam());
  if (GetParam() >= 0.5) {
    EXPECT_LE(CDefRefresh1(p), CImmRefresh1(p) + 1e-9);
    EXPECT_LE(CDefRefresh2(p), CImmRefresh2(p) + 1e-9);
  } else {
    EXPECT_GE(CDefRefresh1(p), CImmRefresh1(p) - 1e-9);
    EXPECT_GE(CDefRefresh2(p), CImmRefresh2(p) - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(SweepP, ModelPropertiesTest,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 0.75, 0.9),
                         [](const ::testing::TestParamInfo<double>& info) {
                           std::string name = "P";
                           name.append(std::to_string(
                               static_cast<int>(info.param * 100)));
                           return name;
                         });

}  // namespace
}  // namespace viewmat::costmodel
