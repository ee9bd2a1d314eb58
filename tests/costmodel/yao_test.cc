#include "costmodel/yao.h"

#include <gtest/gtest.h>

#include <cmath>

namespace viewmat::costmodel {
namespace {

TEST(YaoExact, DegenerateCases) {
  EXPECT_EQ(YaoExact(0, 10, 5), 0.0);
  EXPECT_EQ(YaoExact(100, 0, 5), 0.0);
  EXPECT_EQ(YaoExact(100, 10, 0), 0.0);
  EXPECT_EQ(YaoExact(100, 10, -3), 0.0);
}

TEST(YaoExact, AccessingAllRecordsTouchesAllBlocks) {
  EXPECT_DOUBLE_EQ(YaoExact(100, 10, 100), 10.0);
  EXPECT_DOUBLE_EQ(YaoExact(100, 10, 150), 10.0);
}

TEST(YaoExact, SingleBlockFileAlwaysCostsOne) {
  EXPECT_DOUBLE_EQ(YaoExact(40, 1, 1), 1.0);
  EXPECT_DOUBLE_EQ(YaoExact(40, 1, 39), 1.0);
}

TEST(YaoExact, OneRecordFromManyBlocks) {
  // One access touches exactly one block.
  EXPECT_NEAR(YaoExact(1000, 100, 1), 1.0, 1e-9);
}

TEST(YaoExact, KnownSmallValue) {
  // n=4 records on m=2 blocks (2 per block), k=2: the two chosen records
  // land on one block in C(2,2)*2/C(4,2) = 2/6 of cases, two blocks in 4/6.
  // Expected = (2/6)*1 + (4/6)*2 = 5/3.
  EXPECT_NEAR(YaoExact(4, 2, 2), 5.0 / 3.0, 1e-12);
}

TEST(YaoApprox, MatchesExactForLargeBlockingFactor) {
  // Appendix B: approximation is close when n/m > 10.
  const double exact = YaoExact(100000, 2500, 1000);
  const double approx = YaoApprox(100000, 2500, 1000);
  EXPECT_NEAR(approx / exact, 1.0, 0.02);
}

TEST(YaoApprox, FractionalArgumentsSupported) {
  // The cost model calls y with fractional page counts (e.g. the AD file).
  const double y = YaoApprox(50.0, 1.25, 25.0);
  EXPECT_GT(y, 1.0);
  EXPECT_LE(y, 1.25);
}

TEST(YaoApprox, TinyFileClampsToFileSize) {
  EXPECT_DOUBLE_EQ(YaoApprox(10.0, 0.5, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(YaoApprox(10.0, 0.5, 20.0), 0.5);
}

TEST(Yao, NeverExceedsBlocksOrAccesses) {
  for (double k : {0.5, 1.0, 2.0, 7.0, 40.0, 500.0}) {
    for (double m : {1.0, 2.0, 10.0, 250.0}) {
      const double y = Yao(10000, m, k);
      EXPECT_LE(y, m) << "m=" << m << " k=" << k;
      EXPECT_LE(y, k) << "m=" << m << " k=" << k;
      EXPECT_GE(y, 0.0);
    }
  }
}

// --- Property sweeps ------------------------------------------------------

struct YaoCase {
  int64_t n;
  int64_t m;
};

class YaoPropertyTest : public ::testing::TestWithParam<YaoCase> {};

TEST_P(YaoPropertyTest, MonotoneNondecreasingInK) {
  const YaoCase c = GetParam();
  double prev = 0.0;
  for (int64_t k = 0; k <= c.n; k += std::max<int64_t>(1, c.n / 37)) {
    const double y = YaoExact(c.n, c.m, k);
    EXPECT_GE(y, prev - 1e-9) << "n=" << c.n << " m=" << c.m << " k=" << k;
    prev = y;
  }
}

TEST_P(YaoPropertyTest, TriangleInequality) {
  // §4: y(n,m,a+b) <= y(n,m,a) + y(n,m,b) — why refresh-on-demand wins.
  const YaoCase c = GetParam();
  for (int64_t a = 1; a < c.n / 2; a += std::max<int64_t>(1, c.n / 23)) {
    for (int64_t b = 1; b < c.n / 2; b += std::max<int64_t>(1, c.n / 17)) {
      const double lhs = YaoExact(c.n, c.m, a + b);
      const double rhs = YaoExact(c.n, c.m, a) + YaoExact(c.n, c.m, b);
      EXPECT_LE(lhs, rhs + 1e-9)
          << "n=" << c.n << " m=" << c.m << " a=" << a << " b=" << b;
    }
  }
}

TEST_P(YaoPropertyTest, ApproximationTriangleInequality) {
  const YaoCase c = GetParam();
  const double n = static_cast<double>(c.n);
  const double m = static_cast<double>(c.m);
  for (double a = 0.5; a < n / 2; a *= 2.3) {
    for (double b = 0.5; b < n / 2; b *= 3.1) {
      EXPECT_LE(Yao(n, m, a + b), Yao(n, m, a) + Yao(n, m, b) + 1e-9);
    }
  }
}

TEST_P(YaoPropertyTest, ExactAndApproxAgreeLoosely) {
  const YaoCase c = GetParam();
  if (c.n / c.m < 10) return;  // the paper's accuracy claim needs n/m > 10
  for (int64_t k = 1; k <= c.n; k *= 4) {
    const double exact = YaoExact(c.n, c.m, k);
    const double approx = YaoApprox(static_cast<double>(c.n),
                                    static_cast<double>(c.m),
                                    static_cast<double>(k));
    EXPECT_NEAR(approx, exact, 0.05 * exact + 0.1)
        << "n=" << c.n << " m=" << c.m << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, YaoPropertyTest,
    ::testing::Values(YaoCase{100, 10}, YaoCase{1000, 25}, YaoCase{1000, 200},
                      YaoCase{10000, 250}, YaoCase{500, 500},
                      YaoCase{2000, 40}),
    [](const ::testing::TestParamInfo<YaoCase>& info) {
      std::string name = "n";
      name.append(std::to_string(info.param.n))
          .append("m")
          .append(std::to_string(info.param.m));
      return name;
    });

}  // namespace
}  // namespace viewmat::costmodel
