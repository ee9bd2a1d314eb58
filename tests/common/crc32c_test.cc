#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"

namespace viewmat {
namespace {

// Known answers from RFC 3720, appendix B.4, plus the classic check value.
TEST(Crc32cTest, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32c(check.data(), check.size()), 0xE3069283u);
  const std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  std::vector<uint8_t> ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, BothKernelsMatchTheKnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32c_internal::ExtendTable(0, check.data(), check.size()),
            0xE3069283u);
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "CPU has no SSE4.2 crc32 instruction";
  }
  EXPECT_EQ(crc32c_internal::ExtendHardware(0, check.data(), check.size()),
            0xE3069283u);
}

// Every length 0..300 at every offset modulo 8, so both kernels' head,
// word-loop and tail paths meet every alignment.
TEST(Crc32cTest, HardwareMatchesTableAtEveryLengthAndAlignment) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "CPU has no SSE4.2 crc32 instruction";
  }
  Random rng(20260417);
  std::vector<uint8_t> buf(300 + 16);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint8_t* p = buf.data() + align;
      const uint32_t seed = static_cast<uint32_t>(len * 2654435761u);
      ASSERT_EQ(crc32c_internal::ExtendHardware(seed, p, len),
                crc32c_internal::ExtendTable(seed, p, len))
          << "len " << len << " align " << align;
    }
  }
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string a = "view materialization ";
  const std::string b = "strategies";
  const std::string ab = a + b;
  EXPECT_EQ(Crc32cExtend(Crc32c(a.data(), a.size()), b.data(), b.size()),
            Crc32c(ab.data(), ab.size()));
}

}  // namespace
}  // namespace viewmat
