// CRC-32C kernels: known vectors, seed chaining, and byte-for-byte equivalence
// of the dispatched CRC-32C path against the software reference.

#include "common/crc32.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

namespace era {
namespace {

TEST(Crc32cTest, CastagnoliKnownVectors) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32c(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(Crc32cSoftware(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // RFC 3720 B.4: 32 bytes of zeros.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, DispatchedMatchesSoftwareByteForByte) {
  // Covers every length 0..257 (exercises the 8-byte kernel stride and all
  // tail lengths) plus unaligned starts, with and without seeds.
  std::mt19937_64 rng(7);
  std::string data(512, '\0');
  for (char& c : data) c = static_cast<char>(rng());
  for (std::size_t offset : {0u, 1u, 3u, 7u}) {
    for (std::size_t len = 0; len + offset <= 258; ++len) {
      const char* p = data.data() + offset;
      EXPECT_EQ(Crc32c(p, len), Crc32cSoftware(p, len))
          << "offset=" << offset << " len=" << len;
      EXPECT_EQ(Crc32c(p, len, 0xDEADBEEFu),
                Crc32cSoftware(p, len, 0xDEADBEEFu))
          << "seeded, offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32cTest, SeedChainingSplitsArbitrarily) {
  std::mt19937_64 rng(13);
  std::string data(300, '\0');
  for (char& c : data) c = static_cast<char>(rng());
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (std::size_t split : {0u, 1u, 8u, 100u, 299u, 300u}) {
    uint32_t first = Crc32c(data.data(), split);
    uint32_t chained = Crc32c(data.data() + split, data.size() - split, first);
    EXPECT_EQ(chained, whole) << "split=" << split;
  }
}

TEST(Crc32cTest, ReportsDispatchDecision) {
  // Informational: the decision itself is environment-dependent, but the
  // call must be stable within a process.
  EXPECT_EQ(Crc32cHardwareAvailable(), Crc32cHardwareAvailable());
}

}  // namespace
}  // namespace era
