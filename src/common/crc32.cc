#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ERA_CRC32_X86 1
#include <nmmintrin.h>
#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define ERA_CRC32_ARM 1
#include <arm_acle.h>
#if defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif
#endif

namespace era {

namespace {

std::array<uint32_t, 256> MakeTable(uint32_t poly) {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? poly ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// Raw (pre/post-conditioning already applied by the caller) table kernel.
uint32_t TableKernel(const std::array<uint32_t, 256>& table,
                     const unsigned char* p, std::size_t n, uint32_t c) {
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(ERA_CRC32_X86)

__attribute__((target("sse4.2"))) uint32_t Crc32cKernelHw(
    const unsigned char* p, std::size_t n, uint32_t c) {
  uint64_t c64 = c;
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    c64 = _mm_crc32_u64(c64, chunk);
    p += 8;
    n -= 8;
  }
  c = static_cast<uint32_t>(c64);
  while (n > 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  return c;
}

bool DetectCrc32cHardware() { return __builtin_cpu_supports("sse4.2"); }

#elif defined(ERA_CRC32_ARM)

__attribute__((target("+crc"))) uint32_t Crc32cKernelHw(const unsigned char* p,
                                                        std::size_t n,
                                                        uint32_t c) {
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    c = __crc32cd(c, chunk);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = __crc32cb(c, *p++);
    --n;
  }
  return c;
}

bool DetectCrc32cHardware() {
#if defined(__linux__)
  return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#else
  return false;
#endif
}

#else

bool DetectCrc32cHardware() { return false; }

#endif

}  // namespace

uint32_t Crc32cSoftware(const void* data, std::size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> table = MakeTable(0x82F63B78u);
  const auto* p = static_cast<const unsigned char*>(data);
  return TableKernel(table, p, n, seed ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

bool Crc32cHardwareAvailable() {
  static const bool available = DetectCrc32cHardware();
  return available;
}

uint32_t Crc32c(const void* data, std::size_t n, uint32_t seed) {
#if defined(ERA_CRC32_X86) || defined(ERA_CRC32_ARM)
  if (Crc32cHardwareAvailable()) {
    const auto* p = static_cast<const unsigned char*>(data);
    return Crc32cKernelHw(p, n, seed ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
  }
#endif
  return Crc32cSoftware(data, n, seed);
}

}  // namespace era
