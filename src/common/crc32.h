// CRC-32C (Castagnoli, 0x82F63B78 reflected): the checksum guarding
// serialized sub-trees, the MANIFEST, checkpoints and atomically written
// files. It is the polynomial the SSE4.2 and ARMv8 CRC instructions
// implement, so the dispatched kernel runs at bus speed on both
// architectures; a table kernel covers everything else. That matters
// because the CRC is paid on every sub-tree read and write.
//
// Dispatch happens once per process (CPUID on x86-64, HWCAP on aarch64) and
// is branch-free afterwards. Crc32cSoftware is exposed so tests can pin the
// hardware kernel byte-for-byte against the table kernel.

#ifndef ERA_COMMON_CRC32_H_
#define ERA_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace era {

/// Computes CRC-32C (Castagnoli polynomial) of `data[0, n)`, using the
/// hardware CRC instructions when the CPU has them. `seed` allows chaining.
uint32_t Crc32c(const void* data, std::size_t n, uint32_t seed = 0);

/// The table-driven CRC-32C kernel, regardless of hardware support (the
/// reference the dispatched path must match byte-for-byte).
uint32_t Crc32cSoftware(const void* data, std::size_t n, uint32_t seed = 0);

/// True if Crc32c dispatches to a hardware kernel on this machine.
bool Crc32cHardwareAvailable();

}  // namespace era

#endif  // ERA_COMMON_CRC32_H_
