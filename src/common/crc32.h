// CRC-32 (IEEE 802.3 polynomial), used to integrity-check serialized
// checkpoints: a recovery path must never silently load corrupted state.
//
// Three bit-identical implementations, selected once at startup through a
// function-pointer dispatch table:
//  * hardware — PCLMUL carry-less-multiply folding on x86-64 (SSE4.2's crc32
//    instruction computes CRC-32C, the *Castagnoli* polynomial, so the IEEE
//    polynomial must be folded with PCLMULQDQ instead of silently changing
//    the checksum), or the ARMv8 `__crc32*` instructions on aarch64 (those
//    do use the IEEE polynomial). Gated on CPUID / HWCAP at startup.
//  * slicing-by-8 — the portable production path (eight 256-entry tables,
//    eight input bytes folded per step); the fallback everywhere hardware is
//    absent, compiled out (GEMINI_DISABLE_HWCRC), or disabled at runtime
//    (the GEMINI_DISABLE_HWCRC environment variable).
//  * bytewise — the textbook one-byte-per-step table loop, kept as the
//    reference the tests (and the perf bench) compare everything against.
#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace gemini {

// One-shot CRC over a buffer.
uint32_t Crc32(const void* data, size_t length);

// Incremental form: pass the previous return value as `crc` (start with 0).
// Dispatches to the fastest implementation the CPU supports.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t length);

// Reference implementation: the textbook one-byte-per-step table loop.
// Bit-identical to Crc32Update for every input; exists so equivalence is
// testable and every speedup is measurable.
uint32_t Crc32UpdateBytewise(uint32_t crc, const void* data, size_t length);

// The portable slicing-by-8 kernel, callable directly so the dispatch
// equivalence tests and the perf bench can compare hardware against it even
// when the hardware path is the active one.
uint32_t Crc32UpdateSlicing8(uint32_t crc, const void* data, size_t length);

// Function-pointer type of the kernels above (and of Crc32ActiveKernel).
using Crc32UpdateFn = uint32_t (*)(uint32_t crc, const void* data, size_t length);

// The dispatch-selected kernel itself. Calling it is equivalent to
// Crc32Update without the (already tiny) dispatch-load indirection; exposed
// so benches can time exactly what production uses.
Crc32UpdateFn Crc32ActiveKernel();

// Name of the dispatch-selected implementation: "x86-pclmul", "armv8-crc32",
// or "slicing-by-8". Stable across the process lifetime (resolved once).
const char* Crc32ImplementationName();

}  // namespace gemini

#endif  // SRC_COMMON_CRC32_H_
