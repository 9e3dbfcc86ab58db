// CRC-32 (IEEE 802.3 polynomial), used to integrity-check serialized
// checkpoints: a recovery path must never silently load corrupted state.
//
// Bit-identical kernels, one selected at startup through a function pointer,
// the first this CPU supports in this order:
//  * x86-vpclmul — VPCLMULQDQ on 512-bit registers folds four 512-bit lanes,
//    256 bytes per step; gated on AVX-512F/BW/VL + VPCLMULQDQ.
//  * x86-pclmul / armv8-crc32 — PCLMULQDQ carry-less-multiply folding of four
//    128-bit lanes on x86-64 (SSE4.2's crc32 instruction computes CRC-32C,
//    the *Castagnoli* polynomial, so the IEEE polynomial must be folded with
//    PCLMULQDQ instead of silently changing the checksum), or the ARMv8
//    `__crc32*` instructions on aarch64 (those do use the IEEE polynomial).
//    Gated on CPUID / HWCAP.
//  * slicing-by-8 — the portable path (eight 256-entry tables, eight input
//    bytes folded per step); the fallback everywhere hardware is absent.
// The folding kernels hand short buffers to the next kernel down the list.
// The tests and the perf bench compare every kernel with a bytewise
// reference loop (tests/crc32_reference.h).
//
// Combining: CRC-32 is linear, so the CRC of a concatenation follows from
// the parts' CRCs and the second part's length (zlib's crc32_combine):
// Crc32(a‖b) = x^(8·|b|)·Crc32(a) ⊕ Crc32(b) mod P. Multiplying by
// x^(8·|b|) mod P — the 32×32 GF(2) "append |b| zero bytes" operator — is
// built from a compile-time table of x^(2^k) mod P with one 32-step multiply
// per set bit of |b|, and Crc32FromBlocks tabulates it once per call, so no
// per-length cache (and no shared mutable state) is needed. Callers that
// keep per-block CRCs of a buffer derive the whole buffer's CRC from them
// without reading the unchanged blocks again.
#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gemini {

// One-shot CRC over a buffer.
uint32_t Crc32(const void* data, size_t length);

// Incremental form: pass the previous return value as `crc` (start with 0).
// Dispatches to the fastest implementation the CPU supports.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t length);

// CRC of a‖b from crc_a = Crc32(a), crc_b = Crc32(b) and length_b = |b|.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t length_b);

// CRC of a buffer of `total_bytes` from the CRCs of its consecutive
// `block_bytes`-sized blocks (the last block holds the remainder, so there
// are ceil(total_bytes / block_bytes) entries; block_bytes >= 1). Equals
// Crc32 of the buffer; 0 when total_bytes is 0.
uint32_t Crc32FromBlocks(const uint32_t* block_crcs, size_t block_bytes, size_t total_bytes);

// Function-pointer type of the kernels (and of Crc32ActiveKernel).
using Crc32UpdateFn = uint32_t (*)(uint32_t crc, const void* data, size_t length);

struct Crc32Kernel {
  const char* name;
  Crc32UpdateFn fn;
};

// Every kernel this CPU can run, in dispatch order: the fastest first,
// slicing-by-8 always last; the dispatch picks the first. Resolved once.
const std::vector<Crc32Kernel>& Crc32SupportedKernels();

// The dispatch-selected kernel itself. Calling it is equivalent to
// Crc32Update without the (already tiny) dispatch-load indirection; exposed
// so benches can time exactly what production uses.
Crc32UpdateFn Crc32ActiveKernel();

// Name of the dispatch-selected kernel: "x86-vpclmul", "x86-pclmul",
// "armv8-crc32" or "slicing-by-8". Stable across the process lifetime
// (resolved once).
const char* Crc32ImplementationName();

}  // namespace gemini

#endif  // SRC_COMMON_CRC32_H_
