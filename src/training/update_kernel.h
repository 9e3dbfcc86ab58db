// The trainer's deterministic optimizer step as one range kernel:
//
//   out[i] = in[i] * 0.999f + UpdateDelta(seed, iteration, rank, first + i)
//
// for i in [0, count), where UpdateDelta is a 64-bit integer hash of its
// arguments mapped to [-0.5, 0.5) — a stand-in for a gradient step that makes
// divergence detectable at single-bit resolution. Dense steps, sparse chunks
// and replay all go through it, so every path produces the same bits.
//
// UpdateDelta mixes x = seed ^ iteration·C1 ^ (rank + 1)·C2 ^ (element + 1)·C3
// through a splitmix64 finalizer and maps its top 53 bits k to
// (k - 2^52)·2^-53. The loop hoists the seed, iteration and rank terms and
// steps the element term by C3 per element instead of multiplying. The map
// is one exact int64 subtraction, one int64->float conversion (the only
// rounding) and an exact scaling by 2^-53: the same bits as the first
// version's float(k·2^-53 - 0.5), whose double expression was exact.
//
// One loop body is compiled twice and selected once at startup through a
// function pointer, the way the CRC-32 dispatch works (src/common/crc32.h):
//  * avx512 — the body under target("avx512f,avx512dq"), where the compiler
//    vectorizes the hash (64-bit lane multiplies, int64->float conversion);
//    dispatched when the CPU and OS support AVX-512F/DQ.
//  * portable — the same body for the baseline ISA; the fallback elsewhere.
// Both are bit-identical: the TU is compiled without floating-point
// contraction (a fused multiply-add would round once instead of twice), and
// each operation is the same IEEE operation in every lane. The tests compare
// both with the per-element formula (tests/training_test.cc).
#ifndef SRC_TRAINING_UPDATE_KERNEL_H_
#define SRC_TRAINING_UPDATE_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace gemini {

// Applies the update to `count` elements whose shard indices start at
// `first`. `out == in` updates in place; otherwise the ranges must not
// overlap. Dispatches to the fastest variant the CPU supports.
void ApplyUpdate(uint64_t seed, int64_t iteration, int rank, size_t first, size_t count,
                 const float* in, float* out);

// The portable variant, callable directly so the tests and the perf bench
// can run it on hosts that dispatch the AVX-512 one.
void ApplyUpdatePortable(uint64_t seed, int64_t iteration, int rank, size_t first, size_t count,
                         const float* in, float* out);

// Name of the dispatch-selected variant: "avx512" or "portable". Stable
// across the process lifetime (resolved once).
const char* UpdateKernelName();

}  // namespace gemini

#endif  // SRC_TRAINING_UPDATE_KERNEL_H_
