// The trainer's deterministic optimizer step as one range kernel:
//
//   out[i] = in[i] * 0.999f + UpdateDelta(seed, iteration, rank, first + i)
//
// for i in [0, count), where UpdateDelta is a 64-bit integer hash of its
// arguments mapped to [-0.5, 0.5) — a stand-in for a gradient step that makes
// divergence detectable at single-bit resolution. Dense steps, sparse chunks
// and replay all go through it, so every path produces the same bits.
//
// One loop body is compiled twice and selected once at startup through a
// function pointer, the way the CRC-32 dispatch works (src/common/crc32.h):
//  * avx512 — the body under target("avx512f,avx512dq"), where the compiler
//    vectorizes the hash (64-bit lane multiplies, exact int64->double
//    conversion); dispatched when the CPU and OS support AVX-512F/DQ.
//  * portable — the same body for the baseline ISA; the fallback elsewhere
//    and the reference the equivalence tests compare against.
// Both are bit-identical: the TU is compiled without floating-point
// contraction (a fused multiply-add would round once instead of twice), and
// each operation is the same IEEE operation in every lane.
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

// The portable variant, callable directly so the equivalence tests and the
// perf bench can compare the dispatched variant against it.
void ApplyUpdatePortable(uint64_t seed, int64_t iteration, int rank, size_t first, size_t count,
                         const float* in, float* out);

// Name of the dispatch-selected variant: "avx512" or "portable". Stable
// across the process lifetime (resolved once).
const char* UpdateKernelName();

}  // namespace gemini

#endif  // SRC_TRAINING_UPDATE_KERNEL_H_
