#include "src/training/update_kernel.h"

// Compiled with -ffp-contract=off and GCC's -O3 vectorizer cost model; see
// src/training/CMakeLists.txt for why each is required.

namespace gemini {
namespace {

// C3 of the element term (update_kernel.h), which the loop steps by.
constexpr uint64_t kElementStep = 0x94D049BB133111EBULL;

// UpdateDelta's finalizer and map to [-0.5, 0.5), given the mixed key x. The
// int64 -> float conversion is the only rounding (update_kernel.h).
inline float MixToDelta(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<float>(static_cast<int64_t>(x >> 11) - (int64_t{1} << 52)) * 0x1.0p-53f;
}

// The one loop body, inlined into each variant. In place (`in == out`) the
// vectorizer's overlap check passes: each element is read before it is written.
// The element term (first + i + 1) * kElementStep advances by one addition per
// element (wrapping mod 2^64, like the product): GCC does not strength-reduce
// the multiply itself, and it is one of the three 64-bit lane multiplies.
__attribute__((always_inline)) inline void UpdateLoop(uint64_t seed, int64_t iteration, int rank,
                                                      size_t first, size_t count, const float* in,
                                                      float* out) {
  const uint64_t base = seed ^ (static_cast<uint64_t>(iteration) * 0x9E3779B97F4A7C15ULL) ^
                        ((static_cast<uint64_t>(rank) + 1) * 0xBF58476D1CE4E5B9ULL);
  uint64_t element_term = (static_cast<uint64_t>(first) + 1) * kElementStep;
  for (size_t i = 0; i < count; ++i) {
    out[i] = in[i] * 0.999f + MixToDelta(base ^ element_term);
    element_term += kElementStep;
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define GEMINI_UPDATE_AVX512 1
__attribute__((target("avx512f,avx512dq"))) void ApplyUpdateAvx512(uint64_t seed,
                                                                    int64_t iteration, int rank,
                                                                    size_t first, size_t count,
                                                                    const float* in, float* out) {
  UpdateLoop(seed, iteration, rank, first, count, in, out);
}
#endif

struct UpdateDispatch {
  decltype(&ApplyUpdatePortable) fn;
  const char* name;
};

UpdateDispatch ResolveUpdateDispatch() {
#if defined(GEMINI_UPDATE_AVX512)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
    return {&ApplyUpdateAvx512, "avx512"};
  }
#endif
  return {&ApplyUpdatePortable, "portable"};
}

const UpdateDispatch& ActiveUpdate() {
  // Resolved once, on first use, thread-safely (magic static).
  static const UpdateDispatch dispatch = ResolveUpdateDispatch();
  return dispatch;
}

}  // namespace

void ApplyUpdatePortable(uint64_t seed, int64_t iteration, int rank, size_t first, size_t count,
                         const float* in, float* out) {
  UpdateLoop(seed, iteration, rank, first, count, in, out);
}

void ApplyUpdate(uint64_t seed, int64_t iteration, int rank, size_t first, size_t count,
                 const float* in, float* out) {
  ActiveUpdate().fn(seed, iteration, rank, first, count, in, out);
}

const char* UpdateKernelName() { return ActiveUpdate().name; }

}  // namespace gemini
