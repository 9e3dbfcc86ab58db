#include "src/common/crc32.h"

#include <array>
#include <bit>
#include <cstring>
#include <vector>

// Hardware kernels are compiled only where the ISA extension exists; other
// hosts compile slicing-by-8 alone. The *runtime* choice additionally checks
// CPUID/HWCAP, once, at first use.
#if defined(__GNUC__)
#if defined(__x86_64__)
#define GEMINI_CRC32_HW_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__linux__)
#define GEMINI_CRC32_HW_ARM 1
#include <arm_acle.h>
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif
#endif

namespace gemini {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

// Table 0 is the classic byte-wise table; table k folds a byte that sits k
// positions ahead of the CRC register, so eight tables consume eight input
// bytes per step (slicing-by-8, Intel's "Slicing-by-8" CRC technique).
struct SlicingTables {
  std::array<std::array<uint32_t, 256>, 8> t;
};

SlicingTables BuildTables() {
  SlicingTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables.t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = tables.t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

const SlicingTables& Tables() {
  static const SlicingTables tables = BuildTables();
  return tables;
}

// The portable kernel, and the tail of the folding kernels.
uint32_t Crc32UpdateSlicing8(uint32_t crc, const void* data, size_t length) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  const auto& t = Tables().t;
  uint32_t c = crc ^ 0xFFFFFFFFu;
  // The sliced loop folds the CRC register into the first four input bytes,
  // which is only correct when the 32-bit load below matches the register's
  // byte order; a big-endian target runs the byte loop alone.
  while (std::endian::native == std::endian::little && length >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, bytes, sizeof(lo));
    std::memcpy(&hi, bytes + 4, sizeof(hi));
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    bytes += 8;
    length -= 8;
  }
  const auto& table = t[0];
  while (length-- > 0) {
    c = table[(c ^ *bytes++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// v(x)·x mod P in the reflected domain (bit 31 is x^0). Branch-free: the
// low bit of a CRC is random, so a branch on it mispredicts half the time.
constexpr uint32_t MultXModP(uint32_t v) { return (v >> 1) ^ (kPolynomial & (0u - (v & 1u))); }

// a(x)·b(x) mod P in the reflected domain; stops after a's highest power,
// so it is cheapest when `a` is a low power of x.
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (; a != 0; a <<= 1) {
    product ^= b & (0u - (a >> 31));
    b = MultXModP(b);
  }
  return product;
}

// kX2nTable[k] = x^(2^k) mod P. The multiplicative order of x mod P divides
// 2^32 - 1, so the powers cycle with period 32 in k.
constexpr std::array<uint32_t, 32> BuildX2nTable() {
  std::array<uint32_t, 32> table{};
  uint32_t p = 1u << 30;  // x^1
  for (uint32_t& entry : table) {
    entry = p;
    p = MultModP(p, p);
  }
  return table;
}

constexpr std::array<uint32_t, 32> kX2nTable = BuildX2nTable();

// x^(8·bytes) mod P: multiplying a CRC by it appends `bytes` zero bytes.
constexpr uint32_t XPow8n(size_t bytes) {
  uint32_t power = 1u << 31;  // x^0
  for (size_t k = 3; bytes != 0; bytes >>= 1, ++k) {
    if ((bytes & 1u) != 0) {
      power = MultModP(power, kX2nTable[k & 31]);
    }
  }
  return power;
}

// The same "append `bytes` zero bytes" map as a 32×32 GF(2) matrix,
// tabulated per input nibble: applying it is eight independent lookups
// instead of MultModP's 32 dependent steps. The 128-entry build pays off
// when one length is applied to many CRCs (Crc32FromBlocks).
class ZeroBytesOperator {
 public:
  explicit ZeroBytesOperator(size_t bytes) {
    // Column i is the image of CRC bit i, i.e. of x^(31-i).
    std::array<uint32_t, 32> column{};
    uint32_t image = XPow8n(bytes);
    for (size_t i = 32; i-- > 0;) {
      column[i] = image;
      image = MultXModP(image);
    }
    for (size_t nibble = 0; nibble < 8; ++nibble) {
      std::array<uint32_t, 16>& table = table_[nibble];
      table[0] = 0;
      for (uint32_t value = 1; value < 16; ++value) {
        table[value] =
            table[value & (value - 1)] ^ column[4 * nibble + std::countr_zero(value)];
      }
    }
  }

  uint32_t Apply(uint32_t crc) const {
    uint32_t out = 0;
    for (size_t nibble = 0; nibble < 8; ++nibble) {
      out ^= table_[nibble][(crc >> (4 * nibble)) & 0xFu];
    }
    return out;
  }

 private:
  std::array<std::array<uint32_t, 16>, 8> table_;
};

#if defined(GEMINI_CRC32_HW_X86)

// PCLMUL folding for the *IEEE* polynomial (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ", reflected domain).
// SSE4.2's crc32 instruction is useless here — it hard-wires the Castagnoli
// polynomial — so the reduction is built from carry-less multiplies instead.
// Each fold constant is the reflected x^(d±32) mod P for a fold distance of
// d bits (the low qword takes d+32): k1/k2 fold across 512 bits, k3/k4 across
// 128, k5 shifts 64->96 bits, and `poly` packs P(x) with its Barrett inverse
// mu.
//
// The kernels operate on the *raw* shift-register state (no 0xFFFFFFFF
// pre/post conditioning) and want whole 16-byte blocks; the dispatch wrappers
// below handle conditioning, short buffers and the tail.
constexpr int64_t kFold512Lo = 0x0154442bd4;
constexpr int64_t kFold512Hi = 0x01c6e41596;

// One fold step of a 128-bit lane across the distance its constant encodes:
// lane.lo·k.lo ⊕ lane.hi·k.hi ⊕ next.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline __m128i Fold128(__m128i lane,
                                                                              __m128i k,
                                                                              __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// The shared tail of both x86 kernels: collapses four 128-bit lanes that sit
// 128 bits apart into one, folds in the remaining 16-byte blocks, and brings
// the 128-bit remainder down to the 32-bit CRC (128 -> 64 bits, then a
// Barrett reduction).
__attribute__((target("pclmul,sse4.1"), always_inline)) inline uint32_t CollapseAndReduce(
    __m128i lane0, __m128i lane1, __m128i lane2, __m128i lane3, const uint8_t* bytes,
    size_t length) {
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);

  __m128i acc = Fold128(lane0, k3k4, lane1);
  acc = Fold128(acc, k3k4, lane2);
  acc = Fold128(acc, k3k4, lane3);
  while (length >= 16) {
    acc = Fold128(acc, k3k4, _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes)));
    bytes += 16;
    length -= 16;
  }

  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i folded = _mm_clmulepi64_si128(acc, k3k4, 0x10);
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8), folded);

  folded = _mm_srli_si128(acc, 4);
  acc = _mm_and_si128(acc, mask32);
  acc = _mm_clmulepi64_si128(acc, k5, 0x00);
  acc = _mm_xor_si128(acc, folded);

  folded = _mm_and_si128(acc, mask32);
  folded = _mm_clmulepi64_si128(folded, poly, 0x10);
  folded = _mm_and_si128(folded, mask32);
  folded = _mm_clmulepi64_si128(folded, poly, 0x00);
  acc = _mm_xor_si128(acc, folded);

  return static_cast<uint32_t>(_mm_extract_epi32(acc, 1));
}

// Four 128-bit lanes fold 64 input bytes per step. Requires length >= 64.
__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32PclmulKernel(uint32_t state,
                                                                    const uint8_t* bytes,
                                                                    size_t length) {
  const __m128i k1k2 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  __m128i lane0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 0x00));
  __m128i lane1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 0x10));
  __m128i lane2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 0x20));
  __m128i lane3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 0x30));
  lane0 = _mm_xor_si128(lane0, _mm_cvtsi32_si128(static_cast<int>(state)));
  bytes += 64;
  length -= 64;

  while (length >= 64) {
    lane0 = Fold128(lane0, k1k2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 0x00)));
    lane1 = Fold128(lane1, k1k2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 0x10)));
    lane2 = Fold128(lane2, k1k2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 0x20)));
    lane3 = Fold128(lane3, k1k2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 0x30)));
    bytes += 64;
    length -= 64;
  }
  return CollapseAndReduce(lane0, lane1, lane2, lane3, bytes, length);
}

// One fold step of four 128-bit lanes at once (VPCLMULQDQ on 512-bit
// registers); the three-way XOR is one ternary-logic instruction.
__attribute__((target("avx512f,avx512bw,avx512vl,vpclmulqdq,pclmul,sse4.1"),
               always_inline)) inline __m512i
Fold512(__m512i lanes, __m512i k, __m512i next) {
  const __m512i lo = _mm512_clmulepi64_epi128(lanes, k, 0x00);
  const __m512i hi = _mm512_clmulepi64_epi128(lanes, k, 0x11);
  return _mm512_ternarylogic_epi64(hi, lo, next, 0x96);
}

// Four 512-bit lanes fold 256 input bytes per step. The lanes then collapse
// to one across 512 bits (k1/k2 in every 128-bit lane), which folds in the
// remaining 64-byte blocks, and its four 128-bit lanes go to the shared
// tail. Requires length >= 256.
__attribute__((target("avx512f,avx512bw,avx512vl,vpclmulqdq,pclmul,sse4.1"))) uint32_t
Crc32VpclmulKernel(uint32_t state, const uint8_t* bytes, size_t length) {
  // Reflected x^(2048+32) and x^(2048-32) mod P: a fold across 2048 bits.
  // (Constants are spelled out per lane: GCC 12's broadcast and lane-extract
  // intrinsics draw -Wuninitialized.)
  const __m512i k2048 = _mm512_set_epi64(0x01322d1430, 0x011542778a, 0x01322d1430, 0x011542778a,
                                         0x01322d1430, 0x011542778a, 0x01322d1430, 0x011542778a);
  const __m512i k512 = _mm512_set_epi64(kFold512Hi, kFold512Lo, kFold512Hi, kFold512Lo,
                                        kFold512Hi, kFold512Lo, kFold512Hi, kFold512Lo);
  __m512i lanes0 = _mm512_loadu_si512(bytes + 0x00);
  __m512i lanes1 = _mm512_loadu_si512(bytes + 0x40);
  __m512i lanes2 = _mm512_loadu_si512(bytes + 0x80);
  __m512i lanes3 = _mm512_loadu_si512(bytes + 0xC0);
  lanes0 = _mm512_xor_si512(lanes0,
                            _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(state))));
  bytes += 256;
  length -= 256;

  while (length >= 256) {
    lanes0 = Fold512(lanes0, k2048, _mm512_loadu_si512(bytes + 0x00));
    lanes1 = Fold512(lanes1, k2048, _mm512_loadu_si512(bytes + 0x40));
    lanes2 = Fold512(lanes2, k2048, _mm512_loadu_si512(bytes + 0x80));
    lanes3 = Fold512(lanes3, k2048, _mm512_loadu_si512(bytes + 0xC0));
    bytes += 256;
    length -= 256;
  }

  __m512i acc = Fold512(lanes0, k512, lanes1);
  acc = Fold512(acc, k512, lanes2);
  acc = Fold512(acc, k512, lanes3);
  while (length >= 64) {
    acc = Fold512(acc, k512, _mm512_loadu_si512(bytes));
    bytes += 64;
    length -= 64;
  }
  alignas(64) __m128i lanes[4];
  _mm512_store_si512(lanes, acc);
  return CollapseAndReduce(lanes[0], lanes[1], lanes[2], lanes[3], bytes, length);
}

// Runs `kernel` over the whole 16-byte blocks of a buffer of at least
// `min_length` bytes; the tail (< 16 bytes) continues through the table loop
// on the same register state, and shorter buffers go to `shorter`.
template <uint32_t (*kernel)(uint32_t, const uint8_t*, size_t), size_t min_length,
          Crc32UpdateFn shorter>
uint32_t Crc32UpdateFolding(uint32_t crc, const void* data, size_t length) {
  if (length < min_length) {
    return shorter(crc, data, length);
  }
  const auto* bytes = static_cast<const uint8_t*>(data);
  const size_t folded = length & ~static_cast<size_t>(15);
  const uint32_t state = kernel(crc ^ 0xFFFFFFFFu, bytes, folded);
  return Crc32UpdateSlicing8(state ^ 0xFFFFFFFFu, bytes + folded, length - folded);
}

constexpr Crc32UpdateFn kCrc32UpdatePclmul =
    &Crc32UpdateFolding<&Crc32PclmulKernel, 64, &Crc32UpdateSlicing8>;
constexpr Crc32UpdateFn kCrc32UpdateVpclmul =
    &Crc32UpdateFolding<&Crc32VpclmulKernel, 256, kCrc32UpdatePclmul>;

#elif defined(GEMINI_CRC32_HW_ARM)

// ARMv8 CRC32 extension: __crc32{b,h,w,d} use the IEEE polynomial directly,
// eight bytes per instruction. HWCAP-gated at dispatch time.
__attribute__((target("+crc"))) uint32_t Crc32UpdateArm(uint32_t crc, const void* data,
                                                        size_t length) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  while (length >= 8) {
    uint64_t v;
    std::memcpy(&v, bytes, sizeof(v));
    c = __crc32d(c, v);
    bytes += 8;
    length -= 8;
  }
  if (length >= 4) {
    uint32_t v;
    std::memcpy(&v, bytes, sizeof(v));
    c = __crc32w(c, v);
    bytes += 4;
    length -= 4;
  }
  if (length >= 2) {
    uint16_t v;
    std::memcpy(&v, bytes, sizeof(v));
    c = __crc32h(c, v);
    bytes += 2;
    length -= 2;
  }
  if (length > 0) {
    c = __crc32b(c, *bytes);
  }
  return c ^ 0xFFFFFFFFu;
}

#endif  // hardware kernels

std::vector<Crc32Kernel> ResolveSupportedKernels() {
  std::vector<Crc32Kernel> kernels;
#if defined(GEMINI_CRC32_HW_X86)
  const bool pclmul = __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  if (pclmul && __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("vpclmulqdq")) {
    kernels.push_back({"x86-vpclmul", kCrc32UpdateVpclmul});
  }
  if (pclmul) {
    kernels.push_back({"x86-pclmul", kCrc32UpdatePclmul});
  }
#elif defined(GEMINI_CRC32_HW_ARM)
  if ((getauxval(AT_HWCAP) & HWCAP_CRC32) != 0) {
    kernels.push_back({"armv8-crc32", &Crc32UpdateArm});
  }
#endif
  kernels.push_back({"slicing-by-8", &Crc32UpdateSlicing8});
  return kernels;
}

const Crc32Kernel& ActiveCrc32() {
  // Resolved once, on first use, thread-safely (magic static).
  static const Crc32Kernel active = Crc32SupportedKernels().front();
  return active;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t length) {
  return ActiveCrc32().fn(crc, data, length);
}

const std::vector<Crc32Kernel>& Crc32SupportedKernels() {
  static const std::vector<Crc32Kernel> kernels = ResolveSupportedKernels();
  return kernels;
}

Crc32UpdateFn Crc32ActiveKernel() { return ActiveCrc32().fn; }

const char* Crc32ImplementationName() { return ActiveCrc32().name; }

uint32_t Crc32(const void* data, size_t length) { return Crc32Update(0, data, length); }

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t length_b) {
  return MultModP(XPow8n(length_b), crc_a) ^ crc_b;
}

uint32_t Crc32FromBlocks(const uint32_t* block_crcs, size_t block_bytes, size_t total_bytes) {
  if (total_bytes == 0) {
    return 0;
  }
  // The last block holds the remainder (a whole block when it divides).
  const size_t last = (total_bytes - 1) / block_bytes;
  uint32_t crc = block_crcs[0];
  if (last > 1) {
    const ZeroBytesOperator append_block(block_bytes);
    for (size_t i = 1; i < last; ++i) {
      crc = append_block.Apply(crc) ^ block_crcs[i];
    }
  }
  return last == 0 ? crc : Crc32Combine(crc, block_crcs[last], total_bytes - last * block_bytes);
}

}  // namespace gemini
