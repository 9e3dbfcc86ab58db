// The textbook one-byte-per-step CRC-32 (IEEE 802.3, reflected) table loop:
// the definition every kernel in src/common/crc32.h is tested against, and
// the perf bench's speed baseline. Not linked into the library.
#ifndef TESTS_CRC32_REFERENCE_H_
#define TESTS_CRC32_REFERENCE_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace gemini {

inline constexpr std::array<uint32_t, 256> kCrc32BytewiseTable = [] {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}();

// Same contract as Crc32Update: pass the previous return value as `crc`.
inline uint32_t Crc32UpdateBytewise(uint32_t crc, const void* data, size_t length) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < length; ++i) {
    c = kCrc32BytewiseTable[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace gemini

#endif  // TESTS_CRC32_REFERENCE_H_
