#include "src/storage/serializer.h"

#include <array>
#include <cstring>

#include "src/common/crc32.h"

namespace gemini {
namespace {

constexpr std::array<uint8_t, 4> kMagic = {'G', 'M', 'C', 'K'};
constexpr uint32_t kVersion = 1;

template <typename T>
void Append(std::vector<uint8_t>& out, const T& value) {
  const size_t offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

template <typename T>
bool Read(const std::vector<uint8_t>& in, size_t& offset, T& value) {
  if (offset + sizeof(T) > in.size()) {
    return false;
  }
  std::memcpy(&value, in.data() + offset, sizeof(T));
  offset += sizeof(T);
  return true;
}

}  // namespace

// GCC 12's inliner raises false-positive -Wstringop-overflow/-Warray-bounds
// diagnostics for byte appends into a growing std::vector (GCC bug 105705).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif
std::vector<uint8_t> SerializeCheckpoint(const Checkpoint& checkpoint) {
  std::vector<uint8_t> out;
  out.reserve(40 + checkpoint.payload.size_bytes() + sizeof(uint32_t));
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  Append(out, kVersion);
  Append(out, static_cast<int32_t>(checkpoint.owner_rank));
  Append(out, static_cast<int64_t>(checkpoint.iteration));
  Append(out, static_cast<int64_t>(checkpoint.logical_bytes));
  Append(out, static_cast<uint64_t>(checkpoint.payload.size()));
  const size_t payload_offset = out.size();
  out.resize(payload_offset + checkpoint.payload.size_bytes());
  if (!checkpoint.payload.empty()) {
    std::memcpy(out.data() + payload_offset, checkpoint.payload.data(),
                checkpoint.payload.size_bytes());
  }
  const uint32_t crc = Crc32(out.data(), out.size());
  Append(out, crc);
  return out;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

StatusOr<Checkpoint> DeserializeCheckpoint(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kMagic.size() + sizeof(uint32_t)) {
    return DataLossError("checkpoint blob truncated");
  }
  if (std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) != 0) {
    return DataLossError("checkpoint blob has bad magic");
  }
  // CRC covers everything before the trailing u32.
  const size_t body_size = bytes.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + body_size, sizeof(uint32_t));
  if (Crc32(bytes.data(), body_size) != stored_crc) {
    return DataLossError("checkpoint blob failed CRC check");
  }

  size_t offset = kMagic.size();
  uint32_t version = 0;
  int32_t owner = 0;
  int64_t iteration = 0;
  int64_t logical = 0;
  uint64_t count = 0;
  if (!Read(bytes, offset, version) || version != kVersion) {
    return DataLossError("checkpoint blob has unsupported version");
  }
  if (!Read(bytes, offset, owner) || !Read(bytes, offset, iteration) ||
      !Read(bytes, offset, logical) || !Read(bytes, offset, count)) {
    return DataLossError("checkpoint blob header truncated");
  }
  if (offset + count * sizeof(float) > body_size) {
    return DataLossError("checkpoint blob payload truncated");
  }
  Checkpoint checkpoint;
  checkpoint.owner_rank = owner;
  checkpoint.iteration = iteration;
  checkpoint.logical_bytes = logical;
  std::vector<float> payload(count);
  if (count > 0) {
    std::memcpy(payload.data(), bytes.data() + offset, count * sizeof(float));
  }
  checkpoint.payload = std::move(payload);
  // The stream CRC above already vouched for these bytes; re-stamp the
  // payload digest so in-memory integrity checks keep working downstream.
  checkpoint.StampPayloadCrc();
  return checkpoint;
}

}  // namespace gemini
