// Binary checkpoint serialization (the torch.save / torch.load analogue).
//
// Format (little-endian):
//   magic "GMCK" | u32 version | i32 owner | i64 iteration | i64 logical
//   | u64 payload_count | payload floats | u32 crc32(everything before crc)
//
// Deserialize verifies magic, version, and CRC, so a recovery path can never
// silently load torn or corrupted state.
#ifndef SRC_STORAGE_SERIALIZER_H_
#define SRC_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/storage/checkpoint.h"

namespace gemini {

std::vector<uint8_t> SerializeCheckpoint(const Checkpoint& checkpoint);

StatusOr<Checkpoint> DeserializeCheckpoint(const std::vector<uint8_t>& bytes);

}  // namespace gemini

#endif  // SRC_STORAGE_SERIALIZER_H_
