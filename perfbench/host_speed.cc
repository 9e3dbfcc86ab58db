#include "perfbench/host_speed.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <string>

namespace perfbench {

namespace {

constexpr size_t kStreamWords = (16 << 20) / sizeof(uint64_t);  // 16 MiB per buffer.
constexpr size_t kStreamSliceWords = (2 << 20) / sizeof(uint64_t);  // Copied per pass.
constexpr size_t kChaseWords = (256 << 10) / sizeof(uint32_t);       // 256 KiB.
constexpr int kChurnKeys = 1500;
constexpr int kChaseSteps = 200000;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

HostSpeed::HostSpeed()
    : stream_a_(kStreamWords), stream_b_(kStreamWords), chase_(kChaseWords) {
  std::iota(stream_a_.begin(), stream_a_.end(), 1);
  // One random cycle through the chase buffer (Sattolo's shuffle).
  std::iota(chase_.begin(), chase_.end(), 0);
  for (size_t i = chase_.size() - 1; i > 0; --i) {
    std::swap(chase_[i], chase_[Mix(i) % i]);
  }
}

double HostSpeed::Sample() {
  const auto start = std::chrono::steady_clock::now();
  // Allocation churn: node-based inserts and erases with small strings.
  std::map<uint64_t, std::string> churn;
  for (int i = 0; i < kChurnKeys; ++i) {
    churn.emplace(Mix(static_cast<uint64_t>(i)), std::string(40, static_cast<char>('a' + i % 26)));
  }
  for (int i = 0; i < kChurnKeys; i += 2) {
    churn.erase(Mix(static_cast<uint64_t>(i)));
  }
  sink_ += churn.size();
  // Streaming copy of the next slice of a buffer pair larger than the
  // last-level cache, plus a pass over the copy.
  const size_t offset = (slowdowns_.size() * kStreamSliceWords) % kStreamWords;
  const auto from = stream_a_.begin() + static_cast<std::ptrdiff_t>(offset);
  const auto to = stream_b_.begin() + static_cast<std::ptrdiff_t>(offset);
  std::copy(from, from + kStreamSliceWords, to);
  sink_ += std::accumulate(to, to + kStreamSliceWords, uint64_t{0});
  // Dependent loads through a cache-resident random cycle.
  uint32_t at = static_cast<uint32_t>(sink_ % chase_.size());
  for (int i = 0; i < kChaseSteps; ++i) {
    at = chase_[at];
  }
  sink_ += at;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  kernel_seconds_ += seconds;
  slowdowns_.push_back(seconds / kNominalSeconds);
  return slowdowns_.back();
}

}  // namespace perfbench
