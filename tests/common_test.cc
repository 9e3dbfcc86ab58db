// Tests for src/common: status, units, rng, stats, crc32, table printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"
#include "tests/crc32_reference.h"

namespace gemini {
namespace {

// ---------------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = NotFoundError("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing thing");
  EXPECT_EQ(status.ToString(), "not_found: missing thing");
}

TEST(StatusTest, EveryFactoryProducesMatchingCode) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(DeadlineExceededError("x").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(AbortedError("x").code(), StatusCode::kAborted);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFoundError("a"), NotFoundError("a"));
  EXPECT_FALSE(NotFoundError("a") == NotFoundError("b"));
  EXPECT_FALSE(NotFoundError("a") == InternalError("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(0), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = InternalError("boom");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result = std::string("payload");
  const std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Status UseMacros(int x, int& out) {
  GEMINI_ASSIGN_OR_RETURN(const int half, Half(x));
  GEMINI_RETURN_IF_ERROR(Status::Ok());
  out = half;
  return Status::Ok();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseMacros(10, out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseMacros(3, out).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

TEST(UnitsTest, ByteConstants) {
  EXPECT_EQ(kKiB, 1024);
  EXPECT_EQ(kMiB, 1024 * 1024);
  EXPECT_EQ(GiB(2), 2LL * 1024 * 1024 * 1024);
  EXPECT_EQ(MiB(1.5), 1536 * 1024);
}

TEST(UnitsTest, TimeConstants) {
  EXPECT_EQ(Seconds(1), kSecond);
  EXPECT_EQ(Minutes(2), 120 * kSecond);
  EXPECT_EQ(Hours(1), 3600 * kSecond);
  EXPECT_DOUBLE_EQ(ToSeconds(Millis(1500)), 1.5);
}

TEST(UnitsTest, BandwidthConversionRoundTrips) {
  const BytesPerSecond bw = GbpsToBytesPerSecond(400);
  EXPECT_DOUBLE_EQ(bw, 50e9);
  EXPECT_DOUBLE_EQ(BytesPerSecondToGbps(bw), 400.0);
}

TEST(UnitsTest, TransferTimeMatchesArithmetic) {
  // 50 GB at 50 GB/s = 1 s.
  EXPECT_EQ(TransferTime(50'000'000'000, 50e9), kSecond);
  EXPECT_EQ(TransferTime(0, 1e9), 0);
}

TEST(UnitsTest, TransferTimeRoundsUp) {
  // 1 byte at 1 GB/s is 1 ns exactly; 3 bytes at 2 GB/s rounds up to 2 ns.
  EXPECT_EQ(TransferTime(1, 1e9), 1);
  EXPECT_EQ(TransferTime(3, 2e9), 2);
}

TEST(UnitsTest, FormatBytesPicksUnit) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * kKiB), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3 * kMiB), "3.00 MiB");
  EXPECT_EQ(FormatBytes(GiB(9.4)), "9.40 GiB");
}

TEST(UnitsTest, FormatDurationPicksUnit) {
  EXPECT_EQ(FormatDuration(500), "500 ns");
  EXPECT_EQ(FormatDuration(Micros(12)), "12.000 us");
  EXPECT_EQ(FormatDuration(Millis(3)), "3.000 ms");
  EXPECT_EQ(FormatDuration(Seconds(62)), "1.03 min");
  EXPECT_EQ(FormatDuration(Hours(3)), "3.00 h");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextU64() != b.NextU64()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 12);
}

TEST(RngTest, NextU64BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextU64Below(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialHasExpectedMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(2.0);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, NormalHasExpectedMoments) {
  Rng rng(17);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.Add(rng.Normal(5.0, 2.0));
  }
  EXPECT_NEAR(stat.mean(), 5.0, 0.1);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(21);
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<int> sample = rng.SampleWithoutReplacement(10, 4);
    ASSERT_EQ(sample.size(), 4u);
    std::set<int> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 4u);
    for (const int v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 10);
    }
  }
}

TEST(RngTest, SampleFullPopulationIsPermutation) {
  Rng rng(23);
  const std::vector<int> sample = rng.SampleWithoutReplacement(6, 6);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 6u);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(25);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng forked = a.Fork();
  EXPECT_NE(a.NextU64(), forked.NextU64());
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0);
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.stddev(), 0.0);
}

TEST(RunningStatTest, BasicMoments) {
  RunningStat stat;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stat.Add(x);
  }
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_NEAR(stat.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(stat.min(), 2.0);
  EXPECT_EQ(stat.max(), 9.0);
  EXPECT_EQ(stat.sum(), 40.0);
}

TEST(RunningStatTest, NormalizedStddev) {
  RunningStat stat;
  stat.Add(9.0);
  stat.Add(11.0);
  EXPECT_NEAR(stat.normalized_stddev(), std::sqrt(2.0) / 10.0, 1e-12);
}

TEST(QuantileSketchTest, QuantilesOfKnownData) {
  QuantileSketch sketch;
  for (int i = 1; i <= 100; ++i) {
    sketch.Add(i);
  }
  EXPECT_NEAR(sketch.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(sketch.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(sketch.Quantile(0.5), 50.5, 1e-9);
}

TEST(QuantileSketchTest, InterleavedAddAndQuery) {
  QuantileSketch sketch;
  sketch.Add(10.0);
  EXPECT_EQ(sketch.Quantile(0.5), 10.0);
  sketch.Add(20.0);
  EXPECT_EQ(sketch.Quantile(1.0), 20.0);
}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char data[] = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(nullptr, 0), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t oneshot = Crc32(data.data(), data.size());
  uint32_t crc = 0;
  crc = Crc32Update(crc, data.data(), 10);
  crc = Crc32Update(crc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc, oneshot);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "checkpoint payload bytes";
  const uint32_t clean = Crc32(data.data(), data.size());
  data[5] ^= 1;
  EXPECT_NE(Crc32(data.data(), data.size()), clean);
}

TEST(Crc32Test, IncrementalMatchesOneShotAtEverySplitPoint) {
  // The sliced kernel takes different code paths depending on how the length
  // decomposes into 8-byte blocks plus a tail, and Crc32Update must chain
  // across any split — including splits that land mid-block.
  Rng rng(0x51C3DA7A);
  std::vector<uint8_t> data(97);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  const uint32_t oneshot = Crc32(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32Update(0, data.data(), split);
    crc = Crc32Update(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, oneshot) << "split at " << split;
  }
}

TEST(Crc32Test, SlicedKernelMatchesBytewiseReference) {
  // Slicing-by-8 must be a pure speedup: bit-identical to the byte-at-a-time
  // reference on every length (0..64 exercises all block/tail combinations)
  // and on larger random buffers.
  Rng rng(0xC4C32);
  for (size_t length = 0; length <= 64; ++length) {
    std::vector<uint8_t> data(length);
    for (auto& byte : data) {
      byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    EXPECT_EQ(Crc32Update(0, data.data(), length),
              Crc32UpdateBytewise(0, data.data(), length))
        << "length " << length;
  }
  std::vector<uint8_t> big(64 * 1024 + 13);
  for (auto& byte : big) {
    byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  EXPECT_EQ(Crc32Update(0, big.data(), big.size()),
            Crc32UpdateBytewise(0, big.data(), big.size()));
  // Also with a nonzero running CRC, as the incremental path produces.
  const uint32_t seed_crc = Crc32(big.data(), 17);
  EXPECT_EQ(Crc32Update(seed_crc, big.data(), big.size()),
            Crc32UpdateBytewise(seed_crc, big.data(), big.size()));
}

TEST(Crc32Test, ImplementationNameIsKnownAndStable) {
  const char* name = Crc32ImplementationName();
  ASSERT_NE(name, nullptr);
  const std::string impl(name);
  EXPECT_TRUE(impl == "x86-vpclmul" || impl == "x86-pclmul" || impl == "armv8-crc32" ||
              impl == "slicing-by-8")
      << impl;
  // Resolved once: every later call reports the same implementation.
  EXPECT_EQ(std::string(Crc32ImplementationName()), impl);
  EXPECT_EQ(Crc32ActiveKernel(), Crc32ActiveKernel());
  // The active kernel is one of the supported ones, and slicing-by-8 is
  // always supported, last.
  const std::vector<Crc32Kernel>& kernels = Crc32SupportedKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(std::string(kernels.back().name), "slicing-by-8");
  EXPECT_TRUE(std::any_of(kernels.begin(), kernels.end(), [&](const Crc32Kernel& kernel) {
    return kernel.fn == Crc32ActiveKernel() && impl == kernel.name;
  }));
}

TEST(Crc32Test, DispatchedKernelsAgreeOnRandomizedBuffers) {
  // Every kernel this CPU can run (not only the dispatched one) must be
  // bit-identical to the bytewise reference: on every length up to 600 bytes
  // and on multiples of 256 +- 15 (each folding kernel's cutoffs and block
  // remainders), on random lengths up to 1 MiB, at unaligned starting
  // offsets, and with nonzero running CRCs.
  Rng rng(0xD15Fa7c4);
  std::vector<uint8_t> arena(1 << 20);
  for (auto& byte : arena) {
    byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  std::vector<size_t> lengths;
  for (size_t length = 0; length <= 600; ++length) {
    lengths.push_back(length);
  }
  for (size_t blocks = 1; blocks <= 40; ++blocks) {
    for (size_t delta = 0; delta <= 30; ++delta) {
      lengths.push_back(256 * blocks + delta - 15);
    }
  }
  for (int trial = 0; trial < 32; ++trial) {
    lengths.push_back(static_cast<size_t>(rng.UniformInt(0, static_cast<int>(arena.size()) - 32)));
  }
  for (const Crc32Kernel& kernel : Crc32SupportedKernels()) {
    for (size_t trial = 0; trial < lengths.size(); ++trial) {
      const size_t length = lengths[trial];
      const size_t offset = static_cast<size_t>(rng.UniformInt(0, 31));
      const uint8_t* data = arena.data() + offset;
      const uint32_t seed_crc =
          trial % 8 == 0 ? 0u : static_cast<uint32_t>(rng.NextU64Below(1ull << 32));
      ASSERT_EQ(kernel.fn(seed_crc, data, length), Crc32UpdateBytewise(seed_crc, data, length))
          << kernel.name << " offset " << offset << " length " << length << " crc " << seed_crc;
    }
  }
}

TEST(Crc32Test, DispatchedKernelChainsAcrossArbitrarySplits) {
  // Incremental updates through every supported kernel must agree with the
  // bytewise reference at any split point, including splits inside the
  // folding kernels' blocks.
  Rng rng(0x5E63E575);
  std::vector<uint8_t> data(4096 + 21);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  const uint32_t reference = Crc32UpdateBytewise(0, data.data(), data.size());
  for (const Crc32Kernel& kernel : Crc32SupportedKernels()) {
    for (int trial = 0; trial < 48; ++trial) {
      const size_t split = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(data.size())));
      uint32_t crc = kernel.fn(0, data.data(), split);
      crc = kernel.fn(crc, data.data() + split, data.size() - split);
      EXPECT_EQ(crc, reference) << kernel.name << " split at " << split;
    }
  }
}

// Combining is kernel-independent arithmetic, so it must agree with every
// kernel's CRC of the concatenation: the dispatched one and the bytewise
// reference.
TEST(Crc32Test, CombineMatchesConcatenation) {
  Rng rng(0xC0B1);
  std::vector<uint8_t> data(600);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  for (size_t length_a = 0; length_a <= 300; ++length_a) {
    for (size_t length_b = 0; length_b <= 300; ++length_b) {
      const uint32_t crc_a = Crc32(data.data(), length_a);
      const uint32_t crc_b = Crc32(data.data() + length_a, length_b);
      const uint32_t whole = Crc32(data.data(), length_a + length_b);
      ASSERT_EQ(Crc32Combine(crc_a, crc_b, length_b), whole)
          << "length_a " << length_a << " length_b " << length_b;
    }
  }
  EXPECT_EQ(Crc32Combine(Crc32UpdateBytewise(0, data.data(), 17),
                         Crc32UpdateBytewise(0, data.data() + 17, 583), 583),
            Crc32UpdateBytewise(0, data.data(), data.size()));
  // Large lengths exercise the high operator powers.
  std::vector<uint8_t> big(3 << 20);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }
  const size_t split = 12345;
  EXPECT_EQ(Crc32Combine(Crc32(big.data(), split), Crc32(big.data() + split, big.size() - split),
                         big.size() - split),
            Crc32(big.data(), big.size()));
}

TEST(Crc32Test, FromBlocksHandlesTailShapes) {
  Rng rng(0xB10C);
  std::vector<uint8_t> data(4096 * 3 + 100);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  auto block_crcs = [&](size_t block_bytes, size_t total_bytes) {
    std::vector<uint32_t> crcs;
    for (size_t begin = 0; begin < total_bytes; begin += block_bytes) {
      crcs.push_back(Crc32(data.data() + begin, std::min(block_bytes, total_bytes - begin)));
    }
    return crcs;
  };
  struct Shape {
    size_t block_bytes;
    size_t total_bytes;
  };
  for (const Shape shape : {Shape{4096, 4096},        // one whole block
                            Shape{4096, 1000},        // one short block
                            Shape{4096, 3 * 4096},    // an exact multiple
                            Shape{4096, data.size()}, // a short tail
                            Shape{28, data.size()},   // many small blocks
                            Shape{1, 33}, Shape{7, 0}}) {
    const std::vector<uint32_t> crcs = block_crcs(shape.block_bytes, shape.total_bytes);
    EXPECT_EQ(Crc32FromBlocks(crcs.data(), shape.block_bytes, shape.total_bytes),
              Crc32(data.data(), shape.total_bytes))
        << "block " << shape.block_bytes << " total " << shape.total_bytes;
  }
}

// ---------------------------------------------------------------------------
// TablePrinter
// ---------------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name      | value"), std::string::npos);
  EXPECT_NE(out.find("long-name | 22"), std::string::npos);
}

TEST(TablePrinterTest, PadsMissingCells) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"1"});
  EXPECT_NE(table.ToString().find("1"), std::string::npos);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(static_cast<int64_t>(42)), "42");
}

}  // namespace
}  // namespace gemini
