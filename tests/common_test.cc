// Unit tests for the common runtime: Status/Result, coding, Random,
// sampling, options validation, timers and logging.
#include <set>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logging.h"
#include "common/options.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "storage/page.h"
#include "test_util.h"

namespace paradise {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_EQ(Status::NotFound("missing thing").message(), "missing thing");
}

TEST(StatusTest, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::IOError("disk gone").ToString(), "IOError: disk gone");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::NotFound("key 7").WithContext("probing dim0");
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "probing dim0: key 7");
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

Status FailIfNegative(int v) {
  if (v < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Propagates(int v) {
  PARADISE_RETURN_IF_ERROR(FailIfNegative(v));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(Propagates(1).ok());
  EXPECT_TRUE(Propagates(-1).IsInvalidArgument());
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::OutOfRange("not positive");
  return v * 2;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_TRUE(ok.status().ok());

  Result<int> bad = ParsePositive(-3);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsOutOfRange());
  EXPECT_EQ(bad.value_or(-1), -1);
}

Result<int> UsesAssignMacro(int v) {
  PARADISE_ASSIGN_OR_RETURN(int doubled, ParsePositive(v));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = UsesAssignMacro(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 11);
  EXPECT_TRUE(UsesAssignMacro(0).status().IsOutOfRange());
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 9);
}

TEST(CodingTest, Fixed32RoundTrip) {
  char buf[4];
  for (uint32_t v : {0u, 1u, 255u, 0xDEADBEEFu, UINT32_MAX}) {
    EncodeFixed32(buf, v);
    EXPECT_EQ(DecodeFixed32(buf), v);
  }
}

TEST(CodingTest, Fixed64RoundTrip) {
  char buf[8];
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{0xDEADBEEFCAFEF00D},
                     UINT64_MAX}) {
    EncodeFixed64(buf, v);
    EXPECT_EQ(DecodeFixed64(buf), v);
  }
}

TEST(CodingTest, Fixed16RoundTrip) {
  char buf[2];
  for (uint16_t v : {uint16_t{0}, uint16_t{1}, uint16_t{65535}}) {
    EncodeFixed16(buf, v);
    EXPECT_EQ(DecodeFixed16(buf), v);
  }
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int differ = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.Next() != b.Next()) ++differ;
  }
  EXPECT_GT(differ, 15);
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, UniformCoversAllValues) {
  Random rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(4);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(SampleTest, ExactCountSortedDistinct) {
  Random rng(11);
  const auto sample = SampleSortedDistinct(10000, 137, &rng);
  ASSERT_EQ(sample.size(), 137u);
  for (size_t i = 1; i < sample.size(); ++i) {
    EXPECT_LT(sample[i - 1], sample[i]);
  }
  EXPECT_LT(sample.back(), 10000u);
}

TEST(SampleTest, FullPopulation) {
  Random rng(12);
  const auto sample = SampleSortedDistinct(20, 20, &rng);
  ASSERT_EQ(sample.size(), 20u);
  for (size_t i = 0; i < 20; ++i) EXPECT_EQ(sample[i], i);
}

TEST(SampleTest, EmptySample) {
  Random rng(13);
  EXPECT_TRUE(SampleSortedDistinct(100, 0, &rng).empty());
}

TEST(SampleTest, RoughlyUniform) {
  // Sampling half of [0, 100) many times: each element should be picked
  // close to half the time.
  std::vector<int> hits(100, 0);
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Random rng(seed);
    for (uint64_t v : SampleSortedDistinct(100, 50, &rng)) ++hits[v];
  }
  for (int h : hits) {
    EXPECT_GT(h, 60);   // expected 100
    EXPECT_LT(h, 140);
  }
}

TEST(OptionsTest, StorageValidation) {
  StorageOptions o;
  EXPECT_OK(o.Validate());
  o.page_size = 1000;  // not a power of two
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o.page_size = 256;  // too small
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o.page_size = 8192;
  o.buffer_pool_pages = 2;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o.buffer_pool_pages = 64;
  o.pages_per_extent = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o.pages_per_extent = 32;
  o.read_only = true;
  o.allow_overwrite = true;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o.read_only = false;
  o.allow_overwrite = false;
  o.read_retry_limit = 65;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
}

TEST(Crc32cTest, KnownAnswerVectors) {
  // Standard CRC32C check value: "123456789" -> 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  // From the iSCSI RFC 3720 test vectors.
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::string ones(32, '\xff');
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "paradise array consolidation";
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t partial = Crc32c(data.data(), split);
    EXPECT_EQ(Crc32cExtend(partial, data.data() + split, data.size() - split),
              Crc32c(data.data(), data.size()))
        << "split at " << split;
  }
}

TEST(Crc32cTest, DispatchedMatchesPortable) {
  EXPECT_EQ(Crc32cPortable("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32cPortable("", 0), 0u);
  if (!Crc32cHardwareAccelerated()) {
    GTEST_SKIP() << "no SSE4.2: Crc32c is the portable implementation";
  }
  Random rng(17);
  std::string bytes(8192 + 16 + 8, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Uniform(256));
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (size_t n = 8192; n <= 8192 + 16; ++n) lengths.push_back(n);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t n : lengths) {
      const char* p = bytes.data() + start;
      ASSERT_EQ(Crc32c(p, n), Crc32cPortable(p, n))
          << "start " << start << ", length " << n;
    }
  }
  const std::string hundred = bytes.substr(0, 100);
  const uint32_t whole = Crc32cPortable(hundred.data(), hundred.size());
  for (size_t split = 0; split <= hundred.size(); ++split) {
    EXPECT_EQ(Crc32cExtend(Crc32c(hundred.data(), split),
                           hundred.data() + split, hundred.size() - split),
              whole)
        << "split at " << split;
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  const uint32_t crc = Crc32c("123456789", 9);
  EXPECT_NE(MaskCrc32c(crc), crc);
  EXPECT_EQ(UnmaskCrc32c(MaskCrc32c(crc)), crc);
  EXPECT_EQ(UnmaskCrc32c(MaskCrc32c(0u)), 0u);
}

TEST(OptionsTest, ArrayValidation) {
  ArrayOptions o;
  EXPECT_OK(o.Validate());
  o.default_chunk_extent = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
}

TEST(OptionsTest, ChunkFormatNames) {
  EXPECT_EQ(ChunkFormatToString(ChunkFormat::kDense), "dense");
  EXPECT_EQ(ChunkFormatToString(ChunkFormat::kOffsetCompressed),
            "offset-compressed");
  EXPECT_EQ(ChunkFormatToString(ChunkFormat::kAuto), "auto");
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  EXPECT_GE(w.ElapsedMicros(), 0);
  const int64_t first = w.ElapsedMicros();
  // Busy-wait a tiny amount.
  volatile uint64_t x = 0;
  for (int i = 0; i < 100000; ++i) x = x + static_cast<uint64_t>(i);
  EXPECT_GE(w.ElapsedMicros(), first);
  w.Reset();
  EXPECT_LT(w.ElapsedSeconds(), 10.0);
}

TEST(PhaseTimerTest, AccumulatesNamedPhases) {
  PhaseTimer timer;
  for (const char* phase : {"scan", "scan", "aggregate"}) {
    ScopedPhase scope(&timer, phase);
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  const std::vector<PhaseSpan>& spans = timer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(timer.Micros("scan"),
            spans[0].duration_micros + spans[1].duration_micros);
  EXPECT_EQ(timer.Micros("aggregate"), spans[2].duration_micros);
  EXPECT_EQ(timer.Micros("absent"), 0);
  EXPECT_DOUBLE_EQ(timer.Seconds("scan"),
                   static_cast<double>(timer.Micros("scan")) * 1e-6);
  const std::map<std::string, int64_t> phases = timer.phases();
  EXPECT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases.at("scan"), timer.Micros("scan"));
  EXPECT_TRUE(PhaseTimer().phases().empty());
}

TEST(PhaseTimerTest, ScopedPhaseRecords) {
  PhaseTimer timer;
  {
    ScopedPhase phase(&timer, "work");
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  EXPECT_GE(timer.Micros("work"), 0);
  EXPECT_EQ(timer.phases().count("work"), 1u);
  // Null timer is a safe no-op.
  { ScopedPhase phase(nullptr, "ignored"); }
}

TEST(LoggingTest, LevelFilter) {
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  Log(LogLevel::kDebug, "should be suppressed");
  Log(LogLevel::kError, "shown (this is expected test output)");
  SetLogLevel(old_level);
}

}  // namespace
}  // namespace paradise
