// Unit tests for src/util: uuid, bytes, rng, stats, strings, clock, queue,
// executor, timer.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "util/bytes.h"
#include "util/clock.h"
#include "util/dedup_ring.h"
#include "util/error.h"
#include "util/executor.h"
#include "util/logging.h"
#include "util/queue.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/uuid.h"

#include "support/timing.h"

namespace p2p::util {
namespace {

// --- Uuid ---------------------------------------------------------------

TEST(UuidTest, DefaultIsNil) {
  EXPECT_TRUE(Uuid{}.is_nil());
  EXPECT_EQ(Uuid{}.to_string(), std::string(32, '0'));
}

TEST(UuidTest, GenerateIsNotNilAndUnique) {
  const Uuid a = Uuid::generate();
  const Uuid b = Uuid::generate();
  EXPECT_FALSE(a.is_nil());
  EXPECT_NE(a, b);
}

TEST(UuidTest, GenerateFromSeededRngIsDeterministic) {
  Rng r1(7);
  Rng r2(7);
  EXPECT_EQ(Uuid::generate(r1), Uuid::generate(r2));
}

TEST(UuidTest, ToStringRoundTrips) {
  const Uuid original = Uuid::generate();
  const auto parsed = Uuid::parse(original.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, original);
}

TEST(UuidTest, ToStringIs32LowercaseHex) {
  const std::string text = Uuid::generate().to_string();
  EXPECT_EQ(text.size(), 32u);
  for (const char c : text) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

TEST(UuidTest, ParseRejectsBadInput) {
  EXPECT_FALSE(Uuid::parse("").has_value());
  EXPECT_FALSE(Uuid::parse("abc").has_value());
  EXPECT_FALSE(Uuid::parse(std::string(32, 'g')).has_value());
  EXPECT_FALSE(Uuid::parse(std::string(31, '0')).has_value());
  EXPECT_FALSE(Uuid::parse(std::string(33, '0')).has_value());
}

TEST(UuidTest, ParseAcceptsUppercase) {
  const auto parsed = Uuid::parse("ABCDEF0123456789ABCDEF0123456789");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_string(), "abcdef0123456789abcdef0123456789");
}

TEST(UuidTest, DeriveIsStable) {
  EXPECT_EQ(Uuid::derive("hello"), Uuid::derive("hello"));
  EXPECT_NE(Uuid::derive("hello"), Uuid::derive("hellp"));
  EXPECT_FALSE(Uuid::derive("").is_nil());
}

TEST(UuidTest, HashSpreads) {
  std::set<std::size_t> hashes;
  for (int i = 0; i < 100; ++i) {
    hashes.insert(std::hash<Uuid>{}(Uuid::generate()));
  }
  EXPECT_GT(hashes.size(), 95u);
}

// --- ByteWriter / ByteReader ------------------------------------------------

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.write_u8(0xab);
  w.write_u16(0xbeef);
  w.write_u32(0xdeadbeef);
  w.write_u64(0x0123456789abcdefULL);
  w.write_f64(3.14159);
  w.write_bool(true);
  w.write_bool(false);
  ByteReader r(w.data());
  EXPECT_EQ(r.read_u8(), 0xab);
  EXPECT_EQ(r.read_u16(), 0xbeef);
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.14159);
  EXPECT_TRUE(r.read_bool());
  EXPECT_FALSE(r.read_bool());
  EXPECT_TRUE(r.at_end());
}

TEST(BytesTest, VarintBoundaries) {
  const std::uint64_t cases[] = {0,    1,    127,        128,
                                 255,  300,  16383,      16384,
                                 1u << 21,   (1ull << 35) + 5,
                                 ~0ull};
  for (const auto v : cases) {
    ByteWriter w;
    w.write_varint(v);
    ByteReader r(w.data());
    EXPECT_EQ(r.read_varint(), v) << v;
    EXPECT_TRUE(r.at_end());
  }
}

TEST(BytesTest, VarintEncodingIsMinimal) {
  ByteWriter w;
  w.write_varint(127);
  EXPECT_EQ(w.size(), 1u);
  ByteWriter w2;
  w2.write_varint(128);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(BytesTest, ZigZagRoundTrip) {
  const std::int64_t cases[] = {0, 1, -1, 63, -64, 1000000, -1000000,
                                INT64_MAX, INT64_MIN};
  for (const auto v : cases) {
    ByteWriter w;
    w.write_i64(v);
    ByteReader r(w.data());
    EXPECT_EQ(r.read_i64(), v) << v;
  }
}

TEST(BytesTest, SmallNegativesStayShort) {
  ByteWriter w;
  w.write_i64(-1);
  EXPECT_EQ(w.size(), 1u);
}

TEST(BytesTest, StringAndBytesRoundTrip) {
  const Bytes blob{0x00, 0x01, 0x02};
  ByteWriter w;
  w.write_string("hello world");
  w.write_string("");
  w.write_bytes(blob);
  ByteReader r(w.data());
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_EQ(r.read_bytes(), blob);
}

TEST(BytesTest, RawRoundTrip) {
  ByteWriter w;
  w.write_raw(to_bytes("abc"));
  ByteReader r(w.data());
  EXPECT_EQ(to_string(r.read_raw(3)), "abc");
}

TEST(BytesTest, TruncatedInputThrows) {
  ByteWriter w;
  w.write_u32(42);
  ByteReader r(w.data());
  r.read_u16();
  EXPECT_THROW(r.read_u32(), ParseError);
}

TEST(BytesTest, TruncatedStringThrows) {
  ByteWriter w;
  w.write_varint(100);  // claims 100 bytes, provides none
  ByteReader r(w.data());
  EXPECT_THROW(r.read_string(), ParseError);
}

TEST(BytesTest, OverlongVarintThrows) {
  Bytes evil(11, 0xff);  // 11 continuation bytes > max 10
  ByteReader r(evil);
  EXPECT_THROW(r.read_varint(), ParseError);
}

TEST(BytesTest, EmptyReaderIsAtEnd) {
  ByteReader r({});
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW(r.read_u8(), ParseError);
}

// --- the non-throwing (try_) surface and its caps -------------------------

TEST(BytesTest, TryReadsMatchThrowingReads) {
  ByteWriter w;
  w.write_u8(7);
  w.write_varint(300);
  w.write_string("abc");
  ByteReader r(w.data());
  std::uint8_t u8 = 0;
  std::uint64_t var = 0;
  std::string s;
  EXPECT_TRUE(r.try_read_u8(u8));
  EXPECT_TRUE(r.try_read_varint(var));
  EXPECT_TRUE(r.try_read_string(s));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(var, 300u);
  EXPECT_EQ(s, "abc");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(BytesTest, TryReadsOnEmptyBufferFailWithTruncated) {
  ByteReader r({});
  std::uint8_t u8;
  std::uint16_t u16;
  std::uint32_t u32;
  std::uint64_t u64;
  std::int64_t i64;
  double f64;
  bool b;
  std::string s;
  Bytes bytes;
  EXPECT_FALSE(r.try_read_u8(u8));
  EXPECT_FALSE(r.try_read_u16(u16));
  EXPECT_FALSE(r.try_read_u32(u32));
  EXPECT_FALSE(r.try_read_u64(u64));
  EXPECT_FALSE(r.try_read_i64(i64));
  EXPECT_FALSE(r.try_read_f64(f64));
  EXPECT_FALSE(r.try_read_bool(b));
  EXPECT_FALSE(r.try_read_string(s));
  EXPECT_FALSE(r.try_read_bytes(bytes));
  EXPECT_FALSE(r.try_read_raw(1, bytes));
  EXPECT_EQ(r.error(), DecodeError::kTruncated);
}

TEST(BytesTest, VarintMaxWidthRoundTripsAndOverflowIsClassified) {
  // ~0ull needs the full ten bytes; the tenth may only contribute one bit.
  ByteWriter w;
  w.write_varint(~0ull);
  EXPECT_EQ(w.size(), 10u);
  ByteReader ok_r(w.data());
  std::uint64_t v = 0;
  EXPECT_TRUE(ok_r.try_read_varint(v));
  EXPECT_EQ(v, ~0ull);

  Bytes evil(9, 0xff);
  evil.push_back(0x02);  // 65th significant bit
  ByteReader r(evil);
  EXPECT_FALSE(r.try_read_varint(v));
  EXPECT_EQ(r.error(), DecodeError::kVarintOverflow);
}

TEST(BytesTest, ZigZagExtremesSurviveTheTrySurface) {
  for (const std::int64_t v : {INT64_MIN, INT64_MAX}) {
    ByteWriter w;
    w.write_i64(v);
    ByteReader r(w.data());
    std::int64_t out = 0;
    EXPECT_TRUE(r.try_read_i64(out));
    EXPECT_EQ(out, v);
  }
}

TEST(BytesTest, ZeroLengthStringAndBytesAreValid) {
  ByteWriter w;
  w.write_string("");
  w.write_bytes(Bytes{});
  w.write_raw(Bytes{});  // writes nothing
  ByteReader r(w.data());
  std::string s = "sentinel";
  Bytes b{1, 2, 3};
  EXPECT_TRUE(r.try_read_string(s));
  EXPECT_TRUE(r.try_read_bytes(b));
  EXPECT_EQ(s, "");
  EXPECT_TRUE(b.empty());
  Bytes raw;
  EXPECT_TRUE(r.try_read_raw(0, raw));
  EXPECT_TRUE(raw.empty());
  EXPECT_TRUE(r.at_end());
}

TEST(BytesTest, LengthCapIsCheckedBeforeTruncation) {
  // A 4 GiB claim against a 1 KiB cap must classify as the cap, not as
  // truncation — the caller learns the frame was hostile, not merely cut.
  ByteWriter w;
  w.write_varint(std::uint64_t{1} << 32);
  const DecodeLimits limits{.max_length = 1024};
  ByteReader r(w.data(), limits);
  Bytes out;
  EXPECT_FALSE(r.try_read_bytes(out));
  EXPECT_EQ(r.error(), DecodeError::kLengthCap);
}

TEST(BytesTest, CountCapIsClassified) {
  ByteWriter w;
  w.write_varint(std::uint64_t{1} << 30);
  const DecodeLimits limits{.max_count = 4096};
  ByteReader r(w.data(), limits);
  std::uint64_t count = 0;
  EXPECT_FALSE(r.try_read_count(count));
  EXPECT_EQ(r.error(), DecodeError::kCountCap);
}

TEST(BytesTest, NestingGuardTripsAtDepthCap) {
  const DecodeLimits limits{.max_depth = 2};
  ByteReader r({}, limits);
  EXPECT_TRUE(r.enter_nested());
  EXPECT_TRUE(r.enter_nested());
  EXPECT_FALSE(r.enter_nested());
  EXPECT_EQ(r.error(), DecodeError::kDepthCap);
}

TEST(BytesTest, ErrorsAreStickyAcrossTheWholeSurface) {
  ByteWriter w;
  w.write_u8(1);
  ByteReader r(w.data());
  std::uint64_t u64 = 0;
  EXPECT_FALSE(r.try_read_u64(u64));  // truncated
  std::uint8_t u8 = 0;
  EXPECT_FALSE(r.try_read_u8(u8));  // would succeed on a fresh reader
  EXPECT_THROW((void)r.read_u8(), ParseError);
  EXPECT_EQ(r.error(), DecodeError::kTruncated);
}

TEST(BytesTest, FailLatchesDecoderLevelErrors) {
  ByteWriter w;
  w.write_u8(99);
  ByteReader r(w.data());
  std::uint8_t version = 0;
  EXPECT_TRUE(r.try_read_u8(version));
  r.fail(DecodeError::kBadValue);  // decoder rejects the version itself
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.try_read_u8(version));
  EXPECT_EQ(r.error(), DecodeError::kBadValue);
}

TEST(BytesTest, DecodeErrorNamesAreStable) {
  EXPECT_EQ(to_string(DecodeError::kNone), "none");
  EXPECT_EQ(to_string(DecodeError::kTruncated), "truncated");
  EXPECT_EQ(to_string(DecodeError::kVarintOverflow), "varint-overflow");
  EXPECT_EQ(to_string(DecodeError::kLengthCap), "length-cap");
  EXPECT_EQ(to_string(DecodeError::kCountCap), "count-cap");
  EXPECT_EQ(to_string(DecodeError::kDepthCap), "depth-cap");
  EXPECT_EQ(to_string(DecodeError::kBadValue), "bad-value");
}

TEST(BytesTest, HexDump) {
  const Bytes raw{0x00, 0xff, 0x10};
  EXPECT_EQ(to_hex(raw), "00ff10");
  EXPECT_EQ(to_hex({}), "");
}

// Property: arbitrary interleavings round-trip (parameterized by seed).
class BytesRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(BytesRoundTripProperty, RandomSequenceRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  ByteWriter w;
  struct Op {
    int kind;
    std::uint64_t u;
    std::int64_t i;
    std::string s;
  };
  std::vector<Op> ops;
  for (int k = 0; k < 200; ++k) {
    Op op;
    op.kind = static_cast<int>(rng.next_below(4));
    op.u = rng.next_u64();
    op.i = static_cast<std::int64_t>(rng.next_u64());
    op.s = std::string(rng.next_below(40), 'x');
    switch (op.kind) {
      case 0: w.write_varint(op.u); break;
      case 1: w.write_i64(op.i); break;
      case 2: w.write_string(op.s); break;
      case 3: w.write_u64(op.u); break;
    }
    ops.push_back(std::move(op));
  }
  ByteReader r(w.data());
  for (const auto& op : ops) {
    switch (op.kind) {
      case 0: EXPECT_EQ(r.read_varint(), op.u); break;
      case 1: EXPECT_EQ(r.read_i64(), op.i); break;
      case 2: EXPECT_EQ(r.read_string(), op.s); break;
      case 3: EXPECT_EQ(r.read_u64(), op.u); break;
    }
  }
  EXPECT_TRUE(r.at_end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytesRoundTripProperty,
                         ::testing::Range(0, 10));

// --- Rng ---------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(1), 0u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NextBoolProbabilityEdges) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(RngTest, NextBoolApproximatesProbability) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.next_bool(0.3)) ++heads;
  }
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

// --- Summary / RateSeries ----------------------------------------------------

TEST(SummaryTest, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0);
  EXPECT_EQ(s.stddev(), 0);
  EXPECT_EQ(s.percentile(50), 0);
}

TEST(SummaryTest, MeanAndStddev) {
  Summary s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(SummaryTest, SingleSampleHasZeroStddev) {
  Summary s;
  s.add(42);
  EXPECT_EQ(s.stddev(), 0);
  EXPECT_EQ(s.mean(), 42);
}

TEST(SummaryTest, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.percentile(50), 50);
  EXPECT_EQ(s.percentile(99), 99);
  EXPECT_EQ(s.percentile(100), 100);
  EXPECT_EQ(s.percentile(0), 1);
}

TEST(RateSeriesTest, BucketsEvents) {
  RateSeries series(1000);
  series.record(100);
  series.record(200);
  series.record(1100);
  series.record(3500);
  const auto buckets = series.buckets();
  ASSERT_EQ(buckets.size(), 4u);  // buckets 0..3
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(series.total(), 4u);
}

TEST(RateSeriesTest, EmptyHasNoBuckets) {
  EXPECT_TRUE(RateSeries(1000).buckets().empty());
}

// --- string_util --------------------------------------------------------------

TEST(StringTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringTest, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\nhi\r\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("hi"), "hi");
}

TEST(StringTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("PS_SkiRental", "PS_"));
  EXPECT_FALSE(starts_with("PS", "PS_"));
  EXPECT_TRUE(ends_with("file.xml", ".xml"));
  EXPECT_FALSE(ends_with("xml", ".xml"));
}

struct GlobCase {
  const char* pattern;
  const char* text;
  bool match;
};

// gtest names each case by its printed value; without this it prints the
// struct's raw bytes, pointers included, and the names change every run.
void PrintTo(const GlobCase& c, std::ostream* os) {
  *os << "'" << c.pattern << (c.match ? "' matches '" : "' rejects '")
      << c.text << "'";
}

class GlobTest : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobTest, Matches) {
  const auto& c = GetParam();
  EXPECT_EQ(glob_match(c.pattern, c.text), c.match)
      << c.pattern << " vs " << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GlobTest,
    ::testing::Values(
        GlobCase{"PS_SkiRental*", "PS_SkiRental", true},
        GlobCase{"PS_SkiRental*", "PS_SkiRentalXYZ", true},
        GlobCase{"PS_SkiRental*", "PS_Ski", false},
        GlobCase{"*", "", true}, GlobCase{"*", "anything", true},
        GlobCase{"", "", true}, GlobCase{"", "x", false},
        GlobCase{"a*b", "ab", true}, GlobCase{"a*b", "aXXXb", true},
        GlobCase{"a*b", "aXXXc", false}, GlobCase{"a*b*c", "a1b2c", true},
        GlobCase{"a*b*c", "abc", true}, GlobCase{"exact", "exact", true},
        GlobCase{"exact", "exactly", false},
        GlobCase{"**", "whatever", true}));

TEST(StringTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

// --- clocks ---------------------------------------------------------------

TEST(ClockTest, SystemClockAdvances) {
  SystemClock clock;
  const auto a = clock.now();
  p2p::testing::settle(std::chrono::milliseconds(2));
  EXPECT_GT(clock.now(), a);
}

TEST(ClockTest, SimClockOnlyMovesWhenAdvanced) {
  SimClock clock;
  const auto a = clock.now();
  EXPECT_EQ(clock.now(), a);
  clock.advance(std::chrono::milliseconds(50));
  EXPECT_EQ(std::chrono::duration_cast<std::chrono::milliseconds>(
                clock.now() - a)
                .count(),
            50);
}

// --- BlockingQueue -------------------------------------------------------------

TEST(QueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(QueueTest, PopForTimesOut) {
  BlockingQueue<int> q;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.pop_for(std::chrono::milliseconds(30)), std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(25));
}

TEST(QueueTest, CloseWakesAndDrains) {
  BlockingQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));        // rejected after close
  EXPECT_EQ(q.pop(), 7);          // drains accepted items
  EXPECT_EQ(q.pop(), std::nullopt);  // then reports closed
}

TEST(QueueTest, CloseUnblocksWaiter) {
  BlockingQueue<int> q;
  std::thread waiter([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  p2p::testing::settle(std::chrono::milliseconds(20));
  q.close();
  waiter.join();
}

TEST(QueueTest, TryPop) {
  BlockingQueue<int> q;
  EXPECT_EQ(q.try_pop(), std::nullopt);
  q.push(5);
  EXPECT_EQ(q.try_pop(), 5);
}

TEST(QueueTest, ConcurrentProducersConsumers) {
  BlockingQueue<int> q;
  constexpr int kPerProducer = 500;
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 4; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) q.push(i);
    });
  }
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      while (consumed < 4 * kPerProducer) {
        if (q.pop_for(std::chrono::milliseconds(100)).has_value()) {
          ++consumed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(consumed, 4 * kPerProducer);
}

// --- SerialExecutor / PeriodicTimer ----------------------------------------------

TEST(ExecutorTest, RunsTasksInOrder) {
  SerialExecutor exec("test");
  std::vector<int> order;
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 100; ++i) {
    exec.post([&, i] {
      const std::lock_guard lock(mu);
      order.push_back(i);
      if (i == 99) cv.notify_all();
    });
  }
  std::unique_lock lock(mu);
  cv.wait_for(lock, std::chrono::seconds(5), [&] { return order.size() == 100; });
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ExecutorTest, SurvivesThrowingTask) {
  SerialExecutor exec("test");
  std::atomic<bool> second_ran{false};
  exec.post([] { throw std::runtime_error("boom"); });
  exec.post([&] { second_ran = true; });
  exec.stop();
  EXPECT_TRUE(second_ran);
}

TEST(ExecutorTest, StopDrainsQueue) {
  SerialExecutor exec("test");
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    exec.post([&] { ++ran; });
  }
  exec.stop();
  EXPECT_EQ(ran, 50);
  EXPECT_FALSE(exec.post([] {}));  // rejected after stop
}

TEST(ExecutorTest, OnExecutorThread) {
  SerialExecutor exec("test");
  std::atomic<bool> inside{false};
  EXPECT_FALSE(exec.on_executor_thread());
  exec.post([&] { inside = exec.on_executor_thread(); });
  exec.stop();
  EXPECT_TRUE(inside);
}

// PeriodicTimer rides a TimerQueue; a kSimulated queue makes the firing
// counts exact: an entry armed at t=0 with period p fires at p, 2p, ...
struct SimTimer {
  SimClock clock;
  TimerQueue queue{"test", clock};
  PeriodicTimer timer{"test", queue};
};

TEST(TimerTest, FiresRepeatedly) {
  SimTimer sim;
  int fired = 0;
  sim.timer.schedule(std::chrono::milliseconds(10), [&] { ++fired; });
  sim.queue.advance_by(std::chrono::milliseconds(100));
  EXPECT_EQ(fired, 10);
  sim.timer.stop();
  sim.queue.advance_by(std::chrono::milliseconds(100));
  EXPECT_EQ(fired, 10);  // stop() cancels every entry
}

TEST(TimerTest, CancelStopsFiring) {
  SimTimer sim;
  int fired = 0;
  const auto handle =
      sim.timer.schedule(std::chrono::milliseconds(10), [&] { ++fired; });
  sim.queue.advance_by(std::chrono::milliseconds(50));
  EXPECT_EQ(fired, 5);
  sim.timer.cancel(handle);
  sim.queue.advance_by(std::chrono::milliseconds(50));
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.queue.pending(), 0u);
}

TEST(TimerTest, MultipleEntriesIndependent) {
  SimTimer sim;
  int fast = 0;
  int slow = 0;
  sim.timer.schedule(std::chrono::milliseconds(10), [&] { ++fast; });
  const auto slow_handle =
      sim.timer.schedule(std::chrono::milliseconds(40), [&] { ++slow; });
  sim.queue.advance_by(std::chrono::milliseconds(120));
  EXPECT_EQ(fast, 12);
  EXPECT_EQ(slow, 3);
  // Cancelling one entry leaves the other running.
  sim.timer.cancel(slow_handle);
  sim.queue.advance_by(std::chrono::milliseconds(40));
  EXPECT_EQ(fast, 16);
  EXPECT_EQ(slow, 3);
}

TEST(TimerTest, SurvivesThrowingTask) {
  SimTimer sim;
  int fired = 0;
  sim.timer.schedule(std::chrono::milliseconds(10), [&] {
    ++fired;
    throw std::runtime_error("boom");
  });
  sim.queue.advance_by(std::chrono::milliseconds(60));
  EXPECT_EQ(fired, 6);  // re-armed after every throw
}

TEST(TimerTest, CancelWaitsOutRunningTask) {
  TimerQueue queue("test");
  PeriodicTimer timer("test", queue);
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
  std::atomic<bool> finished{false};
  const auto handle = timer.schedule(std::chrono::milliseconds(1), [&] {
    std::unique_lock lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
    finished = true;
  });
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return entered; }));
  }
  // cancel() from another thread must not return while the task runs.
  std::atomic<bool> cancel_returned{false};
  std::atomic<bool> finished_at_return{false};
  std::thread canceller([&] {
    timer.cancel(handle);
    finished_at_return = finished.load();
    cancel_returned = true;
  });
  p2p::testing::settle(std::chrono::milliseconds(50));
  EXPECT_FALSE(cancel_returned);
  {
    const std::lock_guard lock(mu);
    released = true;
  }
  cv.notify_all();
  canceller.join();
  EXPECT_TRUE(finished_at_return);

  // A task that cancels itself returns at once and never fires again.
  std::atomic<int> self_fired{0};
  std::atomic<std::uint64_t> self_handle{0};
  bool self_cancel_returned = false;
  self_handle = timer.schedule(std::chrono::milliseconds(20), [&] {
    ++self_fired;
    timer.cancel(self_handle.load());
    const std::lock_guard lock(mu);
    self_cancel_returned = true;
    cv.notify_all();
  });
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return self_cancel_returned; }));
  }
  p2p::testing::settle(std::chrono::milliseconds(60));
  EXPECT_EQ(self_fired, 1);
}

// --- logging ----------------------------------------------------------------

// An operand whose stream formatting is observable: if operator<< runs,
// the counter bumps.
struct FormatProbe {
  int* formats;
  friend std::ostream& operator<<(std::ostream& os, const FormatProbe& p) {
    ++*p.formats;
    return os << "probe";
  }
};

TEST(LoggingTest, DroppedLineNeverFormatsNorReachesSink) {
  int sink_calls = 0;
  int formats = 0;
  const auto previous = set_log_sink(
      [&](LogLevel, std::string_view, std::string_view) { ++sink_calls; });
  const LogLevel previous_level = log_level();
  set_log_level(LogLevel::kWarn);
  // The macro path: the whole statement after the level check is skipped,
  // so the operand is never even evaluated.
  P2P_LOG(kDebug, "test") << FormatProbe{&formats};
  {
    // The LogLine path: below-threshold lines must not engage the stream,
    // so streaming an operand into them formats nothing.
    detail::LogLine line(LogLevel::kInfo, "test");
    EXPECT_FALSE(line.enabled());
    line << FormatProbe{&formats};
  }
  set_log_sink(previous);
  set_log_level(previous_level);
  EXPECT_EQ(sink_calls, 0);
  EXPECT_EQ(formats, 0);
}

// --- DedupRing ----------------------------------------------------------

TEST(DedupRingTest, DetectsDuplicatesWithinCapacity) {
  DedupRing ring(8);
  const Uuid a{1, 1};
  const Uuid b{2, 2};
  EXPECT_FALSE(ring.test_and_set(a));
  EXPECT_FALSE(ring.test_and_set(b));
  EXPECT_TRUE(ring.test_and_set(a));
  EXPECT_TRUE(ring.test_and_set(b));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_TRUE(ring.contains(a));
  EXPECT_FALSE(ring.contains(Uuid{3, 3}));
}

TEST(DedupRingTest, EvictsOldestEntryFirst) {
  DedupRing ring(4);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    EXPECT_FALSE(ring.test_and_set(Uuid{i, i}));
  }
  // A fifth insertion evicts the oldest (1); 2..4 survive.
  EXPECT_FALSE(ring.test_and_set(Uuid{5, 5}));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_FALSE(ring.contains(Uuid{1, 1}));
  for (std::uint64_t i = 2; i <= 5; ++i) {
    EXPECT_TRUE(ring.contains(Uuid{i, i})) << i;
  }
  // Re-inserting the evicted id is not a duplicate, and evicts 2.
  EXPECT_FALSE(ring.test_and_set(Uuid{1, 1}));
  EXPECT_FALSE(ring.contains(Uuid{2, 2}));
}

TEST(DedupRingTest, ReportsProbeDepthAndDisabledMode) {
  DedupRing ring(16);
  std::uint32_t probes = 0;
  EXPECT_FALSE(ring.test_and_set(Uuid{1, 1}, &probes));
  EXPECT_GE(probes, 1u);
  EXPECT_TRUE(ring.test_and_set(Uuid{1, 1}, &probes));
  EXPECT_GE(probes, 1u);

  DedupRing disabled(0);
  probes = 7;
  EXPECT_FALSE(disabled.test_and_set(Uuid{1, 1}, &probes));
  EXPECT_FALSE(disabled.test_and_set(Uuid{1, 1}, &probes));
  EXPECT_EQ(probes, 0u);
  EXPECT_EQ(disabled.capacity(), 0u);
  EXPECT_EQ(disabled.size(), 0u);
}

TEST(DedupRingTest, MatchesReferenceModelUnderChurn) {
  // Backward-shift deletion and eviction re-probing are the tricky parts;
  // drive the ring with a deterministic id stream (with repeats) and check
  // every answer against a straightforward set + FIFO queue model.
  constexpr std::size_t kCapacity = 64;
  DedupRing ring(kCapacity);
  std::set<Uuid> model;
  std::vector<Uuid> order;  // FIFO, oldest first
  std::uint64_t state = 0x243F6A8885A308D3ULL;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // Small id space so duplicates and re-insertions after eviction are
    // frequent.
    const Uuid id{(state >> 33) % 97, 42};
    const bool dup = ring.test_and_set(id);
    const bool model_dup = model.count(id) > 0;
    ASSERT_EQ(dup, model_dup) << "op " << i;
    if (!model_dup) {
      if (order.size() == kCapacity) {
        model.erase(order.front());
        order.erase(order.begin());
      }
      model.insert(id);
      order.push_back(id);
    }
    ASSERT_EQ(ring.size(), model.size()) << "op " << i;
  }
  for (const auto& id : order) EXPECT_TRUE(ring.contains(id));
}

TEST(LoggingTest, SinkReceivesAboveLevel) {
  std::vector<std::string> captured;
  const auto previous = set_log_sink(
      [&](LogLevel, std::string_view, std::string_view msg) {
        captured.emplace_back(msg);
      });
  const LogLevel previous_level = log_level();
  set_log_level(LogLevel::kInfo);
  P2P_LOG(kDebug, "test") << "dropped";
  P2P_LOG(kWarn, "test") << "kept " << 42;
  set_log_sink(previous);
  set_log_level(previous_level);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "kept 42");
}

}  // namespace
}  // namespace p2p::util
