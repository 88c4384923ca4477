// Unit tests for Status, Slice, and coding primitives.

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "src/util/coding.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace dmx {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("missing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing");

  EXPECT_TRUE(Status::Veto("no").IsVeto());
  EXPECT_TRUE(Status::Constraint("no").IsVeto());
  EXPECT_TRUE(Status::Constraint("no").IsConstraint());
  EXPECT_FALSE(Status::Veto("no").IsConstraint());
  EXPECT_TRUE(Status::Deadlock().IsDeadlock());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::Aborted().IsAborted());
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    DMX_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  EXPECT_TRUE(Slice("hello").starts_with(Slice("he")));
  EXPECT_FALSE(Slice("he").starts_with(Slice("hello")));
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("a").compare(Slice("b")), 0);
  EXPECT_GT(Slice("b").compare(Slice("a")), 0);
  EXPECT_EQ(Slice("ab").compare(Slice("ab")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  PutDouble(&buf, 3.25);
  Slice in(buf);
  EXPECT_EQ(DecodeFixed16(in.data()), 0xBEEF);
  in.remove_prefix(2);
  uint32_t v32;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  EXPECT_EQ(v32, 0xDEADBEEF);
  uint64_t v64;
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v64, 0x0123456789ABCDEFull);
  double d;
  ASSERT_TRUE(GetDouble(&in, &d));
  EXPECT_EQ(d, 3.25);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  const uint64_t cases[] = {0, 1, 127, 128, 300, 1u << 20, (1ull << 35) + 7,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t c : cases) PutVarint64(&buf, c);
  Slice in(buf);
  for (uint64_t c : cases) {
    uint64_t v;
    ASSERT_TRUE(GetVarint64(&in, &v));
    EXPECT_EQ(v, c);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32Truncated) {
  std::string buf;
  PutVarint32(&buf, 1u << 30);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, Slice("alpha"));
  PutLengthPrefixedSlice(&buf, Slice(""));
  PutLengthPrefixedSlice(&buf, Slice("beta"));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a.ToString(), "alpha");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.ToString(), "beta");
  EXPECT_TRUE(in.empty());

  // Truncated body fails.
  std::string bad;
  PutVarint32(&bad, 10);
  bad += "abc";
  Slice bin(bad);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixedSlice(&bin, &out));
}

TEST(CodingTest, OrderedInt64PreservesOrder) {
  const int64_t cases[] = {std::numeric_limits<int64_t>::min(), -100000, -1, 0,
                           1, 42, 100000,
                           std::numeric_limits<int64_t>::max()};
  std::string prev;
  for (int64_t c : cases) {
    std::string cur;
    PutOrderedInt64(&cur, c);
    EXPECT_EQ(DecodeOrderedInt64(cur.data()), c);
    if (!prev.empty()) {
      EXPECT_LT(prev, cur) << "at " << c;
    }
    prev = cur;
  }
}

TEST(CodingTest, OrderedDoublePreservesOrder) {
  const double cases[] = {-1e300, -5.5, -1.0, -0.0, 0.0, 1e-9, 2.5, 7.0, 1e300};
  std::string prev;
  bool first = true;
  for (double c : cases) {
    std::string cur;
    PutOrderedDouble(&cur, c);
    EXPECT_EQ(DecodeOrderedDouble(cur.data()), c) << c;
    if (!first) {
      EXPECT_LE(prev, cur) << "at " << c;
    }
    prev = cur;
    first = false;
  }
}

// Property sweep: random int64 pairs keep memcmp order == numeric order.
class OrderedCodingProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(OrderedCodingProperty, RandomPairsOrdered) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int64_t> dist(
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max());
  for (int i = 0; i < 1000; ++i) {
    int64_t a = dist(rng), b = dist(rng);
    std::string ea, eb;
    PutOrderedInt64(&ea, a);
    PutOrderedInt64(&eb, b);
    EXPECT_EQ(a < b, ea < eb);
    EXPECT_EQ(a == b, ea == eb);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderedCodingProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace dmx
