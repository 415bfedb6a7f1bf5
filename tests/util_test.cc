#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/bytes.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"

namespace steghide {
namespace {

// ---- Status ----------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNoSpace), "NoSpace");
  EXPECT_EQ(StatusCodeToString(StatusCode::kCorruption), "Corruption");
  EXPECT_EQ(StatusCodeToString(StatusCode::kPermissionDenied),
            "PermissionDenied");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIoError), "IoError");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() -> Status { return Status::IoError("boom"); };
  auto outer = [&]() -> Status {
    STEGHIDE_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kIoError);
}

// ---- Result ----------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto make = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("x");
    return 5;
  };
  auto use = [&](bool fail) -> Result<int> {
    STEGHIDE_ASSIGN_OR_RETURN(const int v, make(fail));
    return v * 2;
  };
  EXPECT_EQ(*use(false), 10);
  EXPECT_FALSE(use(true).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 9);
}

// ---- Rng -------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformRange(5, 8));
  EXPECT_EQ(seen, (std::set<uint64_t>{5, 6, 7, 8}));
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(3);
  constexpr int kBins = 10;
  constexpr int kDraws = 100000;
  int counts[kBins] = {};
  for (int i = 0; i < kDraws; ++i) counts[rng.Uniform(kBins)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBins, kDraws / kBins * 0.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.25);
  EXPECT_NEAR(hits, 2500, 250);
}

TEST(RngTest, FillCoversAllBytes) {
  Rng rng(6);
  std::vector<uint8_t> buf(1001, 0);
  rng.Fill(buf.data(), buf.size());
  // All-zero after fill would mean bytes were skipped.
  EXPECT_NE(std::count(buf.begin(), buf.end(), 0), 1001);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(7);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---- bytes -----------------------------------------------------------

TEST(BytesTest, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(ToHex(data), "0001abff");
  EXPECT_EQ(FromHex("0001abff"), data);
  EXPECT_EQ(FromHex("0001ABFF"), data);
}

TEST(BytesTest, FromHexRejectsMalformed) {
  EXPECT_TRUE(FromHex("abc").empty());   // odd length
  EXPECT_TRUE(FromHex("zz").empty());    // non-hex
  EXPECT_TRUE(FromHex("").empty());      // empty is empty
}

TEST(BytesTest, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
}

TEST(BytesTest, BigEndianRoundTrip) {
  uint8_t buf[8];
  StoreBigEndian32(buf, 0x01020304u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
  EXPECT_EQ(LoadBigEndian32(buf), 0x01020304u);

  StoreBigEndian64(buf, 0x0102030405060708ull);
  EXPECT_EQ(buf[7], 0x08);
  EXPECT_EQ(LoadBigEndian64(buf), 0x0102030405060708ull);
}

TEST(BytesTest, XorBytes) {
  uint8_t dst[3] = {0xff, 0x0f, 0x00};
  const uint8_t src[3] = {0xf0, 0x0f, 0xaa};
  XorBytes(dst, src, 3);
  EXPECT_EQ(dst[0], 0x0f);
  EXPECT_EQ(dst[1], 0x00);
  EXPECT_EQ(dst[2], 0xaa);
}

}  // namespace
}  // namespace steghide
