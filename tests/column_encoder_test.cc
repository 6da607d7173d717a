#include "encode/column_encoder.h"

#include <gtest/gtest.h>

namespace icp {
namespace {

TEST(RangeEncoderTest, Widths) {
  EXPECT_EQ(ColumnEncoder::ForRange(0, 127).bit_width(), 7);
  EXPECT_EQ(ColumnEncoder::ForRange(1, 50).bit_width(), 6);
  EXPECT_EQ(ColumnEncoder::ForRange(-100, 100).bit_width(), 8);
  EXPECT_EQ(ColumnEncoder::ForRange(5, 5).bit_width(), 1);
}

TEST(RangeEncoderTest, EncodeDecodeRoundTrip) {
  const ColumnEncoder enc = ColumnEncoder::ForRange(-50, 49);
  for (std::int64_t v = -50; v <= 49; ++v) {
    EXPECT_EQ(enc.Decode(enc.Encode(v)), v);
  }
  EXPECT_EQ(enc.Encode(-50), 0u);
  EXPECT_EQ(enc.Encode(49), 99u);
}

TEST(RangeEncoderTest, ExplicitWiderWidth) {
  const ColumnEncoder enc = ColumnEncoder::ForRangeWithWidth(0, 100, 25);
  EXPECT_EQ(enc.bit_width(), 25);
  EXPECT_EQ(enc.Encode(100), 100u);
}

TEST(RangeEncoderTest, FitRange) {
  const ColumnEncoder enc = ColumnEncoder::FitRange({7, -3, 12, 0});
  EXPECT_EQ(enc.min_value(), -3);
  EXPECT_EQ(enc.max_value(), 12);
  EXPECT_EQ(enc.Encode(-3), 0u);
  EXPECT_EQ(enc.Encode(12), 15u);
}

TEST(RangeEncoderTest, ConstantBounds) {
  const ColumnEncoder enc = ColumnEncoder::ForRange(10, 20);
  std::uint64_t code = 999;
  EXPECT_EQ(enc.EncodeLowerBound(15, &code), ConstantBound::kInDomain);
  EXPECT_EQ(code, 5u);
  EXPECT_EQ(enc.EncodeLowerBound(5, &code), ConstantBound::kBelowDomain);
  EXPECT_EQ(code, 0u);
  EXPECT_EQ(enc.EncodeLowerBound(25, &code), ConstantBound::kAboveDomain);
  EXPECT_EQ(enc.EncodeUpperBound(25, &code), ConstantBound::kAboveDomain);
  EXPECT_EQ(code, 10u);
  EXPECT_EQ(enc.EncodeUpperBound(5, &code), ConstantBound::kBelowDomain);
  EXPECT_TRUE(enc.EncodeExact(10, &code));
  EXPECT_EQ(code, 0u);
  EXPECT_FALSE(enc.EncodeExact(9, &code));
}

TEST(DictionaryEncoderTest, OrderPreserving) {
  const ColumnEncoder enc =
      ColumnEncoder::ForDictionary({500, -7, 30, 500, 30});
  EXPECT_TRUE(enc.is_dictionary());
  EXPECT_EQ(enc.bit_width(), 2);  // 3 distinct values -> ranks 0..2
  EXPECT_EQ(enc.Encode(-7), 0u);
  EXPECT_EQ(enc.Encode(30), 1u);
  EXPECT_EQ(enc.Encode(500), 2u);
  EXPECT_EQ(enc.Decode(1), 30);
}

TEST(DictionaryEncoderTest, ConstantBounds) {
  const ColumnEncoder enc = ColumnEncoder::ForDictionary({10, 20, 30});
  std::uint64_t code = 99;
  // v >= 15 is equivalent to code >= rank(20) = 1.
  EXPECT_EQ(enc.EncodeLowerBound(15, &code), ConstantBound::kInDomain);
  EXPECT_EQ(code, 1u);
  // v <= 15 is equivalent to code <= rank(10) = 0.
  EXPECT_EQ(enc.EncodeUpperBound(15, &code), ConstantBound::kInDomain);
  EXPECT_EQ(code, 0u);
  EXPECT_EQ(enc.EncodeLowerBound(31, &code), ConstantBound::kAboveDomain);
  EXPECT_EQ(enc.EncodeUpperBound(9, &code), ConstantBound::kBelowDomain);
  EXPECT_TRUE(enc.EncodeExact(20, &code));
  EXPECT_EQ(code, 1u);
  EXPECT_FALSE(enc.EncodeExact(15, &code));
}

TEST(DictionaryEncoderTest, SingleValue) {
  const ColumnEncoder enc = ColumnEncoder::ForDictionary({42});
  EXPECT_EQ(enc.bit_width(), 1);
  EXPECT_EQ(enc.Encode(42), 0u);
  EXPECT_EQ(enc.Decode(0), 42);
}

}  // namespace
}  // namespace icp
