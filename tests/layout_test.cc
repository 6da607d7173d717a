#include "layout/layout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "layout/hbp_column.h"
#include "layout/naive_column.h"
#include "layout/vbp_column.h"
#include "simd/dispatch.h"
#include "util/random.h"

namespace icp {
namespace {

std::vector<std::uint64_t> RandomCodes(std::size_t n, int k,
                                       std::uint64_t seed) {
  Random rng(seed);
  std::vector<std::uint64_t> codes(n);
  const std::uint64_t max_code = LowMask(k);
  for (auto& c : codes) c = rng.UniformInt(0, max_code);
  return codes;
}

TEST(LayoutTest, DefaultVbpTauIsPaperValue) {
  EXPECT_EQ(DefaultVbpTau(25), 4);
  EXPECT_EQ(DefaultVbpTau(12), 4);
  EXPECT_EQ(DefaultVbpTau(3), 3);  // never wider than the value
  EXPECT_EQ(DefaultVbpTau(1), 1);
}

TEST(LayoutTest, DefaultHbpTauBasics) {
  // For tiny k the whole value fits one group.
  EXPECT_EQ(DefaultHbpTau(1), 1);
  EXPECT_EQ(DefaultHbpTau(3), 3);
  for (int k = 1; k <= 50; ++k) {
    const int tau = DefaultHbpTau(k);
    EXPECT_GE(tau, 1) << k;
    EXPECT_LE(tau, 16) << k;
    // A word must hold at least one field.
    EXPECT_GE(FieldsPerWord(tau + 1), 1) << k;
  }
}

TEST(LayoutTest, LayoutToString) {
  EXPECT_STREQ(LayoutToString(Layout::kVbp), "VBP");
  EXPECT_STREQ(LayoutToString(Layout::kHbp), "HBP");
  EXPECT_STREQ(LayoutToString(Layout::kNaive), "Naive");
}

// ---------------------------------------------------------------------------
// VBP
// ---------------------------------------------------------------------------

TEST(VbpColumnTest, PaperFigure2Example) {
  // Fig. 2: values 1,7,2,1,6,0,2,7 with k = 3 (the paper uses w = 8; with
  // w = 64 the remaining slots are zero-padding).
  const std::vector<std::uint64_t> codes = {1, 7, 2, 1, 6, 0, 2, 7};
  const VbpColumn col = VbpColumn::Pack(codes, 3, {.tau = 3});
  ASSERT_EQ(col.num_groups(), 1);
  // Word for bit 0 (MSB): values' top bits are 0,1,0,0,1,0,0,1 -> in the
  // top 8 bits of the word: 01001001.
  EXPECT_EQ(col.WordAt(0, 0, 0) >> 56, 0b01001001u);
  EXPECT_EQ(col.WordAt(0, 0, 1) >> 56, 0b01101011u);
  EXPECT_EQ(col.WordAt(0, 0, 2) >> 56, 0b11010001u);
}

TEST(VbpColumnTest, GroupWidthsRagged) {
  const auto codes = RandomCodes(100, 25, 1);
  const VbpColumn col = VbpColumn::Pack(codes, 25, {.tau = 4});
  EXPECT_EQ(col.num_groups(), 7);
  for (int g = 0; g < 6; ++g) EXPECT_EQ(col.GroupWidth(g), 4);
  EXPECT_EQ(col.GroupWidth(6), 1);
}

class VbpRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(VbpRoundTripTest, PackThenGetValue) {
  const auto [k, tau, n] = GetParam();
  if (tau > k) GTEST_SKIP();
  const auto codes = RandomCodes(n, k, 42 + k * 131 + tau);
  const VbpColumn col = VbpColumn::Pack(codes, k, {.tau = tau});
  ASSERT_EQ(col.num_values(), codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(col.GetValue(i), codes[i]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, VbpRoundTripTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7, 8, 12, 17, 25, 33, 50,
                                         63),
                       ::testing::Values(1, 2, 3, 4, 6, 8),
                       ::testing::Values(1, 63, 64, 65, 200, 1000)));

TEST(VbpColumnTest, LaneInterleavingRoundTrip) {
  const auto codes = RandomCodes(1000, 13, 5);
  const VbpColumn col = VbpColumn::Pack(codes, 13, {.tau = 4, .lanes = 4});
  EXPECT_EQ(col.lanes(), 4);
  EXPECT_EQ(col.num_segments() % 4, 0u);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(col.GetValue(i), codes[i]) << i;
  }
}

TEST(VbpColumnTest, LaneInterleavedWordsMatchScalarWords) {
  const auto codes = RandomCodes(1000, 9, 6);
  const VbpColumn scalar = VbpColumn::Pack(codes, 9, {.tau = 3, .lanes = 1});
  const VbpColumn simd = VbpColumn::Pack(codes, 9, {.tau = 3, .lanes = 4});
  for (std::size_t seg = 0; seg < scalar.num_segments(); ++seg) {
    for (int g = 0; g < scalar.num_groups(); ++g) {
      for (int j = 0; j < scalar.GroupWidth(g); ++j) {
        ASSERT_EQ(scalar.WordAt(g, seg, j), simd.WordAt(g, seg, j));
      }
    }
  }
}

TEST(VbpColumnTest, MemoryBytesMatchesKBitsPerValue) {
  const auto codes = RandomCodes(64 * 100, 10, 7);
  const VbpColumn col = VbpColumn::Pack(codes, 10, {.tau = 4});
  // Exactly k words per 64-value segment.
  EXPECT_EQ(col.MemoryBytes(), 100u * 10 * sizeof(Word));
}

// ---------------------------------------------------------------------------
// HBP
// ---------------------------------------------------------------------------

TEST(HbpColumnTest, PaperFigure3Geometry) {
  // k = 3, tau = 3 (no bit-groups): s = 4, m = 16 slots per 64-bit word,
  // 4 sub-segments, vps = 64.
  const auto codes = RandomCodes(128, 3, 8);
  const HbpColumn col = HbpColumn::Pack(codes, 3, {.tau = 3});
  EXPECT_EQ(col.field_width(), 4);
  EXPECT_EQ(col.fields_per_word(), 16);
  EXPECT_EQ(col.sub_segments_per_segment(), 4);
  EXPECT_EQ(col.values_per_segment(), 64);
  EXPECT_EQ(col.num_groups(), 1);
}

TEST(HbpColumnTest, ColumnFirstPacking) {
  // Paper Fig. 3a: v1 -> W1, v2 -> W2, ..., v5 -> W1 again.
  // With k = 3, values 1..8 in the first segment: sub-segment 0's word must
  // hold v1 in slot 0 and v5 in slot 1.
  std::vector<std::uint64_t> codes = {1, 2, 3, 4, 5, 6, 7, 0};
  const HbpColumn col = HbpColumn::Pack(codes, 3, {.tau = 3});
  const Word w0 = col.WordAt(0, 0, 0);
  EXPECT_EQ((w0 >> 60) & 0xF, 1u);  // v1 (delimiter 0 + value 001)
  EXPECT_EQ((w0 >> 56) & 0xF, 5u);  // v5
  const Word w1 = col.WordAt(0, 0, 1);
  EXPECT_EQ((w1 >> 60) & 0xF, 2u);  // v2
  EXPECT_EQ((w1 >> 56) & 0xF, 6u);  // v6
}

TEST(HbpColumnTest, DelimiterBitsAlwaysClear) {
  const auto codes = RandomCodes(500, 6, 9);
  const HbpColumn col = HbpColumn::Pack(codes, 6, {.tau = 3});
  const Word md = DelimiterMask(col.field_width());
  for (int g = 0; g < col.num_groups(); ++g) {
    for (std::size_t w = 0; w < col.GroupWordCount(g); ++w) {
      ASSERT_EQ(col.GroupData(g)[w] & md, 0u);
    }
  }
}

class HbpRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HbpRoundTripTest, PackThenGetValue) {
  const auto [k, tau, n] = GetParam();
  const auto codes = RandomCodes(n, k, 99 + k * 17 + tau);
  const HbpColumn col = HbpColumn::Pack(codes, k, {.tau = tau});
  ASSERT_EQ(col.num_values(), codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(col.GetValue(i), codes[i]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, HbpRoundTripTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7, 8, 12, 17, 25, 33, 50,
                                         63),
                       ::testing::Values(1, 2, 3, 4, 7, 11, 16),
                       ::testing::Values(1, 59, 60, 61, 200, 1000)));

TEST(HbpColumnTest, AutoTauRoundTrip) {
  for (int k : {1, 2, 5, 13, 25, 40, 63}) {
    const auto codes = RandomCodes(300, k, 100 + k);
    const HbpColumn col = HbpColumn::Pack(codes, k);  // auto tau
    for (std::size_t i = 0; i < codes.size(); ++i) {
      ASSERT_EQ(col.GetValue(i), codes[i]) << "k=" << k << " i=" << i;
    }
  }
}

TEST(HbpColumnTest, LaneInterleavingRoundTrip) {
  const auto codes = RandomCodes(777, 11, 10);
  const HbpColumn col = HbpColumn::Pack(codes, 11, {.tau = 4, .lanes = 4});
  EXPECT_EQ(col.lanes(), 4);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(col.GetValue(i), codes[i]) << i;
  }
}

TEST(HbpColumnTest, GroupShift) {
  const auto codes = RandomCodes(10, 10, 11);
  const HbpColumn col = HbpColumn::Pack(codes, 10, {.tau = 4});
  // B = ceil(10/4) = 3 groups; shifts 8, 4, 0.
  ASSERT_EQ(col.num_groups(), 3);
  EXPECT_EQ(col.GroupShift(0), 8);
  EXPECT_EQ(col.GroupShift(1), 4);
  EXPECT_EQ(col.GroupShift(2), 0);
}

// ---------------------------------------------------------------------------
// Naive
// ---------------------------------------------------------------------------

TEST(NaiveColumnTest, RoundTrip) {
  const auto codes = RandomCodes(100, 20, 12);
  const NaiveColumn col = NaiveColumn::Pack(codes, 20);
  EXPECT_EQ(col.num_values(), 100u);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(col.GetValue(i), codes[i]);
  }
  EXPECT_EQ(col.MemoryBytes(), 100u * sizeof(Word));
}

// ---------------------------------------------------------------------------
// Packers against the per-value definitions they replaced
// ---------------------------------------------------------------------------

// Word j of VBP bit-group g in segment seg, straight from the definition:
// bit 63 - r holds bit k - 1 - (g*tau + j) of the segment's value r.
Word ReferenceVbpWord(const std::vector<std::uint64_t>& codes, int k,
                      int tau, int g, std::size_t seg, int j) {
  const int bit = k - 1 - (g * tau + j);
  Word word = 0;
  for (int r = 0; r < kWordBits; ++r) {
    const std::size_t i = seg * kWordBits + r;
    if (i < codes.size() && ((codes[i] >> bit) & 1) != 0) {
      word |= Word{1} << (kWordBits - 1 - r);
    }
  }
  return word;
}

// Sub-segment t of HBP bit-group g in segment seg: field f holds bit-group
// g of the segment's value f*s + t.
Word ReferenceHbpWord(const std::vector<std::uint64_t>& codes,
                      const HbpColumn& col, int g, std::size_t seg, int t) {
  const int s = col.field_width();
  Word word = 0;
  for (int f = 0; f < col.fields_per_word(); ++f) {
    const std::size_t i = seg * col.values_per_segment() + f * s + t;
    if (i >= codes.size()) continue;
    const Word group = (codes[i] >> col.GroupShift(g)) & LowMask(col.tau());
    word |= group << (kWordBits - (f + 1) * s);
  }
  return word;
}

TEST(VbpColumnTest, PackMatchesPerBitDefinitionOnEveryTier) {
  for (int t = 0; t <= static_cast<int>(kern::Tier::kAvx512); ++t) {
    const auto tier = static_cast<kern::Tier>(t);
    if (kern::EffectiveTier(tier) != tier) continue;
    kern::ForceTier(tier);
    for (const int k : {1, 3, 8, 13, 25, 32, 33, 47, 63}) {
      for (const std::size_t n : {std::size_t{1}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65},
                                  std::size_t{1000}}) {
        for (const int lanes : {1, 4}) {
          const auto codes = RandomCodes(n, k, 7 * k + n);
          const VbpColumn col =
              VbpColumn::Pack(codes, k, {.tau = 4, .lanes = lanes});
          for (int g = 0; g < col.num_groups(); ++g) {
            ASSERT_EQ(col.GroupWordCount(g),
                      col.num_segments() * col.GroupWidth(g));
            for (std::size_t seg = 0; seg < col.num_segments(); ++seg) {
              for (int j = 0; j < col.GroupWidth(g); ++j) {
                ASSERT_EQ(col.WordAt(g, seg, j),
                          ReferenceVbpWord(codes, k, col.tau(), g, seg, j))
                    << kern::TierName(tier) << " k=" << k << " n=" << n
                    << " lanes=" << lanes << " g=" << g << " seg=" << seg;
              }
            }
          }
        }
      }
    }
  }
  kern::ForceTier(std::nullopt);
}

TEST(HbpColumnTest, PackMatchesPerValueDefinition) {
  // Field widths s = tau + 1 from the narrowest to a whole word.
  for (const int s : {2, 3, 8, 21, 64}) {
    const int tau = s - 1;
    for (const int k : {std::min(tau, 5), tau, std::min(2 * tau + 3, 63)}) {
      for (const int lanes : {1, 4}) {
        for (const std::size_t n : {std::size_t{1}, std::size_t{63},
                                    std::size_t{64}, std::size_t{65},
                                    std::size_t{777}}) {
          const auto codes = RandomCodes(n, k, 31 * s + k);
          const HbpColumn col =
              HbpColumn::Pack(codes, k, {.tau = tau, .lanes = lanes});
          for (int g = 0; g < col.num_groups(); ++g) {
            ASSERT_EQ(col.GroupWordCount(g), col.num_segments() * s);
            for (std::size_t seg = 0; seg < col.num_segments(); ++seg) {
              for (int t = 0; t < s; ++t) {
                ASSERT_EQ(col.WordAt(g, seg, t),
                          ReferenceHbpWord(codes, col, g, seg, t))
                    << "s=" << s << " k=" << k << " lanes=" << lanes
                    << " n=" << n << " g=" << g << " seg=" << seg;
              }
            }
          }
        }
      }
    }
  }
}

TEST(LayoutTest, InterleaveEqualsPackingWithLanes) {
  const auto codes = RandomCodes(1111, 19, 3);
  const VbpColumn vbp = VbpColumn::Pack(codes, 19, {.tau = 4});
  const VbpColumn vbp4 = VbpColumn::Pack(codes, 19, {.tau = 4, .lanes = 4});
  const VbpColumn vbp_interleaved = vbp.Interleave(4);
  ASSERT_EQ(vbp_interleaved.lanes(), 4);
  ASSERT_EQ(vbp_interleaved.num_segments(), vbp4.num_segments());
  for (int g = 0; g < vbp4.num_groups(); ++g) {
    ASSERT_EQ(vbp_interleaved.GroupWordCount(g), vbp4.GroupWordCount(g));
    for (std::size_t w = 0; w < vbp4.GroupWordCount(g); ++w) {
      ASSERT_EQ(vbp_interleaved.GroupData(g)[w], vbp4.GroupData(g)[w]);
    }
  }
  const HbpColumn hbp = HbpColumn::Pack(codes, 19, {.tau = 6});
  const HbpColumn hbp4 = HbpColumn::Pack(codes, 19, {.tau = 6, .lanes = 4});
  const HbpColumn hbp_interleaved = hbp.Interleave(4);
  ASSERT_EQ(hbp_interleaved.lanes(), 4);
  ASSERT_EQ(hbp_interleaved.num_segments(), hbp4.num_segments());
  for (int g = 0; g < hbp4.num_groups(); ++g) {
    ASSERT_EQ(hbp_interleaved.GroupWordCount(g), hbp4.GroupWordCount(g));
    for (std::size_t w = 0; w < hbp4.GroupWordCount(g); ++w) {
      ASSERT_EQ(hbp_interleaved.GroupData(g)[w], hbp4.GroupData(g)[w]);
    }
  }
}

TEST(LayoutTest, DecodeReadsAnyRangeBackFromThePacking) {
  for (const int k : {1, 7, 16, 33, 63}) {
    const auto codes = RandomCodes(1000, k, 500 + k);
    const VbpColumn vbp = VbpColumn::Pack(codes, k);
    const VbpColumn vbp4 = VbpColumn::Pack(codes, k, {.lanes = 4});
    const HbpColumn hbp = HbpColumn::Pack(codes, k);
    for (const auto& [begin, n] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {0, 1000}, {0, 64}, {64, 64}, {5, 1}, {63, 2}, {100, 333},
             {999, 1}, {960, 40}}) {
      std::vector<std::uint64_t> want(codes.begin() + begin,
                                      codes.begin() + begin + n);
      std::vector<std::uint64_t> got(n);
      vbp.Decode(begin, n, got.data());
      ASSERT_EQ(got, want) << "vbp k=" << k << " begin=" << begin;
      vbp4.Decode(begin, n, got.data());
      ASSERT_EQ(got, want) << "vbp lanes=4 k=" << k << " begin=" << begin;
      hbp.Decode(begin, n, got.data());
      ASSERT_EQ(got, want) << "hbp k=" << k << " begin=" << begin;
    }
  }
}

}  // namespace
}  // namespace icp
