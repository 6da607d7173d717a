// Unit tests for the kernel registry: tier parsing/selection, the
// programmatic override, and bit-exact agreement of every tier's kernels on
// random inputs (including ragged tails that don't fill a CSA block).
//
// Tier iteration goes through CoveredTiers(), which dedupes tiers that
// clamp to a lower table on this host (via kern::EffectiveTier) and prints
// a line for each skipped tier — so the test log never claims phantom
// coverage for a tier the host cannot actually run.

#include "simd/dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "util/bits.h"
#include "util/random.h"

namespace icp {
namespace {

TEST(DispatchTest, TierNamesRoundTrip) {
  for (kern::Tier tier : {kern::Tier::kScalar, kern::Tier::kSse64,
                          kern::Tier::kAvx2, kern::Tier::kAvx512}) {
    kern::Tier parsed;
    ASSERT_TRUE(kern::ParseTier(kern::TierName(tier), &parsed));
    EXPECT_EQ(parsed, tier);
  }
  kern::Tier parsed;
  EXPECT_FALSE(kern::ParseTier("", &parsed));
  EXPECT_FALSE(kern::ParseTier("avx999", &parsed));
  EXPECT_FALSE(kern::ParseTier("AVX2", &parsed));
}

TEST(DispatchTest, ActiveTierNeverExceedsSupport) {
  EXPECT_LE(static_cast<int>(kern::ActiveTier()),
            static_cast<int>(kern::MaxSupportedTier()));
}

TEST(DispatchTest, EffectiveTierReportsTheTableActuallyReturned) {
  // scalar and sse are always compiled in and always supported.
  EXPECT_EQ(kern::EffectiveTier(kern::Tier::kScalar), kern::Tier::kScalar);
  EXPECT_EQ(kern::EffectiveTier(kern::Tier::kSse64), kern::Tier::kSse64);
  for (int t = 0; t <= static_cast<int>(kern::Tier::kAvx512); ++t) {
    const auto tier = static_cast<kern::Tier>(t);
    const kern::Tier eff = kern::EffectiveTier(tier);
    // Clamping only ever lowers, never raises.
    EXPECT_LE(static_cast<int>(eff), t) << kern::TierName(tier);
    EXPECT_LE(static_cast<int>(eff),
              static_cast<int>(kern::MaxSupportedTier()))
        << kern::TierName(tier);
    // Idempotent: an effective tier is its own effective tier.
    EXPECT_EQ(kern::EffectiveTier(eff), eff) << kern::TierName(tier);
    // And it names exactly the ops table OpsFor hands back.
    EXPECT_STREQ(kern::TierName(eff), kern::OpsFor(tier).name);
  }
}

TEST(DispatchTest, ForceTierOverridesAndClamps) {
  kern::ForceTier(kern::Tier::kScalar);
  EXPECT_EQ(kern::ActiveTier(), kern::Tier::kScalar);
  EXPECT_STREQ(kern::Ops().name, "scalar");

  // Forcing above the CPU's capability degrades to the best supported tier.
  kern::ForceTier(kern::Tier::kAvx2);
  EXPECT_EQ(kern::ActiveTier(), kern::MaxSupportedTier() < kern::Tier::kAvx2
                                    ? kern::MaxSupportedTier()
                                    : kern::Tier::kAvx2);

  kern::ForceTier(std::nullopt);
  EXPECT_LE(static_cast<int>(kern::ActiveTier()),
            static_cast<int>(kern::MaxSupportedTier()));
}

// Distinct tiers this host can genuinely run. Tiers whose ops table clamps
// to a lower tier are skipped with a log line instead of being re-tested
// (and re-reported) under the higher tier's name.
std::vector<kern::Tier> CoveredTiers() {
  std::vector<kern::Tier> tiers;
  for (int t = 0; t <= static_cast<int>(kern::Tier::kAvx512); ++t) {
    const auto tier = static_cast<kern::Tier>(t);
    const kern::Tier eff = kern::EffectiveTier(tier);
    if (eff != tier) {
      std::cout << "[ SKIPPED  ] tier '" << kern::TierName(tier)
                << "' clamps to '" << kern::TierName(eff)
                << "' on this host\n";
      continue;
    }
    tiers.push_back(tier);
  }
  return tiers;
}

std::vector<Word> RandomWords(Random& rng, std::size_t n) {
  std::vector<Word> words(n);
  for (auto& w : words) {
    w = rng.UniformInt(0, ~std::uint64_t{0} - 1);
  }
  return words;
}

// Sizes chosen to land on and around the kernels' internal block sizes
// (8-word CSA blocks, 16x4-word AVX2 blocks, 2-unit AVX-512 iterations):
// 0, tiny, one block, one block +/- 1, odd counts, and large ragged sizes.
const std::size_t kSizes[] = {0, 1, 7, 8, 9, 63, 64, 65, 1024, 1339};

TEST(DispatchTest, PopcountKernelsAgreeAcrossTiers) {
  Random rng(99);
  const kern::KernelOps& scalar = kern::OpsFor(kern::Tier::kScalar);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  for (const std::size_t n : kSizes) {
    const std::vector<Word> a = RandomWords(rng, n);
    const std::vector<Word> b = RandomWords(rng, n);
    const std::uint64_t want_words = scalar.popcount_words(a.data(), n);
    const std::uint64_t want_and = scalar.popcount_and(a.data(), b.data(), n);
    for (const kern::Tier tier : tiers) {
      const kern::KernelOps& ops = kern::OpsFor(tier);
      EXPECT_EQ(ops.popcount_words(a.data(), n), want_words)
          << "tier=" << ops.name << " n=" << n;
      EXPECT_EQ(ops.popcount_and(a.data(), b.data(), n), want_and)
          << "tier=" << ops.name << " n=" << n;
    }
  }
}

TEST(DispatchTest, VbpBitSumKernelsAgreeAcrossTiers) {
  Random rng(100);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  for (const int width : {1, 3, 10, 17}) {
    for (const std::size_t n : kSizes) {
      const std::vector<Word> data = RandomWords(rng, n * width);
      const std::vector<Word> filter = RandomWords(rng, n);
      std::vector<std::uint64_t> want(width, 0);
      kern::OpsFor(kern::Tier::kScalar)
          .vbp_bit_sums(data.data(), filter.data(), n, width, want.data());
      for (const kern::Tier tier : tiers) {
        const kern::KernelOps& ops = kern::OpsFor(tier);
        std::vector<std::uint64_t> got(width, 0);
        ops.vbp_bit_sums(data.data(), filter.data(), n, width, got.data());
        EXPECT_EQ(got, want) << "tier=" << ops.name << " width=" << width
                             << " n=" << n;
      }
    }
  }
}

TEST(DispatchTest, VbpQuadBitSumKernelsAgreeAcrossTiers) {
  Random rng(101);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  for (const int width : {1, 3, 10, 17}) {
    for (const std::size_t quads : kSizes) {
      const std::vector<Word> data = RandomWords(rng, quads * width * 4);
      const std::vector<Word> filter = RandomWords(rng, quads * 4);
      std::vector<std::uint64_t> want(width, 0);
      kern::OpsFor(kern::Tier::kScalar)
          .vbp_bit_sums_quads(data.data(), filter.data(), quads, width,
                              want.data());
      for (const kern::Tier tier : tiers) {
        const kern::KernelOps& ops = kern::OpsFor(tier);
        std::vector<std::uint64_t> got(width, 0);
        ops.vbp_bit_sums_quads(data.data(), filter.data(), quads, width,
                               got.data());
        EXPECT_EQ(got, want) << "tier=" << ops.name << " width=" << width
                             << " quads=" << quads;
      }
    }
  }
}

// Sums accumulate (+=): a second call adds on top of the first.
TEST(DispatchTest, BitSumsAccumulateIntoExistingTotals) {
  Random rng(102);
  const int width = 5;
  const std::size_t n = 100;
  const std::vector<Word> data = RandomWords(rng, n * width);
  const std::vector<Word> filter = RandomWords(rng, n);
  std::vector<std::uint64_t> once(width, 0), twice(width, 0);
  const kern::KernelOps& ops = kern::Ops();
  ops.vbp_bit_sums(data.data(), filter.data(), n, width, once.data());
  ops.vbp_bit_sums(data.data(), filter.data(), n, width, twice.data());
  ops.vbp_bit_sums(data.data(), filter.data(), n, width, twice.data());
  for (int j = 0; j < width; ++j) {
    EXPECT_EQ(twice[j], 2 * once[j]) << "plane " << j;
  }
}

TEST(DispatchTest, CombineKernelsAgreeAcrossTiers) {
  Random rng(103);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  for (const std::size_t n : kSizes) {
    const std::vector<Word> dst0 = RandomWords(rng, n);
    const std::vector<Word> src = RandomWords(rng, n);
    for (int op = 0; op < 4; ++op) {
      std::vector<Word> want = dst0;
      kern::OpsFor(kern::Tier::kScalar)
          .combine_words(want.data(), src.data(), n, op);
      for (const kern::Tier tier : tiers) {
        const kern::KernelOps& ops = kern::OpsFor(tier);
        std::vector<Word> got = dst0;
        ops.combine_words(got.data(), src.data(), n, op);
        EXPECT_EQ(got, want) << "tier=" << ops.name << " op=" << op
                             << " n=" << n;
      }
    }
  }
}

TEST(DispatchTest, MaskedPopcountKernelsAgreeAcrossTiers) {
  Random rng(104);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  for (const int lanes : {1, 4}) {
    for (const int width : {1, 3, 10}) {
      const std::size_t stride = static_cast<std::size_t>(width) * lanes;
      for (const std::size_t n : kSizes) {
        const std::vector<Word> data = RandomWords(rng, n * stride);
        std::vector<Word> cand = RandomWords(rng, n * lanes);
        // Zero out some whole units to exercise the narrowed-away skip.
        for (std::size_t u = 0; u + 2 < n; u += 3) {
          for (int l = 0; l < lanes; ++l) cand[u * lanes + l] = 0;
        }
        const std::uint64_t want =
            kern::OpsFor(kern::Tier::kScalar)
                .masked_popcount(data.data(), stride, lanes, cand.data(), n);
        for (const kern::Tier tier : tiers) {
          const kern::KernelOps& ops = kern::OpsFor(tier);
          EXPECT_EQ(ops.masked_popcount(data.data(), stride, lanes,
                                        cand.data(), n),
                    want)
              << "tier=" << ops.name << " lanes=" << lanes
              << " width=" << width << " n=" << n;
        }
      }
    }
  }
}

// HBP SUM: the tiers use different in-word-sum plans (scalar: multiply
// plan; AVX2: halving or widened-accumulator plan; AVX-512: vpmullq
// multiply plan). All plans compute exact field sums and the uint64
// accumulation is mod-2^64 order-independent, so results must match
// bit-for-bit anyway.
TEST(DispatchTest, HbpSumKernelsAgreeAcrossTiers) {
  Random rng(105);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  const int num_groups = 3;
  for (const int s : {2, 3, 8, 21, 64}) {
    const int tau = s - 1;
    for (const int lanes : {1, 4}) {
      for (const std::size_t n : kSizes) {
        std::vector<std::vector<Word>> group_data(num_groups);
        std::vector<const Word*> bases(num_groups);
        for (int g = 0; g < num_groups; ++g) {
          group_data[g] =
              RandomWords(rng, n * static_cast<std::size_t>(s) * lanes);
          bases[g] = group_data[g].data();
        }
        const std::vector<Word> filter = RandomWords(rng, n * lanes);
        // Nonzero initial totals pin the accumulate (+=) contract.
        std::vector<std::uint64_t> want = {7, 11, 13};
        kern::OpsFor(kern::Tier::kScalar)
            .hbp_sum(bases.data(), num_groups, s, tau, lanes, filter.data(),
                     n, want.data());
        for (const kern::Tier tier : tiers) {
          const kern::KernelOps& ops = kern::OpsFor(tier);
          std::vector<std::uint64_t> got = {7, 11, 13};
          ops.hbp_sum(bases.data(), num_groups, s, tau, lanes, filter.data(),
                      n, got.data());
          EXPECT_EQ(got, want) << "tier=" << ops.name << " s=" << s
                               << " lanes=" << lanes << " n=" << n;
        }
      }
    }
  }
}

// The extreme folds: every tier must leave the same running extreme and
// the same counters as the scalar fold. Each case folds the data twice:
// the first pass starts from the identity and keeps replacing, the second
// starts from the converged extreme and replaces nothing. The lanes == 1
// vector folds commit a block speculatively only when it replaces nothing
// (agg_kernels.cc), so the second pass is the one that covers that path.
TEST(DispatchTest, VbpExtremeFoldKernelsAgreeAcrossTiers) {
  Random rng(106);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  const int tau = 5;
  const int widths[] = {5, 5, 3};  // ragged last group, k = 13
  const int num_groups = 3;
  for (const bool is_min : {true, false}) {
    for (const int lanes : {1, 4}) {
      for (const std::size_t n : kSizes) {
        std::vector<std::vector<Word>> group_data(num_groups);
        std::vector<const Word*> bases(num_groups);
        for (int g = 0; g < num_groups; ++g) {
          group_data[g] = RandomWords(
              rng, n * static_cast<std::size_t>(widths[g]) * lanes);
          bases[g] = group_data[g].data();
        }
        std::vector<Word> filter = RandomWords(rng, n * lanes);
        // Zero some whole units to exercise the segment-skip path.
        for (std::size_t u = 0; u + 1 < n; u += 4) {
          for (int l = 0; l < lanes; ++l) filter[u * lanes + l] = 0;
        }
        std::vector<Word> want(static_cast<std::size_t>(num_groups) * tau *
                                   lanes,
                               is_min ? ~Word{0} : Word{0});
        std::vector<Word> got_init = want;
        kern::FoldCounters want_counters[2];
        for (kern::FoldCounters& c : want_counters) {
          kern::OpsFor(kern::Tier::kScalar)
              .vbp_extreme_fold(bases.data(), widths, num_groups, tau, lanes,
                                filter.data(), n, is_min, want.data(), &c);
        }
        for (const kern::Tier tier : tiers) {
          const kern::KernelOps& ops = kern::OpsFor(tier);
          std::vector<Word> got = got_init;
          for (int pass = 0; pass < 2; ++pass) {
            kern::FoldCounters counters;
            ops.vbp_extreme_fold(bases.data(), widths, num_groups, tau, lanes,
                                 filter.data(), n, is_min, got.data(),
                                 &counters);
            const std::string context =
                std::string("tier=") + ops.name +
                " is_min=" + (is_min ? "1" : "0") +
                " lanes=" + std::to_string(lanes) +
                " n=" + std::to_string(n) + " pass=" + std::to_string(pass);
            const kern::FoldCounters& w = want_counters[pass];
            EXPECT_EQ(counters.folds, w.folds) << context;
            EXPECT_EQ(counters.compare_early_stops, w.compare_early_stops)
                << context;
            EXPECT_EQ(counters.blends_skipped, w.blends_skipped) << context;
            EXPECT_EQ(counters.segments_skipped, w.segments_skipped)
                << context;
          }
          EXPECT_EQ(got, want) << "tier=" << ops.name << " lanes=" << lanes
                               << " n=" << n;
        }
      }
    }
  }
}

TEST(DispatchTest, HbpExtremeFoldKernelsAgreeAcrossTiers) {
  Random rng(107);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  const int num_groups = 2;
  for (const int s : {2, 3, 8, 21, 64}) {
    const int tau = s - 1;
    for (const bool is_min : {true, false}) {
      for (const int lanes : {1, 4}) {
        for (const std::size_t n : kSizes) {
          std::vector<std::vector<Word>> group_data(num_groups);
          std::vector<const Word*> bases(num_groups);
          for (int g = 0; g < num_groups; ++g) {
            group_data[g] =
                RandomWords(rng, n * static_cast<std::size_t>(s) * lanes);
            bases[g] = group_data[g].data();
          }
          std::vector<Word> filter = RandomWords(rng, n * lanes);
          for (std::size_t u = 0; u + 1 < n; u += 4) {
            for (int l = 0; l < lanes; ++l) filter[u * lanes + l] = 0;
          }
          const Word init = is_min ? FieldValueMask(s) : Word{0};
          std::vector<Word> want(static_cast<std::size_t>(num_groups) *
                                     lanes,
                                 init);
          kern::FoldCounters want_counters[2];
          for (kern::FoldCounters& c : want_counters) {
            kern::OpsFor(kern::Tier::kScalar)
                .hbp_extreme_fold(bases.data(), num_groups, s, tau, lanes,
                                  filter.data(), n, is_min, want.data(), &c);
          }
          for (const kern::Tier tier : tiers) {
            const kern::KernelOps& ops = kern::OpsFor(tier);
            std::vector<Word> got(want.size(), init);
            for (int pass = 0; pass < 2; ++pass) {
              kern::FoldCounters counters;
              ops.hbp_extreme_fold(bases.data(), num_groups, s, tau, lanes,
                                   filter.data(), n, is_min, got.data(),
                                   &counters);
              const std::string context =
                  std::string("tier=") + ops.name + " s=" + std::to_string(s) +
                  " is_min=" + (is_min ? "1" : "0") +
                  " lanes=" + std::to_string(lanes) +
                  " n=" + std::to_string(n) + " pass=" + std::to_string(pass);
              const kern::FoldCounters& w = want_counters[pass];
              EXPECT_EQ(counters.folds, w.folds) << context;
              EXPECT_EQ(counters.compare_early_stops, w.compare_early_stops)
                  << context;
              EXPECT_EQ(counters.blends_skipped, w.blends_skipped) << context;
              EXPECT_EQ(counters.segments_skipped, w.segments_skipped)
                  << context;
            }
            EXPECT_EQ(got, want) << "tier=" << ops.name << " s=" << s
                                 << " lanes=" << lanes << " n=" << n;
          }
        }
      }
    }
  }
}

// Per-segment codes of a column that rises for its first third, stays flat
// for its second and rises again for its last (ids or dates in insertion
// order, with a pause). Every segment holds one code, so under MAX (and
// under MIN over the mirrored codes) the rising thirds replace the running
// extreme in every segment: the lanes == 1 vector folds' speculation fails
// block after block there, and the flat third commits every block.
std::vector<std::uint64_t> RiseFlatRiseCodes(std::size_t n, int k,
                                              bool is_min) {
  std::vector<std::uint64_t> codes(n);
  const std::size_t third = n / 3;
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t rise =
        u < third ? u : (u < 2 * third ? third : u - third);
    codes[u] = is_min ? LowMask(k) - rise : rise;
  }
  return codes;
}

// The extreme folds on monotone columns, where the lanes == 1 vector folds
// hand runs of blocks to the scalar fold (NextBackoff in agg_kernels.cc).
// 4505 segments make the rising thirds long enough for the hand-over to
// reach its 64-block cap at 8 segments per block, and leave a ragged tail.
TEST(DispatchTest, ExtremeFoldsAgreeOnMonotoneColumns) {
  Random rng(113);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  const std::size_t n = 4505;
  std::vector<Word> filter = RandomWords(rng, n);
  for (std::size_t u = 0; u < n; u += 9) filter[u] = 0;  // skipped segments
  const auto expect_same = [](const kern::FoldCounters& got,
                              const kern::FoldCounters& want,
                              const std::string& context) {
    EXPECT_EQ(got.folds, want.folds) << context;
    EXPECT_EQ(got.compare_early_stops, want.compare_early_stops) << context;
    EXPECT_EQ(got.blends_skipped, want.blends_skipped) << context;
    EXPECT_EQ(got.segments_skipped, want.segments_skipped) << context;
  };
  for (const bool is_min : {true, false}) {
    // VBP, k = 13 in groups of 5, 5, 3: every value of a segment equals the
    // segment's code, so plane j (most significant first) is all ones or
    // all zeros.
    {
      const int tau = 5;
      const int widths[] = {5, 5, 3};
      const int k = 13;
      const std::vector<std::uint64_t> codes = RiseFlatRiseCodes(n, k, is_min);
      std::vector<std::vector<Word>> group_data(3);
      std::vector<const Word*> bases(3);
      for (int g = 0; g < 3; ++g) {
        group_data[g].resize(n * static_cast<std::size_t>(widths[g]));
        for (std::size_t u = 0; u < n; ++u) {
          for (int j = 0; j < widths[g]; ++j) {
            const int bit = k - 1 - (g * tau + j);
            group_data[g][u * widths[g] + j] =
                ((codes[u] >> bit) & 1) != 0 ? ~Word{0} : Word{0};
          }
        }
        bases[g] = group_data[g].data();
      }
      std::vector<Word> want(3 * tau, is_min ? ~Word{0} : Word{0});
      const std::vector<Word> init = want;
      kern::FoldCounters want_counters;
      kern::OpsFor(kern::Tier::kScalar)
          .vbp_extreme_fold(bases.data(), widths, 3, tau, /*lanes=*/1,
                            filter.data(), n, is_min, want.data(),
                            &want_counters);
      for (const kern::Tier tier : tiers) {
        const kern::KernelOps& ops = kern::OpsFor(tier);
        std::vector<Word> got = init;
        kern::FoldCounters counters;
        ops.vbp_extreme_fold(bases.data(), widths, 3, tau, /*lanes=*/1,
                             filter.data(), n, is_min, got.data(), &counters);
        const std::string context = std::string("vbp tier=") + ops.name +
                                    " is_min=" + (is_min ? "1" : "0");
        expect_same(counters, want_counters, context);
        EXPECT_EQ(got, want) << context;
      }
    }
    // HBP, two groups of tau = s - 1 value bits: every field of a segment's
    // words holds that group's bits of the segment's code.
    for (const int s : {8, 21, 64}) {
      const int tau = s - 1;
      const int k = std::min(2 * tau, 20);
      const std::vector<std::uint64_t> codes = RiseFlatRiseCodes(n, k, is_min);
      std::vector<std::vector<Word>> group_data(2);
      std::vector<const Word*> bases(2);
      for (int g = 0; g < 2; ++g) {
        const int shift = (1 - g) * tau;
        group_data[g].resize(n * static_cast<std::size_t>(s));
        for (std::size_t u = 0; u < n; ++u) {
          const Word field = (codes[u] >> shift) & LowMask(tau);
          for (int t = 0; t < s; ++t) {
            group_data[g][u * s + t] = RepeatField(field, s);
          }
        }
        bases[g] = group_data[g].data();
      }
      const Word init = is_min ? FieldValueMask(s) : Word{0};
      std::vector<Word> want(2, init);
      kern::FoldCounters want_counters;
      kern::OpsFor(kern::Tier::kScalar)
          .hbp_extreme_fold(bases.data(), 2, s, tau, /*lanes=*/1,
                            filter.data(), n, is_min, want.data(),
                            &want_counters);
      for (const kern::Tier tier : tiers) {
        const kern::KernelOps& ops = kern::OpsFor(tier);
        std::vector<Word> got(2, init);
        kern::FoldCounters counters;
        ops.hbp_extreme_fold(bases.data(), 2, s, tau, /*lanes=*/1,
                             filter.data(), n, is_min, got.data(), &counters);
        const std::string context = std::string("hbp tier=") + ops.name +
                                    " s=" + std::to_string(s) +
                                    " is_min=" + (is_min ? "1" : "0");
        expect_same(counters, want_counters, context);
        EXPECT_EQ(got, want) << context;
      }
    }
  }
}

// Every tier's scan slot must compute the same output words bit-for-bit
// (pinned against the scalar slot), but counters are only required to be
// internally consistent per tier: the avx2/avx512 scanners process blocks
// of 4/8 segments and early-stop at block granularity, so their
// words_examined / segments_early_stopped legitimately differ from the
// scalar cascade's per-segment accounting. The invariants pinned here are
// the ones docs and the accounting test rely on:
//   segments_processed == n - (prior-skipped segments)
//   segments_early_stopped <= segments_processed
//   words_examined in [processed * min_group_words,
//                      processed * total_words_per_segment]
TEST(DispatchTest, VbpScanKernelsAgreeAcrossTiers) {
  Random rng(108);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  const int tau = 5;
  const int widths[] = {5, 5, 3};
  const int num_groups = 3;
  bool c1_bits[kWordBits] = {};
  bool c2_bits[kWordBits] = {};
  for (int j = 0; j < num_groups * tau; ++j) {
    c1_bits[j] = rng.Bernoulli(0.5);
    c2_bits[j] = rng.Bernoulli(0.5);
  }
  for (int op = 0; op <= 6; ++op) {
    for (const bool with_prior : {false, true}) {
      for (const std::size_t n : kSizes) {
        if (n > 128) continue;
        std::vector<std::vector<Word>> group_data(num_groups);
        std::vector<const Word*> bases(num_groups);
        for (int g = 0; g < num_groups; ++g) {
          group_data[g] =
              RandomWords(rng, n * static_cast<std::size_t>(widths[g]));
          bases[g] = group_data[g].data();
        }
        std::vector<Word> prior = RandomWords(rng, n);
        for (std::size_t i = 0; i + 1 < n; i += 3) prior[i] = 0;
        std::vector<Word> want(n, Word{0xDEADBEEF});
        kern::ScanCounters want_counters;
        kern::OpsFor(kern::Tier::kScalar)
            .vbp_scan(bases.data(), widths, num_groups, tau, op, c1_bits,
                      c2_bits, n, with_prior ? prior.data() : nullptr,
                      want.data(), &want_counters);
        // Prior-skip contract: a zeroed prior word yields a zero output
        // word.
        if (with_prior) {
          for (std::size_t i = 0; i < n; ++i) {
            if (prior[i] == 0) EXPECT_EQ(want[i], Word{0}) << "i=" << i;
          }
        }
        for (const kern::Tier tier : tiers) {
          const kern::KernelOps& ops = kern::OpsFor(tier);
          std::vector<Word> got(n, Word{0xDEADBEEF});
          kern::ScanCounters counters;
          ops.vbp_scan(bases.data(), widths, num_groups, tau, op, c1_bits,
                       c2_bits, n, with_prior ? prior.data() : nullptr,
                       got.data(), &counters);
          const std::string context = std::string("tier=") + ops.name +
                                      " op=" + std::to_string(op) +
                                      " prior=" + (with_prior ? "1" : "0") +
                                      " n=" + std::to_string(n);
          EXPECT_EQ(got, want) << context;
          std::uint64_t skipped = 0;
          if (with_prior) {
            for (std::size_t i = 0; i < n; ++i) {
              if (prior[i] == 0) ++skipped;
            }
          }
          const std::uint64_t total_width = 5 + 5 + 3;
          EXPECT_EQ(counters.segments_processed, n - skipped) << context;
          EXPECT_LE(counters.segments_early_stopped,
                    counters.segments_processed)
              << context;
          EXPECT_GE(counters.words_examined,
                    counters.segments_processed *
                        static_cast<std::uint64_t>(widths[0]))
              << context;
          EXPECT_LE(counters.words_examined,
                    counters.segments_processed * total_width)
              << context;
        }
      }
    }
  }
}

TEST(DispatchTest, HbpScanKernelsAgreeAcrossTiers) {
  Random rng(109);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  const int num_groups = 2;
  for (const int s : {2, 8, 21}) {
    const int tau = s - 1;
    const Word md = DelimiterMask(s);
    Word c1_packed[kWordBits];
    Word c2_packed[kWordBits];
    for (int g = 0; g < num_groups; ++g) {
      c1_packed[g] = RepeatField(rng.UniformInt(0, LowMask(tau)), s);
      c2_packed[g] = RepeatField(rng.UniformInt(0, LowMask(tau)), s);
    }
    for (int op = 0; op <= 6; ++op) {
      for (const bool with_prior : {false, true}) {
        for (const std::size_t n : kSizes) {
          if (n > 128) continue;
          std::vector<std::vector<Word>> group_data(num_groups);
          std::vector<const Word*> bases(num_groups);
          for (int g = 0; g < num_groups; ++g) {
            group_data[g] =
                RandomWords(rng, n * static_cast<std::size_t>(s));
            bases[g] = group_data[g].data();
          }
          std::vector<Word> prior = RandomWords(rng, n);
          for (std::size_t i = 0; i + 1 < n; i += 3) prior[i] = 0;
          std::vector<Word> want(n, Word{0xDEADBEEF});
          kern::ScanCounters want_counters;
          kern::OpsFor(kern::Tier::kScalar)
              .hbp_scan(bases.data(), num_groups, s, op, c1_packed,
                        c2_packed, md, n,
                        with_prior ? prior.data() : nullptr, want.data(),
                        &want_counters);
          for (const kern::Tier tier : tiers) {
            const kern::KernelOps& ops = kern::OpsFor(tier);
            std::vector<Word> got(n, Word{0xDEADBEEF});
            kern::ScanCounters counters;
            ops.hbp_scan(bases.data(), num_groups, s, op, c1_packed,
                         c2_packed, md, n,
                         with_prior ? prior.data() : nullptr, got.data(),
                         &counters);
            const std::string context = std::string("tier=") + ops.name +
                                        " s=" + std::to_string(s) +
                                        " op=" + std::to_string(op) +
                                        " prior=" +
                                        (with_prior ? "1" : "0") +
                                        " n=" + std::to_string(n);
            EXPECT_EQ(got, want) << context;
            std::uint64_t skipped = 0;
            if (with_prior) {
              for (std::size_t i = 0; i < n; ++i) {
                if (prior[i] == 0) ++skipped;
              }
            }
            EXPECT_EQ(counters.segments_processed, n - skipped) << context;
            EXPECT_LE(counters.segments_early_stopped,
                      counters.segments_processed)
                << context;
            EXPECT_GE(counters.words_examined,
                      counters.segments_processed *
                          static_cast<std::uint64_t>(s))
                << context;
            EXPECT_LE(counters.words_examined,
                      counters.segments_processed *
                          static_cast<std::uint64_t>(num_groups * s))
                << context;
          }
        }
      }
    }
  }
}

// The per-bit VBP packer the segment transpose replaced: one bit per value
// per plane. Kept here as the reference the vbp_pack slot must match.
void ReferencePackSegment(const std::uint64_t* codes, std::size_t n, int k,
                          Word* planes) {
  for (int j = 0; j < k; ++j) planes[j] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) {
      if ((codes[i] >> (k - 1 - j)) & 1) {
        planes[j] |= Word{1} << (kWordBits - 1 - static_cast<int>(i));
      }
    }
  }
}

TEST(DispatchTest, VbpPackMatchesReferencePackerOnEveryTier) {
  Random rng(2024);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  for (int k = 1; k <= 63; ++k) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{7}, std::size_t{8},
                                std::size_t{9}, std::size_t{33},
                                std::size_t{63}, std::size_t{64}}) {
      // Codes past n are garbage: the slot must never read them.
      std::vector<std::uint64_t> codes(kWordBits, ~std::uint64_t{0});
      for (std::size_t i = 0; i < n; ++i) {
        codes[i] = rng.UniformInt(0, LowMask(k));
      }
      // The extremes of the domain, so every plane sees ones and zeros.
      codes[0] = LowMask(k);
      if (n > 1) codes[n - 1] = 0;
      Word want[kWordBits];
      ReferencePackSegment(codes.data(), n, k, want);
      for (const kern::Tier tier : tiers) {
        const kern::KernelOps& ops = kern::OpsFor(tier);
        const std::string context = std::string("tier=") + ops.name +
                                    " k=" + std::to_string(k) +
                                    " n=" + std::to_string(n);
        // Canaries after the k planes catch over-long stores.
        std::vector<Word> planes(k + 8, 0x5A5A5A5A5A5A5A5Aull);
        ops.vbp_pack(codes.data(), n, k, planes.data());
        for (int j = 0; j < k; ++j) {
          ASSERT_EQ(planes[j], want[j]) << context << " plane=" << j;
        }
        for (int j = k; j < k + 8; ++j) {
          ASSERT_EQ(planes[j], 0x5A5A5A5A5A5A5A5Aull) << context;
        }
        std::uint64_t back[kWordBits];
        ops.vbp_unpack(planes.data(), k, back);
        for (std::size_t i = 0; i < kWordBits; ++i) {
          ASSERT_EQ(back[i], i < n ? codes[i] : 0)
              << context << " slot=" << i;
        }
      }
    }
  }
}

TEST(DispatchTest, VbpUnpackInvertsArbitraryPlanesOnEveryTier) {
  // Any k words are a valid segment: unpack then pack must give them back,
  // and every tier must unpack them to the same codes.
  Random rng(77);
  const kern::KernelOps& scalar = kern::OpsFor(kern::Tier::kScalar);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  for (int k = 1; k <= 63; ++k) {
    const std::vector<Word> planes = RandomWords(rng, k);
    std::uint64_t want[kWordBits];
    scalar.vbp_unpack(planes.data(), k, want);
    for (const kern::Tier tier : tiers) {
      const kern::KernelOps& ops = kern::OpsFor(tier);
      std::uint64_t codes[kWordBits];
      ops.vbp_unpack(planes.data(), k, codes);
      for (std::size_t i = 0; i < kWordBits; ++i) {
        ASSERT_EQ(codes[i], want[i])
            << "tier=" << ops.name << " k=" << k << " slot=" << i;
        ASSERT_LE(codes[i], LowMask(k));
      }
      std::vector<Word> again(k);
      ops.vbp_pack(codes, kWordBits, k, again.data());
      EXPECT_EQ(again, planes) << "tier=" << ops.name << " k=" << k;
    }
  }
}

// The per-bit select the vbp_select slot must match: row i's code is bit
// 63 - i of every plane, most significant plane first.
std::vector<std::uint64_t> ReferenceSelect(const std::vector<Word>& planes,
                                           Word mask) {
  std::vector<std::uint64_t> codes;
  for (int i = 0; i < kWordBits; ++i) {
    if (((mask >> (kWordBits - 1 - i)) & 1) == 0) continue;
    std::uint64_t v = 0;
    for (const Word p : planes) v = (v << 1) | ((p >> (kWordBits - 1 - i)) & 1);
    codes.push_back(v);
  }
  return codes;
}

// A mask with `rows` random rows set.
Word MaskWithRows(Random& rng, int rows) {
  Word mask = 0;
  while (std::popcount(mask) < rows) {
    mask |= Word{1} << rng.UniformInt(0, kWordBits - 1);
  }
  return mask;
}

TEST(DispatchTest, VbpSelectMatchesPerBitReferenceOnEveryTier) {
  Random rng(4242);
  const std::vector<kern::Tier> tiers = CoveredTiers();
  constexpr std::uint64_t kCanary = 0xC3C3C3C3C3C3C3C3ull;
  for (int k = 1; k <= 63; ++k) {
    // Row counts: empty, single, full and one short, both sides of the
    // 8-row vector boundaries, and both sides of the scalar gather
    // cut-off (rows x k <= 224) where it falls inside a segment.
    std::vector<int> row_counts = {0, 1, 2, 7, 8, 9, 16, 17, 63, 64};
    for (const int cut : {224 / k, 224 / k + 1}) {
      if (cut <= kWordBits) row_counts.push_back(cut);
    }
    for (int i = 0; i < 4; ++i) {
      row_counts.push_back(static_cast<int>(rng.UniformInt(0, kWordBits)));
    }
    for (const int tau : {1, 3, 4, k}) {
      if (tau > k) continue;
      // Each bit-group in a buffer of its own, as VbpColumn stores them,
      // so a read across a group boundary lands outside the group.
      const std::vector<Word> planes = RandomWords(rng, k);
      std::vector<std::vector<Word>> groups;
      std::vector<const Word*> group_ptrs;
      for (int j0 = 0; j0 < k; j0 += tau) {
        groups.emplace_back(planes.begin() + j0,
                            planes.begin() + std::min(k, j0 + tau));
      }
      for (const auto& group : groups) group_ptrs.push_back(group.data());
      for (const int rows : row_counts) {
        const Word mask = MaskWithRows(rng, rows);
        const std::vector<std::uint64_t> want = ReferenceSelect(planes, mask);
        for (const kern::Tier tier : tiers) {
          const kern::KernelOps& ops = kern::OpsFor(tier);
          const std::string context =
              std::string("tier=") + ops.name + " k=" + std::to_string(k) +
              " tau=" + std::to_string(tau) + " rows=" +
              std::to_string(rows);
          // Canaries after the 64-code output catch over-long stores.
          std::vector<std::uint64_t> out(kWordBits + 8, kCanary);
          const std::size_t n =
              ops.vbp_select(group_ptrs.data(), tau, k, mask, out.data());
          ASSERT_EQ(n, want.size()) << context;
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(out[i], want[i]) << context << " row#" << i;
          }
          for (std::size_t i = kWordBits; i < out.size(); ++i) {
            ASSERT_EQ(out[i], kCanary) << context << " past the end: " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace icp
