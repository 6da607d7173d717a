// Micro-benchmarks of the word-level kernels (google-benchmark).
//
// These are not paper figures; they characterize the primitives the
// aggregation algorithms are built from: IN-WORD-SUM plans per field width,
// the bit-parallel scans per value width, filter popcounting (COUNT), and
// filter combination.

#include <benchmark/benchmark.h>

#include <bit>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/hbp_aggregate.h"
#include "core/in_word_sum.h"
#include "core/vbp_aggregate.h"
#include "layout/vbp_column.h"
#include "simd/dispatch.h"
#include "simd/hbp_simd.h"
#include "simd/vbp_simd.h"

namespace icp::bench {
namespace {

constexpr std::size_t kKernelTuples = std::size_t{1} << 20;

void BM_InWordSum(benchmark::State& state) {
  const int s = static_cast<int>(state.range(0));
  const InWordSumPlan plan(s);
  Random rng(s);
  std::vector<Word> words(4096);
  for (auto& w : words) w = rng.Next() & FieldValueMask(s);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (const Word w : words) sink += plan.Apply(w);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(words.size()) *
                          FieldsPerWord(s));
}
BENCHMARK(BM_InWordSum)->Arg(2)->Arg(4)->Arg(5)->Arg(8)->Arg(14)->Arg(26);

// exercises: vbp_scan
void BM_VbpScan(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto codes = UniformCodes(kKernelTuples, k, 7);
  const VbpColumn col = VbpColumn::Pack(codes, k);
  const std::uint64_t c = LowMask(k) / 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VbpScanner::Scan(col, CompareOp::kLt, c).CountOnes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
}
BENCHMARK(BM_VbpScan)->Arg(4)->Arg(12)->Arg(25);

// exercises: hbp_scan
void BM_HbpScan(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto codes = UniformCodes(kKernelTuples, k, 9);
  const HbpColumn col = HbpColumn::Pack(codes, k);
  const std::uint64_t c = LowMask(k) / 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HbpScanner::Scan(col, CompareOp::kLt, c).CountOnes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
}
BENCHMARK(BM_HbpScan)->Arg(4)->Arg(12)->Arg(25);

void BM_FilterCount(benchmark::State& state) {
  FilterBitVector f(kKernelTuples, 64);
  Random rng(11);
  for (std::size_t i = 0; i < kKernelTuples; i += 3) f.SetBit(i, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.CountOnes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
}
BENCHMARK(BM_FilterCount);

void BM_FilterAnd(benchmark::State& state) {
  FilterBitVector a(kKernelTuples, 64), b(kKernelTuples, 64);
  a.SetAll();
  b.SetAll();
  for (auto _ : state) {
    a.And(b);
    benchmark::DoNotOptimize(a.words());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
}
BENCHMARK(BM_FilterAnd);

// ---------------------------------------------------------------------------
// Kernel-tier benchmarks (arg 0 = kern::Tier). Unsupported tiers skip with
// an error so the JSON records why a row is missing. The recorded series
// (BENCH_kernels.json, via tools/parse_bench.py --kernel-json) tracks the
// positional-popcount kernels against the scalar per-plane popcount loop.
// ---------------------------------------------------------------------------

// True when this process can genuinely run `tier`; otherwise marks the run
// skipped. Uses EffectiveTier so a tier that clamps to a lower table
// (unsupported CPU feature or compiled-out TU) records a skip instead of
// silently re-measuring the lower tier under the higher tier's name.
bool RequireTier(benchmark::State& state, kern::Tier tier) {
  if (kern::EffectiveTier(tier) == tier) {
    return true;
  }
  state.SkipWithError("tier unsupported on this CPU");
  return false;
}

// 50% selectivity filter over `n` tuples (the paper's default workload
// point), shaped for `values_per_segment`-value segments (64 for VBP; an
// HBP column's values_per_segment()).
FilterBitVector HalfFilter(std::size_t n, int values_per_segment = 64) {
  FilterBitVector f(n, values_per_segment);
  Random rng(21);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.5)) f.SetBit(i, true);
  }
  return f;
}

// The raw quad-interleaved positional-popcount kernel: the inner loop of
// VBP SUM/AVG over a lanes==4 column.
void BM_VbpBitSumsQuads(benchmark::State& state) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  const int k = static_cast<int>(state.range(1));
  const auto codes = UniformCodes(kKernelTuples, k, 7);
  const VbpColumn col = VbpColumn::Pack(codes, k, {.lanes = 4});
  const FilterBitVector f = HalfFilter(kKernelTuples);
  const kern::KernelOps& ops = kern::OpsFor(tier);
  const std::size_t num_quads = f.num_segments() / 4;
  std::uint64_t sums[kWordBits];
  for (auto _ : state) {
    for (int j = 0; j < k; ++j) sums[j] = 0;
    std::size_t consumed = 0;
    for (int g = 0; g < col.num_groups(); ++g) {
      const int width = col.GroupWidth(g);
      ops.vbp_bit_sums_quads(col.GroupData(g), f.words(), num_quads, width,
                             sums + consumed);
      consumed += static_cast<std::size_t>(width);
    }
    benchmark::DoNotOptimize(sums);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") + ops.name);
}
BENCHMARK(BM_VbpBitSumsQuads)
    ->ArgNames({"tier", "k"})
    ->Args({0, 10})
    ->Args({1, 10})
    ->Args({2, 10})
    ->Args({3, 10})
    ->Args({0, 25})
    ->Args({1, 25})
    ->Args({2, 25})
    ->Args({3, 25});

// Full VBP SUM through the registry (bit sums + weighting), per tier.
// exercises: vbp_bit_sums_quads
void BM_VbpSum(benchmark::State& state) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  const int k = static_cast<int>(state.range(1));
  const auto codes = UniformCodes(kKernelTuples, k, 7);
  const VbpColumn col = VbpColumn::Pack(codes, k, {.lanes = 4});
  const FilterBitVector f = HalfFilter(kKernelTuples);
  kern::ForceTier(tier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::SumVbp(col, f));
  }
  kern::ForceTier(std::nullopt);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") + kern::OpsFor(tier).name);
}
BENCHMARK(BM_VbpSum)
    ->ArgNames({"tier", "k"})
    ->Args({0, 10})
    ->Args({1, 10})
    ->Args({2, 10})
    ->Args({3, 10});

// Full HBP SUM per tier and packing (arg lanes: 1 = the engine's
// seg-major packing through hbp::Sum, 4 = the quad-interleaved side path
// through simd::SumHbp). The AVX2 tier runs the widened-accumulator
// in-word-sum plan, AVX-512 the vpmullq multiply plan.
// exercises: hbp_sum
void BM_HbpSum(benchmark::State& state) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  const int k = static_cast<int>(state.range(1));
  const int lanes = static_cast<int>(state.range(2));
  const auto codes = UniformCodes(kKernelTuples, k, 9);
  const HbpColumn col = HbpColumn::Pack(codes, k, {.lanes = lanes});
  const FilterBitVector f =
      HalfFilter(kKernelTuples, col.values_per_segment());
  kern::ForceTier(tier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lanes == 1 ? hbp::Sum(col, f)
                                        : simd::SumHbp(col, f));
  }
  kern::ForceTier(std::nullopt);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") + kern::OpsFor(tier).name);
}
BENCHMARK(BM_HbpSum)
    ->ArgNames({"tier", "k", "lanes"})
    ->ArgsProduct({{0, 1, 2, 3}, {10}, {1, 4}});

// VBP predicate scan through the registry per tier: the bit-serial
// compare cascade over plane words, vectorized 4/8 segments per block on
// the wide tiers.
// exercises: vbp_scan
void BM_VbpScanTier(benchmark::State& state) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  const int k = static_cast<int>(state.range(1));
  const auto codes = UniformCodes(kKernelTuples, k, 7);
  const VbpColumn col = VbpColumn::Pack(codes, k);
  const std::uint64_t c = LowMask(k) / 3;
  kern::ForceTier(tier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VbpScanner::Scan(col, CompareOp::kLt, c).CountOnes());
  }
  kern::ForceTier(std::nullopt);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") + kern::OpsFor(tier).name);
}
BENCHMARK(BM_VbpScanTier)
    ->ArgNames({"tier", "k"})
    ->Args({0, 12})
    ->Args({1, 12})
    ->Args({2, 12})
    ->Args({3, 12})
    ->Args({0, 25})
    ->Args({1, 25})
    ->Args({2, 25})
    ->Args({3, 25});

// HBP predicate scan through the registry per tier (in-word parallel
// compare over sub-segment words).
// exercises: hbp_scan
void BM_HbpScanTier(benchmark::State& state) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  const int k = static_cast<int>(state.range(1));
  const auto codes = UniformCodes(kKernelTuples, k, 9);
  const HbpColumn col = HbpColumn::Pack(codes, k);
  const std::uint64_t c = LowMask(k) / 3;
  kern::ForceTier(tier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HbpScanner::Scan(col, CompareOp::kLt, c).CountOnes());
  }
  kern::ForceTier(std::nullopt);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") + kern::OpsFor(tier).name);
}
BENCHMARK(BM_HbpScanTier)
    ->ArgNames({"tier", "k"})
    ->Args({0, 12})
    ->Args({1, 12})
    ->Args({2, 12})
    ->Args({3, 12})
    ->Args({0, 25})
    ->Args({1, 25})
    ->Args({2, 25})
    ->Args({3, 25});

// The lanes==1 positional-popcount kernel: the inner loop of VBP SUM over
// an uninterleaved (single-segment layout) column.
// exercises: vbp_bit_sums
void BM_VbpBitSumsTier(benchmark::State& state) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  const int k = 10;
  const auto codes = UniformCodes(kKernelTuples, k, 7);
  const VbpColumn col = VbpColumn::Pack(codes, k);
  const FilterBitVector f = HalfFilter(kKernelTuples);
  const kern::KernelOps& ops = kern::OpsFor(tier);
  const std::size_t n = f.num_segments();
  std::uint64_t sums[kWordBits];
  for (auto _ : state) {
    for (int j = 0; j < k; ++j) sums[j] = 0;
    std::size_t consumed = 0;
    for (int g = 0; g < col.num_groups(); ++g) {
      const int width = col.GroupWidth(g);
      ops.vbp_bit_sums(col.GroupData(g), f.words(), n, width,
                       sums + consumed);
      consumed += static_cast<std::size_t>(width);
    }
    benchmark::DoNotOptimize(sums);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") + ops.name);
}
BENCHMARK(BM_VbpBitSumsTier)->ArgName("tier")->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// COUNT: plain popcount over the filter words, per tier.
// exercises: popcount_words
void BM_CountTier(benchmark::State& state) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  const FilterBitVector f = HalfFilter(kKernelTuples);
  const kern::KernelOps& ops = kern::OpsFor(tier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops.popcount_words(f.words(), f.num_segments()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") + ops.name);
}
BENCHMARK(BM_CountTier)->ArgName("tier")->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// COUNT under a conjunctive filter: popcount(a & b) without materializing
// the combined bit vector, per tier.
// exercises: popcount_and
void BM_PopcountAndTier(benchmark::State& state) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  const FilterBitVector a = HalfFilter(kKernelTuples);
  const FilterBitVector b = HalfFilter(kKernelTuples);
  const kern::KernelOps& ops = kern::OpsFor(tier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops.popcount_and(a.words(), b.words(), a.num_segments()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") + ops.name);
}
BENCHMARK(BM_PopcountAndTier)->ArgName("tier")->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Codes that rise along the table: 2^k distinct values in insertion order
// (ids, dates). With k >= 14 over kKernelTuples rows every 64-row segment
// holds a larger code than the last, so a running MAX is replaced in every
// segment: the worst case for the speculative lanes==1 folds.
std::vector<std::uint64_t> AscendingCodes(std::size_t n, int k) {
  std::vector<std::uint64_t> codes(n);
  for (std::size_t i = 0; i < n; ++i) {
    codes[i] = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(i) << k) / n);
  }
  return codes;
}

// The MIN/MAX fold benchmarks run two columns: MIN over uniform codes
// (ascending 0), whose extreme converges within a few segments, and MAX over
// ascending codes (ascending 1), whose extreme is replaced in every segment.
void MinMaxArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"tier", "k", "lanes", "ascending"});
  for (int tier = 0; tier < 4; ++tier) {
    for (int lanes : {1, 4}) {
      b->Args({tier, 10, lanes, 0});
      b->Args({tier, 16, lanes, 1});
    }
  }
}

// Full VBP MIN/MAX through the registry (slot-extreme fold kernel), per tier
// and packing (lanes 1: vbp::; lanes 4: the simd:: side path).
// exercises: vbp_extreme_fold
void BM_VbpMinTier(benchmark::State& state) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  const int k = static_cast<int>(state.range(1));
  const int lanes = static_cast<int>(state.range(2));
  const bool ascending = state.range(3) != 0;
  const auto codes = ascending ? AscendingCodes(kKernelTuples, k)
                               : UniformCodes(kKernelTuples, k, 7);
  const VbpColumn col = VbpColumn::Pack(codes, k, {.lanes = lanes});
  const FilterBitVector f = HalfFilter(kKernelTuples);
  kern::ForceTier(tier);
  for (auto _ : state) {
    if (ascending) {
      benchmark::DoNotOptimize(lanes == 1 ? vbp::Max(col, f)
                                          : simd::MaxVbp(col, f));
    } else {
      benchmark::DoNotOptimize(lanes == 1 ? vbp::Min(col, f)
                                          : simd::MinVbp(col, f));
    }
  }
  kern::ForceTier(std::nullopt);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") + kern::OpsFor(tier).name);
}
BENCHMARK(BM_VbpMinTier)->Apply(MinMaxArgs);

// Full HBP MIN/MAX through the registry (sub-slot extreme fold), per tier
// and packing (lanes 1: hbp::; lanes 4: the simd:: side path).
// exercises: hbp_extreme_fold
void BM_HbpMinTier(benchmark::State& state) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  const int k = static_cast<int>(state.range(1));
  const int lanes = static_cast<int>(state.range(2));
  const bool ascending = state.range(3) != 0;
  const auto codes = ascending ? AscendingCodes(kKernelTuples, k)
                               : UniformCodes(kKernelTuples, k, 9);
  const HbpColumn col = HbpColumn::Pack(codes, k, {.lanes = lanes});
  const FilterBitVector f =
      HalfFilter(kKernelTuples, col.values_per_segment());
  kern::ForceTier(tier);
  for (auto _ : state) {
    if (ascending) {
      benchmark::DoNotOptimize(lanes == 1 ? hbp::Max(col, f)
                                          : simd::MaxHbp(col, f));
    } else {
      benchmark::DoNotOptimize(lanes == 1 ? hbp::Min(col, f)
                                          : simd::MinHbp(col, f));
    }
  }
  kern::ForceTier(std::nullopt);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") + kern::OpsFor(tier).name);
}
BENCHMARK(BM_HbpMinTier)->Apply(MinMaxArgs);

// The rank/MEDIAN counting step: masked popcount of one bit-plane against
// a candidate vector, per tier and packing (lanes 1: plane words strided
// `width` apart, one per segment; lanes 4: quad-interleaved).
// exercises: masked_popcount
void BM_MaskedPopcountTier(benchmark::State& state) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  const int k = 10;
  const int lanes = static_cast<int>(state.range(1));
  const auto codes = UniformCodes(kKernelTuples, k, 7);
  const VbpColumn col = VbpColumn::Pack(codes, k, {.lanes = lanes});
  const FilterBitVector f = HalfFilter(kKernelTuples);
  const std::size_t units = f.num_segments() / lanes;
  std::vector<Word> cand(f.words(), f.words() + units * lanes);
  const kern::KernelOps& ops = kern::OpsFor(tier);
  const int width = col.GroupWidth(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.masked_popcount(
        col.GroupData(0), static_cast<std::size_t>(width) * lanes, lanes,
        cand.data(), units));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") + ops.name);
}
BENCHMARK(BM_MaskedPopcountTier)
    ->ArgNames({"tier", "lanes"})
    ->ArgsProduct({{0, 1, 2, 3}, {1, 4}});

// The per-bit VBP packer the segment transpose replaced (one bit per value
// per plane), and its inverse: the baseline rows (tier -1, "reference") of
// the pack/unpack benchmarks.
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

void ReferenceUnpackSegment(const Word* planes, int k,
                            std::uint64_t* codes) {
  for (int i = 0; i < kWordBits; ++i) {
    std::uint64_t v = 0;
    for (int j = 0; j < k; ++j) {
      v = (v << 1) | ((planes[j] >> (kWordBits - 1 - i)) & 1);
    }
    codes[i] = v;
  }
}

void PackArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"tier", "k"});
  for (int k : {12, 25}) {
    for (int tier = -1; tier < 4; ++tier) b->Args({tier, k});
  }
}

// VBP packing: one 64 x k transpose per segment over kKernelTuples codes,
// per tier (tier -1: the per-bit reference packer).
// exercises: vbp_pack
void BM_VbpPackTier(benchmark::State& state) {
  const int tier_arg = static_cast<int>(state.range(0));
  const auto tier = static_cast<kern::Tier>(tier_arg);
  if (tier_arg >= 0 && !RequireTier(state, tier)) return;
  const int k = static_cast<int>(state.range(1));
  const auto codes = UniformCodes(kKernelTuples, k, 7);
  const std::size_t segments = kKernelTuples / kWordBits;
  std::vector<Word> planes(segments * k);
  const auto pack = tier_arg < 0 ? ReferencePackSegment
                                 : kern::OpsFor(tier).vbp_pack;
  for (auto _ : state) {
    for (std::size_t seg = 0; seg < segments; ++seg) {
      pack(codes.data() + seg * kWordBits, kWordBits, k,
           planes.data() + seg * k);
    }
    benchmark::DoNotOptimize(planes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") +
                 (tier_arg < 0 ? "reference" : kern::OpsFor(tier).name));
}
BENCHMARK(BM_VbpPackTier)->Apply(PackArgs);

// VBP unpacking (group-by's and serialization's decode): one inverse
// transpose per segment, per tier (tier -1: the per-bit reference).
// exercises: vbp_unpack
void BM_VbpUnpackTier(benchmark::State& state) {
  const int tier_arg = static_cast<int>(state.range(0));
  const auto tier = static_cast<kern::Tier>(tier_arg);
  if (tier_arg >= 0 && !RequireTier(state, tier)) return;
  const int k = static_cast<int>(state.range(1));
  const auto codes = UniformCodes(kKernelTuples, k, 7);
  const std::size_t segments = kKernelTuples / kWordBits;
  std::vector<Word> planes(segments * k);
  for (std::size_t seg = 0; seg < segments; ++seg) {
    ReferencePackSegment(codes.data() + seg * kWordBits, kWordBits, k,
                         planes.data() + seg * k);
  }
  std::vector<std::uint64_t> out(kKernelTuples);
  const auto unpack = tier_arg < 0 ? ReferenceUnpackSegment
                                   : kern::OpsFor(tier).vbp_unpack;
  for (auto _ : state) {
    for (std::size_t seg = 0; seg < segments; ++seg) {
      unpack(planes.data() + seg * k, k, out.data() + seg * kWordBits);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") +
                 (tier_arg < 0 ? "reference" : kern::OpsFor(tier).name));
}
BENCHMARK(BM_VbpUnpackTier)->Apply(PackArgs);

// VBP select (group-by's read of the rows that pass): per segment of a
// tau = 4 column, the codes of `rows` random rows, read from the bit-group
// words in place. unpack = 1 is the comparison row: what the pass did
// before the slot existed, a copy of the segment's planes, the vbp_unpack
// transpose and a walk over the mask. Items are segments.
// exercises: vbp_select
void BM_VbpSelectTier(benchmark::State& state) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  const int k = static_cast<int>(state.range(1));
  const int rows = static_cast<int>(state.range(2));
  const bool unpack = state.range(3) != 0;
  constexpr std::size_t kSegments = std::size_t{1} << 14;
  const VbpColumn col =
      VbpColumn::Pack(UniformCodes(kSegments * kWordBits, k, 11), k);
  Random rng(static_cast<std::uint64_t>(k * 100 + rows));
  std::vector<Word> masks(kSegments);
  for (Word& m : masks) {
    m = 0;
    while (std::popcount(m) < rows) {
      m |= Word{1} << rng.UniformInt(0, kWordBits - 1);
    }
  }
  const kern::KernelOps& ops = kern::OpsFor(tier);
  const int groups = col.num_groups();
  std::uint64_t out[kWordBits];
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const Word* planes[kWordBits];
    for (int g = 0; g < groups; ++g) planes[g] = col.GroupData(g);
    for (std::size_t seg = 0; seg < kSegments; ++seg) {
      std::size_t n = 0;
      if (unpack) {
        Word copy[kWordBits];
        for (int g = 0, j = 0; g < groups; ++g) {
          for (int t = 0; t < col.GroupWidth(g); ++t) copy[j++] = planes[g][t];
        }
        std::uint64_t codes[kWordBits];
        ops.vbp_unpack(copy, k, codes);
        for (Word m = masks[seg]; m != 0; ++n) {
          const int bit = std::countl_zero(m);
          m &= ~(Word{1} << (kWordBits - 1 - bit));
          out[n] = codes[bit];
        }
      } else {
        n = ops.vbp_select(planes, col.tau(), k, masks[seg], out);
      }
      sink += n != 0 ? out[n - 1] : 0;
      for (int g = 0; g < groups; ++g) planes[g] += col.GroupWidth(g);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSegments));
  state.SetLabel(std::string("tier=") + ops.name);
}
BENCHMARK(BM_VbpSelectTier)
    ->ArgNames({"tier", "k", "rows", "unpack"})
    ->ArgsProduct({{0, 1, 2, 3}, {4, 16, 20}, {1, 6, 38, 64}, {0, 1}});

// Filter combine (AND) over the full filter, per tier.
// exercises: combine_words
void BM_CombineTier(benchmark::State& state) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  FilterBitVector a = HalfFilter(kKernelTuples);
  const FilterBitVector b = HalfFilter(kKernelTuples);
  const kern::KernelOps& ops = kern::OpsFor(tier);
  for (auto _ : state) {
    ops.combine_words(a.words(), b.words(), a.num_segments(),
                      static_cast<int>(kern::CombineOp::kAnd));
    benchmark::DoNotOptimize(a.words());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelTuples));
  state.SetLabel(std::string("tier=") + ops.name);
}
BENCHMARK(BM_CombineTier)->ArgName("tier")->Arg(0)->Arg(1)->Arg(2)->Arg(3);

}  // namespace
}  // namespace icp::bench

BENCHMARK_MAIN();
