#include "simd/agg_kernels.h"

#include <algorithm>
#include <bit>

#include "core/in_word_sum.h"  // header-only; no core link dependency
#include "simd/dispatch.h"
#include "util/check.h"

#if defined(ICP_POSPOPCNT_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace icp::kern {
namespace {

// Largest lane count any layout produces (lanes == 4 quad-interleaving).
constexpr int kMaxLanes = 4;

// Integer CompareOp encoding shared with scan/predicate.h (the scanner call
// sites static_assert the mapping).
constexpr int kOpEq = 0;
constexpr int kOpNe = 1;
constexpr int kOpLt = 2;
constexpr int kOpLe = 3;
constexpr int kOpGt = 4;
constexpr int kOpGe = 5;
constexpr int kOpBetween = 6;

// Per-field X >= C under delimiter mask `md` (the paper's borrow trick).
inline Word FieldGe(Word x, Word c, Word md) { return ((x | md) - c) & md; }

// GET-VALUE-FILTER step 2: delimiter filter -> value mask.
inline Word ValueMaskFromDelimiters(Word md, int tau) {
  return md - (md >> tau);
}

// Where word `w` of a block of consecutive stream words comes from, for an
// in-word (HBP) stream with `s` words per unit lane. A unit holds
// lanes * s words ordered (sub-segment, lane), so word w belongs to unit
// w / (lanes*s), sub-segment (w % (lanes*s)) / lanes and lane w % lanes,
// and its filter word is the unit's lane word of the block's filter words.
// The vector in-word kernels turn this into one permute index and one
// shift count per vector lane (see BlockTables256 / BlockTables512).
struct BlockLane {
  int filter_word;
  int sub_segment;
};

[[maybe_unused]] inline BlockLane LaneOfBlockWord(int w, int s, int lanes) {
  const int unit_words = lanes * s;
  const int r = w % unit_words;
  return {(w / unit_words) * lanes + r % lanes, r / lanes};
}

}  // namespace

// ---------------------------------------------------------------------------
// combine_words
// ---------------------------------------------------------------------------

void CombineWordsScalar(Word* dst, const Word* src, std::size_t n, int op) {
  switch (static_cast<CombineOp>(op)) {
    case CombineOp::kAnd:
      for (std::size_t i = 0; i < n; ++i) dst[i] &= src[i];
      break;
    case CombineOp::kOr:
      for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
      break;
    case CombineOp::kXor:
      for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
      break;
    case CombineOp::kAndNot:
      for (std::size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
      break;
  }
}

// ---------------------------------------------------------------------------
// masked_popcount
// ---------------------------------------------------------------------------

std::uint64_t MaskedPopcountScalar(const Word* data, std::size_t stride,
                                   int lanes, const Word* cand,
                                   std::size_t n) {
  ICP_DCHECK(lanes >= 1 && lanes <= kMaxLanes);
  std::uint64_t count = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const Word* c = cand + u * lanes;
    Word any = 0;
    for (int l = 0; l < lanes; ++l) any |= c[l];
    if (any == 0) continue;  // unit fully narrowed away
    const Word* w = data + u * stride;
    for (int l = 0; l < lanes; ++l) count += Popcount(c[l] & w[l]);
  }
  return count;
}

// ---------------------------------------------------------------------------
// hbp_sum
// ---------------------------------------------------------------------------

void HbpSumScalar(const Word* const* bases, int num_groups, int s, int tau,
                  int lanes, const Word* filter, std::size_t n,
                  std::uint64_t* group_sums) {
  ICP_DCHECK(lanes >= 1 && lanes <= kMaxLanes);
  const Word dm = DelimiterMask(s);
  const InWordSumPlan plan(s);
  std::uint64_t acc[kWordBits] = {};
  for (std::size_t u = 0; u < n; ++u) {
    const Word* f = filter + u * lanes;
    for (int t = 0; t < s; ++t) {
      Word m[kMaxLanes];
      for (int l = 0; l < lanes; ++l) {
        const Word md = (f[l] << t) & dm;
        m[l] = ValueMaskFromDelimiters(md, tau);
      }
      for (int g = 0; g < num_groups; ++g) {
        const Word* w =
            bases[g] + (u * static_cast<std::size_t>(s) + t) * lanes;
        for (int l = 0; l < lanes; ++l) acc[g] += plan.Apply(w[l] & m[l]);
      }
    }
  }
  for (int g = 0; g < num_groups; ++g) group_sums[g] += acc[g];
}

namespace {

// Runs units [done, n) of an hbp_sum call through the scalar kernel: the
// ragged tail of the vector kernels' blocks.
[[maybe_unused]] void HbpSumTail(const Word* const* bases, int num_groups,
                                 int s, int tau, int lanes,
                                 const Word* filter, std::size_t done,
                                 std::size_t n, std::uint64_t* group_sums) {
  if (done == n) return;
  const std::size_t offset = done * static_cast<std::size_t>(s) * lanes;
  const Word* tail[kWordBits];
  for (int g = 0; g < num_groups; ++g) tail[g] = bases[g] + offset;
  HbpSumScalar(tail, num_groups, s, tau, lanes, filter + done * lanes,
               n - done, group_sums);
}

}  // namespace

// ---------------------------------------------------------------------------
// vbp_extreme_fold
// ---------------------------------------------------------------------------

namespace {

// The fold bodies are force-inlined so each caller that passes a constant
// `lanes` gets its own copy with the lane loops unrolled away: the scalar
// slots below split off lanes == 1 (the engine's packing), which runs 2-3x
// faster than the runtime-lanes loop.
[[gnu::always_inline]] inline void VbpExtremeFoldBody(
    const Word* const* bases, const int* widths, int num_groups, int tau,
    int lanes, const Word* filter, std::size_t n, bool is_min, Word* temp,
    FoldCounters* counters) {
  ICP_DCHECK(lanes >= 1 && lanes <= kMaxLanes);
  for (std::size_t u = 0; u < n; ++u) {
    const Word* f = filter + u * lanes;
    Word f_any = 0;
    for (int l = 0; l < lanes; ++l) f_any |= f[l];
    if (f_any == 0) {
      if (counters != nullptr) ++counters->segments_skipped;
      continue;  // nothing passes in this unit
    }
    if (counters != nullptr) ++counters->folds;
    Word eq[kMaxLanes];
    Word replace[kMaxLanes];  // M_lt for MIN, M_gt for MAX
    for (int l = 0; l < lanes; ++l) {
      eq[l] = ~Word{0};
      replace[l] = 0;
    }
    for (int g = 0; g < num_groups; ++g) {
      const int width = widths[g];
      const Word* base =
          bases[g] + u * static_cast<std::size_t>(width) * lanes;
      for (int j = 0; j < width; ++j) {
        const Word* x = base + j * lanes;
        const Word* y = temp + (g * tau + j) * lanes;
        for (int l = 0; l < lanes; ++l) {
          replace[l] |=
              is_min ? (eq[l] & ~x[l] & y[l]) : (eq[l] & x[l] & ~y[l]);
          eq[l] &= ~(x[l] ^ y[l]);
        }
      }
      Word eq_any = 0;
      for (int l = 0; l < lanes; ++l) eq_any |= eq[l];
      // Early stop: every slot's comparison is decided.
      if (eq_any == 0) {
        if (counters != nullptr && g + 1 < num_groups) {
          ++counters->compare_early_stops;
        }
        break;
      }
    }
    Word rep_any = 0;
    for (int l = 0; l < lanes; ++l) {
      replace[l] &= f[l];
      rep_any |= replace[l];
    }
    if (rep_any == 0) {
      if (counters != nullptr) ++counters->blends_skipped;
      continue;  // no slot improves; skip the blend pass
    }
    for (int g = 0; g < num_groups; ++g) {
      const int width = widths[g];
      const Word* base =
          bases[g] + u * static_cast<std::size_t>(width) * lanes;
      for (int j = 0; j < width; ++j) {
        const Word* x = base + j * lanes;
        Word* y = temp + (g * tau + j) * lanes;
        for (int l = 0; l < lanes; ++l) {
          y[l] = (replace[l] & x[l]) | (~replace[l] & y[l]);
        }
      }
    }
  }
}

}  // namespace

void VbpExtremeFoldScalar(const Word* const* bases, const int* widths,
                          int num_groups, int tau, int lanes,
                          const Word* filter, std::size_t n, bool is_min,
                          Word* temp, FoldCounters* counters) {
  if (lanes == 1) {
    VbpExtremeFoldBody(bases, widths, num_groups, tau, /*lanes=*/1, filter,
                       n, is_min, temp, counters);
  } else {
    VbpExtremeFoldBody(bases, widths, num_groups, tau, lanes, filter, n,
                       is_min, temp, counters);
  }
}

// ---------------------------------------------------------------------------
// hbp_extreme_fold
// ---------------------------------------------------------------------------

namespace {

[[gnu::always_inline]] inline void HbpExtremeFoldBody(
    const Word* const* bases, int num_groups, int s, int tau, int lanes,
    const Word* filter, std::size_t n, bool is_min, Word* temp,
    FoldCounters* counters) {
  ICP_DCHECK(lanes >= 1 && lanes <= kMaxLanes);
  const Word dm = DelimiterMask(s);
  for (std::size_t u = 0; u < n; ++u) {
    const Word* f = filter + u * lanes;
    Word f_any = 0;
    for (int l = 0; l < lanes; ++l) f_any |= f[l];
    if (f_any == 0) {
      if (counters != nullptr) ++counters->segments_skipped;
      continue;
    }
    for (int t = 0; t < s; ++t) {
      Word md[kMaxLanes];
      Word md_any = 0;
      for (int l = 0; l < lanes; ++l) {
        md[l] = (f[l] << t) & dm;
        md_any |= md[l];
      }
      // Contract: never touch sub-segment t's data when no lane selects a
      // field in it (callers fold single out-of-range-adjacent words).
      if (md_any == 0) continue;
      if (counters != nullptr) ++counters->folds;
      const std::size_t word_off =
          (u * static_cast<std::size_t>(s) + t) * lanes;
      Word eq[kMaxLanes];
      Word replace[kMaxLanes];
      for (int l = 0; l < lanes; ++l) {
        eq[l] = dm;
        replace[l] = 0;
      }
      for (int g = 0; g < num_groups; ++g) {
        const Word* x = bases[g] + word_off;
        const Word* y = temp + g * lanes;
        Word eq_any = 0;
        for (int l = 0; l < lanes; ++l) {
          const Word ge_xy = FieldGe(x[l], y[l], dm);
          const Word ge_yx = FieldGe(y[l], x[l], dm);
          replace[l] |= eq[l] & ((is_min ? ge_xy : ge_yx) ^ dm);
          eq[l] &= ge_xy & ge_yx;
          eq_any |= eq[l];
        }
        if (eq_any == 0) {
          if (counters != nullptr && g + 1 < num_groups) {
            ++counters->compare_early_stops;
          }
          break;  // every field decided: early stop
        }
      }
      Word m[kMaxLanes];
      Word rep_any = 0;
      for (int l = 0; l < lanes; ++l) {
        replace[l] &= md[l];
        rep_any |= replace[l];
        m[l] = ValueMaskFromDelimiters(replace[l], tau);
      }
      if (rep_any == 0) {
        if (counters != nullptr) ++counters->blends_skipped;
        continue;
      }
      for (int g = 0; g < num_groups; ++g) {
        const Word* x = bases[g] + word_off;
        Word* y = temp + g * lanes;
        for (int l = 0; l < lanes; ++l) {
          y[l] = (m[l] & x[l]) | (~m[l] & y[l]);
        }
      }
    }
  }
}

}  // namespace

void HbpExtremeFoldScalar(const Word* const* bases, int num_groups, int s,
                          int tau, int lanes, const Word* filter,
                          std::size_t n, bool is_min, Word* temp,
                          FoldCounters* counters) {
  if (lanes == 1) {
    HbpExtremeFoldBody(bases, num_groups, s, tau, /*lanes=*/1, filter, n,
                       is_min, temp, counters);
  } else {
    HbpExtremeFoldBody(bases, num_groups, s, tau, lanes, filter, n, is_min,
                       temp, counters);
  }
}

namespace {

// Run segments [begin, end) of a lanes == 1 fold call through the scalar
// kernel: the ragged tail of the vector folds, and any block whose
// speculative compare found a field to replace (see VbpExtremeFoldSeg256).
[[maybe_unused]] void VbpFoldScalarRange(const Word* const* bases,
                                         const int* widths, int num_groups,
                                         int tau, const Word* filter,
                                         std::size_t begin, std::size_t end,
                                         bool is_min, Word* temp,
                                         FoldCounters* counters) {
  if (begin == end) return;
  const Word* sub[kWordBits];
  for (int g = 0; g < num_groups; ++g) {
    sub[g] = bases[g] + begin * static_cast<std::size_t>(widths[g]);
  }
  VbpExtremeFoldBody(sub, widths, num_groups, tau, /*lanes=*/1,
                     filter + begin, end - begin, is_min, temp, counters);
}

[[maybe_unused]] void HbpFoldScalarRange(const Word* const* bases,
                                         int num_groups, int s, int tau,
                                         const Word* filter,
                                         std::size_t begin, std::size_t end,
                                         bool is_min, Word* temp,
                                         FoldCounters* counters) {
  if (begin == end) return;
  const Word* sub[kWordBits];
  for (int g = 0; g < num_groups; ++g) {
    sub[g] = bases[g] + begin * static_cast<std::size_t>(s);
  }
  HbpExtremeFoldBody(sub, num_groups, s, tau, /*lanes=*/1, filter + begin,
                     end - begin, is_min, temp, counters);
}

// Blocks that a failed VBP speculation hands to the scalar fold, the
// failing block included: 1 after a committed block, doubling up to 64
// while every block speculated in between fails. A column whose extreme is
// replaced in most blocks (MAX over ids in insertion order) so pays the
// gathers of the vector compare on few of them, and one whose extreme has
// converged pays nothing. The HBP folds re-run only the failing block:
// their compare is a few contiguous loads, and handing runs over measured
// slower on small tables whose sub-slot extremes have not converged.
[[maybe_unused]] inline std::size_t NextBackoff(std::size_t backoff) {
  constexpr std::size_t kMaxBackoffBlocks = 64;
  return backoff == 0 ? 1 : std::min(2 * backoff, kMaxBackoffBlocks);
}

// Adds one speculatively folded block's counters.
[[maybe_unused]] void AddFoldCounters(const FoldCounters& block,
                                      FoldCounters* counters) {
  if (counters == nullptr) return;
  counters->folds += block.folds;
  counters->compare_early_stops += block.compare_early_stops;
  counters->blends_skipped += block.blends_skipped;
  counters->segments_skipped += block.segments_skipped;
}

}  // namespace

// ---------------------------------------------------------------------------
// vbp_scan (shared by every tier)
// ---------------------------------------------------------------------------

namespace {

// Per-segment comparison state against one constant (MSB-to-LSB cascade).
struct VbpCompareState {
  Word eq = ~Word{0};
  Word lt = 0;
  Word gt = 0;

  void Step(Word x, bool c_bit) {
    if (c_bit) {
      lt |= eq & ~x;
      eq &= x;
    } else {
      gt |= eq & x;
      eq &= ~x;
    }
  }
};

Word VbpResultWord(int op, const VbpCompareState& a,
                   const VbpCompareState& b) {
  switch (op) {
    case kOpEq:
      return a.eq;
    case kOpNe:
      return ~a.eq;
    case kOpLt:
      return a.lt;
    case kOpLe:
      return a.lt | a.eq;
    case kOpGt:
      return a.gt;
    case kOpGe:
      return a.gt | a.eq;
    case kOpBetween:
      // v >= c1 && v <= c2.
      return (a.gt | a.eq) & (b.lt | b.eq);
  }
  return 0;
}

}  // namespace

void VbpScanKernel(const Word* const* bases, const int* widths,
                   int num_groups, int tau, int op, const bool* c1_bits,
                   const bool* c2_bits, std::size_t n, const Word* prior,
                   Word* out, ScanCounters* counters) {
  const bool dual = op == kOpBetween;
  for (std::size_t i = 0; i < n; ++i) {
    if (prior != nullptr && prior[i] == 0) {
      out[i] = 0;  // segment already empty: skip its words
      continue;
    }
    if (counters != nullptr) ++counters->segments_processed;
    VbpCompareState a;
    VbpCompareState b;
    for (int g = 0; g < num_groups; ++g) {
      const int width = widths[g];
      const Word* base = bases[g] + i * static_cast<std::size_t>(width);
      for (int j = 0; j < width; ++j) {
        const Word x = base[j];
        const int jb = g * tau + j;
        a.Step(x, c1_bits[jb]);
        if (dual) b.Step(x, c2_bits[jb]);
      }
      if (counters != nullptr) counters->words_examined += width;
      if ((a.eq | (dual ? b.eq : Word{0})) == 0 && g + 1 < num_groups) {
        if (counters != nullptr) ++counters->segments_early_stopped;
        break;
      }
    }
    const Word r = VbpResultWord(op, a, b);
    out[i] = prior != nullptr ? (r & prior[i]) : r;
  }
}

// ---------------------------------------------------------------------------
// hbp_scan (shared by every tier)
// ---------------------------------------------------------------------------

namespace {

// Per-sub-segment comparison state in delimiter space.
struct HbpCompareState {
  Word eq = 0;
  Word lt = 0;
  Word gt = 0;

  void Reset(Word delimiter_mask) {
    eq = delimiter_mask;
    lt = 0;
    gt = 0;
  }

  void Step(Word x, Word c, Word md) {
    const Word ge = FieldGe(x, c, md);
    const Word le = FieldGe(c, x, md);
    lt |= eq & (ge ^ md);
    gt |= eq & (le ^ md);
    eq &= ge & le;
  }
};

Word HbpResultWord(int op, Word md, const HbpCompareState& a,
                   const HbpCompareState& b) {
  switch (op) {
    case kOpEq:
      return a.eq;
    case kOpNe:
      return md ^ a.eq;
    case kOpLt:
      return a.lt;
    case kOpLe:
      return a.lt | a.eq;
    case kOpGt:
      return a.gt;
    case kOpGe:
      return a.gt | a.eq;
    case kOpBetween:
      return (a.gt | a.eq) & (b.lt | b.eq);
  }
  return 0;
}

}  // namespace

void HbpScanKernel(const Word* const* bases, int num_groups, int s, int op,
                   const Word* c1_packed, const Word* c2_packed, Word md,
                   std::size_t n, const Word* prior, Word* out,
                   ScanCounters* counters) {
  const bool dual = op == kOpBetween;
  HbpCompareState a[kWordBits];
  HbpCompareState b[kWordBits];
  for (std::size_t i = 0; i < n; ++i) {
    if (prior != nullptr && prior[i] == 0) {
      out[i] = 0;
      continue;
    }
    if (counters != nullptr) ++counters->segments_processed;
    for (int t = 0; t < s; ++t) {
      a[t].Reset(md);
      b[t].Reset(md);
    }
    for (int g = 0; g < num_groups; ++g) {
      const Word* base = bases[g] + i * static_cast<std::size_t>(s);
      Word any_eq = 0;
      for (int t = 0; t < s; ++t) {
        const Word x = base[t];
        a[t].Step(x, c1_packed[g], md);
        any_eq |= a[t].eq;
        if (dual) {
          b[t].Step(x, c2_packed[g], md);
          any_eq |= b[t].eq;
        }
      }
      if (counters != nullptr) counters->words_examined += s;
      if (any_eq == 0 && g + 1 < num_groups) {
        if (counters != nullptr) ++counters->segments_early_stopped;
        break;
      }
    }
    Word filter = 0;
    for (int t = 0; t < s; ++t) {
      filter |= HbpResultWord(op, md, a[t], b[t]) >> t;
    }
    out[i] = prior != nullptr ? (filter & prior[i]) : filter;
  }
}

// ---------------------------------------------------------------------------
// vbp_pack / vbp_unpack
// ---------------------------------------------------------------------------

namespace {

// The rounds j = from, from/2, ..., 1 of the Hacker's Delight recursive
// transpose (section 7-3) over rows a[0, 2*from). Round j swaps the
// off-diagonal j x j blocks of every 2j x 2j block, i.e. exchanges bit j of
// the row and column index wherever they differ. The rounds act on
// different index bits, so they commute, and all six rounds over 64 rows
// transpose the matrix whose row r, bit (63 - c) is element (r, c).
inline void TransposeRounds(Word* a, int from) {
  Word m = LowMask(kWordBits / 2);
  for (int j = kWordBits / 2; j > from;) {
    j >>= 1;
    m ^= m << j;
  }
  for (int j = from; j != 0;) {
    for (int r = 0; r < 2 * from; r = (r + j + 1) & ~j) {
      const Word t = (a[r] ^ (a[r + j] >> j)) & m;
      a[r] ^= t;
      a[r + j] ^= t << j;
    }
    j >>= 1;
    m ^= m << j;
  }
}

}  // namespace

// Row i of the matrix is code i, so after the transpose row 64 - k + j holds
// bit k - 1 - j of every code, value i at bit 63 - i: plane j. For k <= 32
// the top halves of all codes are zero, round 32 merely moves code r + 32
// into the low half of word r, and the other rounds never touch the zero
// rows, so the remaining five rounds run over 32 words.
void VbpPackScalar(const std::uint64_t* codes, std::size_t n, int k,
                   Word* planes) {
  ICP_DCHECK(n >= 1 && n <= static_cast<std::size_t>(kWordBits));
  Word a[kWordBits];
  for (std::size_t i = 0; i < n; ++i) {
    ICP_DCHECK(codes[i] <= LowMask(k));  // wider codes corrupt row r - 32
    a[i] = codes[i];
  }
  for (std::size_t i = n; i < kWordBits; ++i) a[i] = 0;
  if (k <= kWordBits / 2) {
    for (int r = 0; r < kWordBits / 2; ++r) {
      a[r] = (a[r] << (kWordBits / 2)) | a[r + kWordBits / 2];
    }
    TransposeRounds(a, kWordBits / 4);
    for (int j = 0; j < k; ++j) planes[j] = a[kWordBits / 2 - k + j];
    return;
  }
  TransposeRounds(a, kWordBits / 2);
  for (int j = 0; j < k; ++j) planes[j] = a[kWordBits - k + j];
}

void VbpUnpackScalar(const Word* planes, int k, std::uint64_t* codes) {
  Word a[kWordBits];
  if (k <= kWordBits / 2) {
    constexpr int kHalf = kWordBits / 2;
    for (int r = 0; r < kHalf - k; ++r) a[r] = 0;
    for (int j = 0; j < k; ++j) a[kHalf - k + j] = planes[j];
    TransposeRounds(a, kWordBits / 4);
    for (int r = 0; r < kHalf; ++r) {
      codes[r] = a[r] >> kHalf;
      codes[r + kHalf] = a[r] & LowMask(kHalf);
    }
    return;
  }
  for (int r = 0; r < kWordBits - k; ++r) a[r] = 0;
  for (int j = 0; j < k; ++j) a[kWordBits - k + j] = planes[j];
  TransposeRounds(a, kWordBits / 2);
  for (int i = 0; i < kWordBits; ++i) codes[i] = a[i];
}

// ---------------------------------------------------------------------------
// AVX2 tier. Function-level target("avx2") so the TU compiles without
// -mavx2; dispatch.cc only hands these out when cpuid reports AVX2.
// ---------------------------------------------------------------------------

#if defined(ICP_POSPOPCNT_HAVE_AVX2)
namespace {

#define ICP_AVX2 __attribute__((target("avx2")))

ICP_AVX2 inline __m256i LoadU(const Word* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

ICP_AVX2 inline void StoreU(Word* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// 4x64 per-lane popcounts via the nibble LUT + psadbw (Mula).
ICP_AVX2 inline __m256i Popcount256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

ICP_AVX2 inline std::uint64_t Hsum64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
         static_cast<std::uint64_t>(
             _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
}

ICP_AVX2 inline __m256i FieldGe256(__m256i x, __m256i c, __m256i md) {
  return _mm256_and_si256(
      _mm256_sub_epi64(_mm256_or_si256(x, md), c), md);
}

// Widened-accumulator bookkeeping for the AVX2 HBP SUM kernel: after the
// plan's step i the word holds packed partial sums in slots of stride
// s*2^(i+1), each bounded by (2^(s-1)-1)*2^(i+1). Several such words can be
// added before any slot overflows its stride (or, for the truncated top
// slot, the end of the word), so the tail of the halving cascade runs once
// per flush instead of once per word. Picks the deepest prefix (at most 2
// steps) that still leaves a useful accumulation budget.
struct HbpSumAccumPlan {
  int prefix_steps = 0;
  std::size_t max_accum = 0;

  explicit HbpSumAccumPlan(const InWordSumPlan& plan, int s) {
    int width = s;
    int count = kWordBits / s;
    UInt128 bound = LowMask(s - 1);
    for (int i = 0; i < plan.num_steps() && i < 2; ++i) {
      width *= 2;
      bound *= 2;
      count = (count + 1) / 2;
      const int pos_top = (count - 1) * width;
      const int cap_bits =
          width < kWordBits - pos_top ? width : kWordBits - pos_top;
      const UInt128 slot_max = ((UInt128{1} << (cap_bits - 1)) - 1) * 2 + 1;
      const UInt128 budget = slot_max / bound;
      if (budget >= 8) {
        prefix_steps = i + 1;
        max_accum =
            budget > 65536 ? 65536 : static_cast<std::size_t>(budget);
      }
    }
  }
};

// masked_popcount for lanes == 1: unit u's word sits `stride` words past
// unit u-1's, so one masked gather per 4 units assembles them; units whose
// candidate word is zero are masked out of the gather and never read.
ICP_AVX2 std::uint64_t MaskedPopcountGather256(const Word* data,
                                               std::size_t stride,
                                               const Word* cand,
                                               std::size_t n) {
  const long long st = static_cast<long long>(stride);
  const __m256i idx = _mm256_setr_epi64x(0, st, 2 * st, 3 * st);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  std::size_t u = 0;
  for (; u + 4 <= n; u += 4) {
    const __m256i c = LoadU(cand + u);
    if (_mm256_testz_si256(c, c)) continue;
    const __m256i live = _mm256_xor_si256(_mm256_cmpeq_epi64(c, zero),
                                          _mm256_set1_epi64x(-1));
    const __m256i w = _mm256_mask_i64gather_epi64(
        zero, reinterpret_cast<const long long*>(data + u * stride), idx,
        live, 8);
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(c, w)));
  }
  return Hsum64(acc) + MaskedPopcountScalar(data + u * stride, stride, 1,
                                            cand + u, n - u);
}

// The halving steps [from, to) of an in-word-sum plan on 4 lanes.
ICP_AVX2 inline __m256i HalvingSteps256(__m256i w, const __m256i* masks,
                                        const InWordSumPlan& plan, int from,
                                        int to) {
  for (int i = from; i < to; ++i) {
    w = _mm256_add_epi64(
        _mm256_and_si256(w, masks[i]),
        _mm256_and_si256(_mm256_srli_epi64(w, plan.step_shift(i)), masks[i]));
  }
  return w;
}

// Finishes the widened accumulators (steps [from, end) of the plan) into
// acc and clears them.
ICP_AVX2 inline void FlushPacked256(__m256i* packed, __m256i* acc,
                                    int num_groups, const __m256i* masks,
                                    const InWordSumPlan& plan, int from,
                                    __m256i final_mask) {
  for (int g = 0; g < num_groups; ++g) {
    const __m256i w =
        HalvingSteps256(packed[g], masks, plan, from, plan.num_steps());
    acc[g] = _mm256_add_epi64(acc[g], _mm256_and_si256(w, final_mask));
    packed[g] = _mm256_setzero_si256();
  }
}

// Per-vector tables for 4-word blocks of an in-word stream: lane i of
// vector v takes filter word LaneOfBlockWord(4v+i).filter_word of the
// block (a vpermd dword pair) shifted left by its sub-segment.
ICP_AVX2 void BlockTables256(int s, int lanes, __m256i* perm,
                             __m256i* shift) {
  for (int v = 0; v < s; ++v) {
    alignas(32) std::int32_t p[8];
    alignas(32) std::int64_t sh[4];
    for (int i = 0; i < 4; ++i) {
      const BlockLane bl = LaneOfBlockWord(4 * v + i, s, lanes);
      p[2 * i] = 2 * bl.filter_word;
      p[2 * i + 1] = 2 * bl.filter_word + 1;
      sh[i] = bl.sub_segment;
    }
    perm[v] = _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
    shift[v] = _mm256_load_si256(reinterpret_cast<const __m256i*>(sh));
  }
}

}  // namespace

ICP_AVX2 void CombineWordsAvx2(Word* dst, const Word* src, std::size_t n,
                               int op) {
  std::size_t i = 0;
  switch (static_cast<CombineOp>(op)) {
    case CombineOp::kAnd:
      for (; i + 4 <= n; i += 4) {
        StoreU(dst + i, _mm256_and_si256(LoadU(dst + i), LoadU(src + i)));
      }
      for (; i < n; ++i) dst[i] &= src[i];
      break;
    case CombineOp::kOr:
      for (; i + 4 <= n; i += 4) {
        StoreU(dst + i, _mm256_or_si256(LoadU(dst + i), LoadU(src + i)));
      }
      for (; i < n; ++i) dst[i] |= src[i];
      break;
    case CombineOp::kXor:
      for (; i + 4 <= n; i += 4) {
        StoreU(dst + i, _mm256_xor_si256(LoadU(dst + i), LoadU(src + i)));
      }
      for (; i < n; ++i) dst[i] ^= src[i];
      break;
    case CombineOp::kAndNot:
      for (; i + 4 <= n; i += 4) {
        StoreU(dst + i, _mm256_andnot_si256(LoadU(src + i), LoadU(dst + i)));
      }
      for (; i < n; ++i) dst[i] &= ~src[i];
      break;
  }
}

ICP_AVX2 std::uint64_t MaskedPopcountAvx2(const Word* data,
                                          std::size_t stride, int lanes,
                                          const Word* cand, std::size_t n) {
  if (lanes == 1) return MaskedPopcountGather256(data, stride, cand, n);
  if (lanes != 4) return MaskedPopcountScalar(data, stride, lanes, cand, n);
  __m256i acc = _mm256_setzero_si256();
  for (std::size_t u = 0; u < n; ++u) {
    const __m256i c = LoadU(cand + u * 4);
    if (_mm256_testz_si256(c, c)) continue;
    const __m256i w = _mm256_and_si256(c, LoadU(data + u * stride));
    acc = _mm256_add_epi64(acc, Popcount256(w));
  }
  return Hsum64(acc);
}

ICP_AVX2 void HbpSumAvx2(const Word* const* bases, int num_groups, int s,
                         int tau, int lanes, const Word* filter,
                         std::size_t n, std::uint64_t* group_sums) {
  if (4 % lanes != 0) {
    HbpSumScalar(bases, num_groups, s, tau, lanes, filter, n, group_sums);
    return;
  }
  // A block is 4 consecutive segments: 4 filter words and, per group, s
  // contiguous 4-word vectors (lanes == 4: one unit; lanes == 1: four).
  const std::size_t units_per_block = static_cast<std::size_t>(4 / lanes);
  const std::size_t blocks = n / units_per_block;
  const std::size_t block_words = static_cast<std::size_t>(s) * 4;
  __m256i perm[kWordBits];
  __m256i shift[kWordBits];
  BlockTables256(s, lanes, perm, shift);
  // Pure halving plan: AVX2 has no 64-bit lane multiply.
  const InWordSumPlan plan(s, /*allow_multiply=*/false);
  const HbpSumAccumPlan accum(plan, s);
  const __m256i dm = _mm256_set1_epi64x(
      static_cast<long long>(DelimiterMask(s)));
  __m256i masks[8];
  for (int i = 0; i < plan.num_steps(); ++i) {
    masks[i] = _mm256_set1_epi64x(static_cast<long long>(plan.step_mask(i)));
  }
  const __m256i final_mask =
      _mm256_set1_epi64x(static_cast<long long>(plan.final_mask()));
  __m256i acc[kWordBits];
  for (int g = 0; g < num_groups; ++g) acc[g] = _mm256_setzero_si256();

  // Every block adds s words to each lane, so the widened accumulator
  // needs room for at least one block between flushes.
  const int prefix_steps =
      accum.max_accum >= static_cast<std::size_t>(s) ? accum.prefix_steps : 0;
  const int all_steps = plan.num_steps();
  __m256i packed[kWordBits];
  for (int g = 0; g < num_groups; ++g) packed[g] = _mm256_setzero_si256();
  std::size_t pending = 0;  // words per lane added since the last flush
  for (std::size_t p = 0; p < blocks; ++p) {
    const __m256i f = LoadU(filter + p * 4);
    if (_mm256_testz_si256(f, f)) continue;  // nothing selected
    if (prefix_steps > 0 &&
        pending + static_cast<std::size_t>(s) > accum.max_accum) {
      FlushPacked256(packed, acc, num_groups, masks, plan, prefix_steps,
                     final_mask);
      pending = 0;
    }
    for (int v = 0; v < s; ++v) {
      const __m256i md = _mm256_and_si256(
          _mm256_sllv_epi64(_mm256_permutevar8x32_epi32(f, perm[v]),
                            shift[v]),
          dm);
      const __m256i m = _mm256_sub_epi64(md, _mm256_srli_epi64(md, tau));
      const std::size_t offset =
          p * block_words + static_cast<std::size_t>(v) * 4;
      for (int g = 0; g < num_groups; ++g) {
        __m256i w = _mm256_and_si256(LoadU(bases[g] + offset), m);
        w = _mm256_srli_epi64(w, plan.align_shift());
        if (prefix_steps > 0) {
          packed[g] = _mm256_add_epi64(
              packed[g], HalvingSteps256(w, masks, plan, 0, prefix_steps));
        } else {
          w = HalvingSteps256(w, masks, plan, 0, all_steps);
          acc[g] = _mm256_add_epi64(acc[g], _mm256_and_si256(w, final_mask));
        }
      }
    }
    pending += static_cast<std::size_t>(s);
  }
  if (prefix_steps > 0) {
    FlushPacked256(packed, acc, num_groups, masks, plan, prefix_steps,
                   final_mask);
  }
  for (int g = 0; g < num_groups; ++g) group_sums[g] += Hsum64(acc[g]);
  HbpSumTail(bases, num_groups, s, tau, lanes, filter,
             blocks * units_per_block, n, group_sums);
}

namespace {

// Bit i set when 64-bit lane i of v is nonzero.
ICP_AVX2 inline unsigned NonzeroLanes256(__m256i v) {
  const __m256i zero_lanes = _mm256_cmpeq_epi64(v, _mm256_setzero_si256());
  return ~static_cast<unsigned>(
             _mm256_movemask_pd(_mm256_castsi256_pd(zero_lanes))) &
         0xFu;
}

// Early-stop bookkeeping shared by the speculative folds: after group g,
// `undecided` lanes whose eq word went to zero stop here, counted as an
// early stop when groups remain (the scalar cascade's break).
inline unsigned StepUndecided(unsigned undecided, unsigned still, int g,
                              int num_groups, FoldCounters* block) {
  if (g + 1 < num_groups) {
    block->compare_early_stops +=
        static_cast<std::uint64_t>(std::popcount(undecided & ~still));
  }
  return still;
}

// vbp_extreme_fold for lanes == 1, 4 segments per block: plane j of the
// block's segments is one masked gather (as in the vector scanners).
// Every lane compares against the same running extreme, so a block whose
// compares replace nothing leaves temp exactly as the sequential scalar
// fold would, with the same counters; once the extreme has converged that
// is nearly every block. A block where some slot would be replaced is
// re-run by the scalar kernel, which applies its blends in order, together
// with the blocks after it that NextBackoff hands over.
ICP_AVX2 void VbpExtremeFoldSeg256(const Word* const* bases,
                                   const int* widths, int num_groups,
                                   int tau, const Word* filter,
                                   std::size_t n, bool is_min, Word* temp,
                                   FoldCounters* counters) {
  const std::size_t blocks = n / 4;
  const __m256i zero = _mm256_setzero_si256();
  std::size_t backoff = 0;
  for (std::size_t p = 0; p < blocks;) {
    const __m256i f = LoadU(filter + p * 4);
    const unsigned live = NonzeroLanes256(f);
    FoldCounters block;
    block.segments_skipped = 4 - std::popcount(live);
    if (live != 0) {
      const __m256i live_mask = _mm256_xor_si256(
          _mm256_cmpeq_epi64(f, zero), _mm256_set1_epi64x(-1));
      block.folds = std::popcount(live);
      __m256i eq = _mm256_set1_epi64x(-1);
      __m256i replace = zero;
      unsigned undecided = live;
      for (int g = 0; g < num_groups; ++g) {
        const long long width = widths[g];
        const Word* base = bases[g] + p * 4 * static_cast<std::size_t>(width);
        const __m256i idx =
            _mm256_setr_epi64x(0, width, 2 * width, 3 * width);
        for (int j = 0; j < width; ++j) {
          const __m256i x = _mm256_mask_i64gather_epi64(
              zero, reinterpret_cast<const long long*>(base + j), idx,
              live_mask, 8);
          const __m256i y = _mm256_set1_epi64x(
              static_cast<long long>(temp[g * tau + j]));
          const __m256i wins = is_min ? _mm256_andnot_si256(x, y)
                                      : _mm256_andnot_si256(y, x);
          replace = _mm256_or_si256(replace, _mm256_and_si256(eq, wins));
          eq = _mm256_andnot_si256(_mm256_xor_si256(x, y), eq);
        }
        undecided = StepUndecided(undecided, NonzeroLanes256(eq) & undecided,
                                  g, num_groups, &block);
        if (undecided == 0) break;
      }
      if (!_mm256_testz_si256(replace, f)) {
        backoff = NextBackoff(backoff);
        const std::size_t end = std::min(blocks, p + backoff);
        VbpFoldScalarRange(bases, widths, num_groups, tau, filter, p * 4,
                           end * 4, is_min, temp, counters);
        p = end;
        continue;
      }
      block.blends_skipped = block.folds;
    }
    if (block.folds != 0) backoff = 0;
    AddFoldCounters(block, counters);
    ++p;
  }
  VbpFoldScalarRange(bases, widths, num_groups, tau, filter, blocks * 4, n,
                     is_min, temp, counters);
}

// hbp_extreme_fold for lanes == 1, 4 segments per block: the block
// permute/shift scheme of HbpSumAvx2 gives each lane its field delimiters,
// and the speculation of VbpExtremeFoldSeg256 keeps the result and the
// counters equal to the scalar fold's.
ICP_AVX2 void HbpExtremeFoldSeg256(const Word* const* bases, int num_groups,
                                   int s, int tau, const Word* filter,
                                   std::size_t n, bool is_min, Word* temp,
                                   FoldCounters* counters) {
  const std::size_t blocks = n / 4;
  const std::size_t block_words = static_cast<std::size_t>(s) * 4;
  __m256i perm[kWordBits];
  __m256i shift[kWordBits];
  BlockTables256(s, /*lanes=*/1, perm, shift);
  const __m256i dm =
      _mm256_set1_epi64x(static_cast<long long>(DelimiterMask(s)));
  for (std::size_t p = 0; p < blocks; ++p) {
    const __m256i f = LoadU(filter + p * 4);
    FoldCounters block;
    block.segments_skipped = 4 - std::popcount(NonzeroLanes256(f));
    bool replaced = false;
    for (int v = 0; v < s && block.segments_skipped < 4; ++v) {
      const __m256i md = _mm256_and_si256(
          _mm256_sllv_epi64(_mm256_permutevar8x32_epi32(f, perm[v]),
                            shift[v]),
          dm);
      const unsigned active = NonzeroLanes256(md);
      if (active == 0) continue;
      block.folds += std::popcount(active);
      __m256i eq = dm;
      __m256i replace = _mm256_setzero_si256();
      unsigned undecided = active;
      const std::size_t offset =
          p * block_words + static_cast<std::size_t>(v) * 4;
      for (int g = 0; g < num_groups; ++g) {
        const __m256i x = LoadU(bases[g] + offset);
        const __m256i y =
            _mm256_set1_epi64x(static_cast<long long>(temp[g]));
        const __m256i ge_xy = FieldGe256(x, y, dm);
        const __m256i ge_yx = FieldGe256(y, x, dm);
        replace = _mm256_or_si256(
            replace,
            _mm256_and_si256(eq,
                             _mm256_xor_si256(is_min ? ge_xy : ge_yx, dm)));
        eq = _mm256_and_si256(eq, _mm256_and_si256(ge_xy, ge_yx));
        undecided = StepUndecided(undecided, NonzeroLanes256(eq) & undecided,
                                  g, num_groups, &block);
        if (undecided == 0) break;
      }
      if (!_mm256_testz_si256(replace, md)) {
        replaced = true;
        break;
      }
      block.blends_skipped += std::popcount(active);
    }
    if (replaced) {
      HbpFoldScalarRange(bases, num_groups, s, tau, filter, p * 4, p * 4 + 4,
                         is_min, temp, counters);
      continue;
    }
    AddFoldCounters(block, counters);
  }
  HbpFoldScalarRange(bases, num_groups, s, tau, filter, blocks * 4, n,
                     is_min, temp, counters);
}

}  // namespace

ICP_AVX2 void VbpExtremeFoldAvx2(const Word* const* bases, const int* widths,
                                 int num_groups, int tau, int lanes,
                                 const Word* filter, std::size_t n,
                                 bool is_min, Word* temp,
                                 FoldCounters* counters) {
  if (lanes == 1) {
    VbpExtremeFoldSeg256(bases, widths, num_groups, tau, filter, n, is_min,
                         temp, counters);
    return;
  }
  if (lanes != 4) {
    VbpExtremeFoldScalar(bases, widths, num_groups, tau, lanes, filter, n,
                         is_min, temp, counters);
    return;
  }
  for (std::size_t u = 0; u < n; ++u) {
    const __m256i f = LoadU(filter + u * 4);
    if (_mm256_testz_si256(f, f)) {
      if (counters != nullptr) ++counters->segments_skipped;
      continue;
    }
    if (counters != nullptr) ++counters->folds;
    __m256i eq = _mm256_set1_epi64x(-1);
    __m256i replace = _mm256_setzero_si256();
    for (int g = 0; g < num_groups; ++g) {
      const int width = widths[g];
      const Word* base = bases[g] + u * static_cast<std::size_t>(width) * 4;
      for (int j = 0; j < width; ++j) {
        const __m256i x = LoadU(base + j * 4);
        const __m256i y = LoadU(temp + (g * tau + j) * 4);
        const __m256i wins = is_min ? _mm256_andnot_si256(x, y)
                                    : _mm256_andnot_si256(y, x);
        replace = _mm256_or_si256(replace, _mm256_and_si256(eq, wins));
        eq = _mm256_andnot_si256(_mm256_xor_si256(x, y), eq);
      }
      if (_mm256_testz_si256(eq, eq)) {
        if (counters != nullptr && g + 1 < num_groups) {
          ++counters->compare_early_stops;
        }
        break;
      }
    }
    replace = _mm256_and_si256(replace, f);
    if (_mm256_testz_si256(replace, replace)) {
      if (counters != nullptr) ++counters->blends_skipped;
      continue;
    }
    for (int g = 0; g < num_groups; ++g) {
      const int width = widths[g];
      const Word* base = bases[g] + u * static_cast<std::size_t>(width) * 4;
      for (int j = 0; j < width; ++j) {
        const __m256i x = LoadU(base + j * 4);
        Word* yp = temp + (g * tau + j) * 4;
        StoreU(yp, _mm256_or_si256(_mm256_and_si256(replace, x),
                                   _mm256_andnot_si256(replace, LoadU(yp))));
      }
    }
  }
}

ICP_AVX2 void HbpExtremeFoldAvx2(const Word* const* bases, int num_groups,
                                 int s, int tau, int lanes,
                                 const Word* filter, std::size_t n,
                                 bool is_min, Word* temp,
                                 FoldCounters* counters) {
  if (lanes == 1) {
    HbpExtremeFoldSeg256(bases, num_groups, s, tau, filter, n, is_min, temp,
                         counters);
    return;
  }
  if (lanes != 4) {
    HbpExtremeFoldScalar(bases, num_groups, s, tau, lanes, filter, n, is_min,
                         temp, counters);
    return;
  }
  const __m256i dm =
      _mm256_set1_epi64x(static_cast<long long>(DelimiterMask(s)));
  for (std::size_t u = 0; u < n; ++u) {
    const __m256i f = LoadU(filter + u * 4);
    if (_mm256_testz_si256(f, f)) {
      if (counters != nullptr) ++counters->segments_skipped;
      continue;
    }
    for (int t = 0; t < s; ++t) {
      const __m256i md = _mm256_and_si256(_mm256_slli_epi64(f, t), dm);
      if (_mm256_testz_si256(md, md)) continue;
      if (counters != nullptr) ++counters->folds;
      const std::size_t word_off =
          (u * static_cast<std::size_t>(s) + t) * 4;
      __m256i eq = dm;
      __m256i replace = _mm256_setzero_si256();
      for (int g = 0; g < num_groups; ++g) {
        const __m256i x = LoadU(bases[g] + word_off);
        const __m256i y = LoadU(temp + g * 4);
        const __m256i ge_xy = FieldGe256(x, y, dm);
        const __m256i ge_yx = FieldGe256(y, x, dm);
        replace = _mm256_or_si256(
            replace,
            _mm256_and_si256(
                eq, _mm256_xor_si256(is_min ? ge_xy : ge_yx, dm)));
        eq = _mm256_and_si256(eq, _mm256_and_si256(ge_xy, ge_yx));
        if (_mm256_testz_si256(eq, eq)) {
          if (counters != nullptr && g + 1 < num_groups) {
            ++counters->compare_early_stops;
          }
          break;
        }
      }
      replace = _mm256_and_si256(replace, md);
      if (_mm256_testz_si256(replace, replace)) {
        if (counters != nullptr) ++counters->blends_skipped;
        continue;
      }
      const __m256i m =
          _mm256_sub_epi64(replace, _mm256_srli_epi64(replace, tau));
      for (int g = 0; g < num_groups; ++g) {
        const __m256i x = LoadU(bases[g] + word_off);
        Word* yp = temp + g * 4;
        StoreU(yp, _mm256_or_si256(_mm256_and_si256(m, x),
                                   _mm256_andnot_si256(m, LoadU(yp))));
      }
    }
  }
}

#undef ICP_AVX2
#endif  // ICP_POSPOPCNT_HAVE_AVX2

// ---------------------------------------------------------------------------
// AVX-512 tier (VPOPCNTDQ + DQ's 64-bit lane multiply).
// ---------------------------------------------------------------------------

#if defined(ICP_POSPOPCNT_HAVE_AVX512)
namespace {

#define ICP_AVX512                 \
  __attribute__((target(          \
      "avx512f,avx512bw,avx512dq,avx512vl,avx512vpopcntdq")))

ICP_AVX512 inline __m512i LoadU512(const Word* p) {
  return _mm512_loadu_si512(static_cast<const void*>(p));
}

ICP_AVX512 inline void StoreU512(Word* p, __m512i v) {
  _mm512_storeu_si512(static_cast<void*>(p), v);
}

ICP_AVX512 inline __m512i LoadU256Zext512(const Word* p) {
  return _mm512_zextsi256_si512(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

// One zmm holding units u and u+1 of a lanes==4 stream strided by `stride`.
ICP_AVX512 inline __m512i LoadUnitPair(const Word* p, std::size_t stride) {
  return _mm512_inserti64x4(
      _mm512_castsi256_si512(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + stride)), 1);
}

// masked_popcount for lanes == 1: one masked gather per 8 units (see
// MaskedPopcountGather256).
ICP_AVX512 std::uint64_t MaskedPopcountGather512(const Word* data,
                                                 std::size_t stride,
                                                 const Word* cand,
                                                 std::size_t n) {
  const long long st = static_cast<long long>(stride);
  const __m512i idx = _mm512_setr_epi64(0, st, 2 * st, 3 * st, 4 * st,
                                        5 * st, 6 * st, 7 * st);
  const __m512i zero = _mm512_setzero_si512();
  __m512i acc = zero;
  std::size_t u = 0;
  for (; u + 8 <= n; u += 8) {
    const __m512i c = LoadU512(cand + u);
    const __mmask8 live = _mm512_test_epi64_mask(c, c);
    if (live == 0) continue;
    const __m512i w = _mm512_mask_i64gather_epi64(
        zero, live, idx, static_cast<const void*>(data + u * stride), 8);
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_and_si512(c, w)));
  }
  return static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc)) +
         MaskedPopcountScalar(data + u * stride, stride, 1, cand + u, n - u);
}

// Horizontal sum of 8 lanes mod 2^64. _mm512_reduce_add_epi64 adds the
// last two lanes as signed long long, which overflows (undefined
// behaviour) once the per-lane sums wrap, as HBP SUM's may.
ICP_AVX512 inline std::uint64_t Hsum512(__m512i v) {
  alignas(64) Word lanes[8];
  _mm512_store_si512(static_cast<void*>(lanes), v);
  std::uint64_t sum = 0;
  for (const Word w : lanes) sum += w;
  return sum;
}

// Per-vector tables for 8-word blocks of an in-word stream: lane i of
// vector v takes filter word LaneOfBlockWord(8v+i).filter_word of the
// block (vpermq) shifted left by its sub-segment (vpsllvq).
ICP_AVX512 void BlockTables512(int s, int lanes, __m512i* perm,
                               __m512i* shift) {
  for (int v = 0; v < s; ++v) {
    alignas(64) std::int64_t p[8];
    alignas(64) std::int64_t sh[8];
    for (int i = 0; i < 8; ++i) {
      const BlockLane bl = LaneOfBlockWord(8 * v + i, s, lanes);
      p[i] = bl.filter_word;
      sh[i] = bl.sub_segment;
    }
    perm[v] = _mm512_load_si512(static_cast<const void*>(p));
    shift[v] = _mm512_load_si512(static_cast<const void*>(sh));
  }
}

ICP_AVX512 inline __m512i FieldGe512(__m512i x, __m512i c, __m512i md) {
  return _mm512_and_si512(_mm512_sub_epi64(_mm512_or_si512(x, md), c), md);
}

// VbpExtremeFoldSeg256 with 8 segments per block.
ICP_AVX512 void VbpExtremeFoldSeg512(const Word* const* bases,
                                     const int* widths, int num_groups,
                                     int tau, const Word* filter,
                                     std::size_t n, bool is_min, Word* temp,
                                     FoldCounters* counters) {
  const std::size_t blocks = n / 8;
  const __m512i zero = _mm512_setzero_si512();
  const __m512i lane = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t backoff = 0;
  for (std::size_t p = 0; p < blocks;) {
    const __m512i f = LoadU512(filter + p * 8);
    const __mmask8 live = _mm512_test_epi64_mask(f, f);
    FoldCounters block;
    block.segments_skipped = 8 - std::popcount(unsigned{live});
    if (live != 0) {
      block.folds = std::popcount(unsigned{live});
      __m512i eq = _mm512_set1_epi64(-1);
      __m512i replace = zero;
      unsigned undecided = live;
      for (int g = 0; g < num_groups; ++g) {
        const int width = widths[g];
        const Word* base = bases[g] + p * 8 * static_cast<std::size_t>(width);
        const __m512i idx = _mm512_mullo_epi64(lane, _mm512_set1_epi64(width));
        for (int j = 0; j < width; ++j) {
          const __m512i x = _mm512_mask_i64gather_epi64(
              zero, live, idx, static_cast<const void*>(base + j), 8);
          const __m512i y =
              _mm512_set1_epi64(static_cast<long long>(temp[g * tau + j]));
          const __m512i wins = is_min ? _mm512_andnot_si512(x, y)
                                      : _mm512_andnot_si512(y, x);
          replace = _mm512_or_si512(replace, _mm512_and_si512(eq, wins));
          eq = _mm512_andnot_si512(_mm512_xor_si512(x, y), eq);
        }
        undecided = StepUndecided(
            undecided, _mm512_test_epi64_mask(eq, eq) & undecided, g,
            num_groups, &block);
        if (undecided == 0) break;
      }
      if (_mm512_test_epi64_mask(replace, f) != 0) {
        backoff = NextBackoff(backoff);
        const std::size_t end = std::min(blocks, p + backoff);
        VbpFoldScalarRange(bases, widths, num_groups, tau, filter, p * 8,
                           end * 8, is_min, temp, counters);
        p = end;
        continue;
      }
      block.blends_skipped = block.folds;
    }
    if (block.folds != 0) backoff = 0;
    AddFoldCounters(block, counters);
    ++p;
  }
  VbpFoldScalarRange(bases, widths, num_groups, tau, filter, blocks * 8, n,
                     is_min, temp, counters);
}

// HbpExtremeFoldSeg256 with 8 segments per block.
ICP_AVX512 void HbpExtremeFoldSeg512(const Word* const* bases,
                                     int num_groups, int s, int tau,
                                     const Word* filter, std::size_t n,
                                     bool is_min, Word* temp,
                                     FoldCounters* counters) {
  const std::size_t blocks = n / 8;
  const std::size_t block_words = static_cast<std::size_t>(s) * 8;
  __m512i perm[kWordBits];
  __m512i shift[kWordBits];
  BlockTables512(s, /*lanes=*/1, perm, shift);
  const __m512i dm =
      _mm512_set1_epi64(static_cast<long long>(DelimiterMask(s)));
  for (std::size_t p = 0; p < blocks; ++p) {
    const __m512i f = LoadU512(filter + p * 8);
    FoldCounters block;
    block.segments_skipped =
        8 - std::popcount(unsigned{_mm512_test_epi64_mask(f, f)});
    bool replaced = false;
    for (int v = 0; v < s && block.segments_skipped < 8; ++v) {
      const __m512i md = _mm512_and_si512(
          _mm512_sllv_epi64(_mm512_permutexvar_epi64(perm[v], f), shift[v]),
          dm);
      const __mmask8 active = _mm512_test_epi64_mask(md, md);
      if (active == 0) continue;
      block.folds += std::popcount(unsigned{active});
      __m512i eq = dm;
      __m512i replace = _mm512_setzero_si512();
      unsigned undecided = active;
      const std::size_t offset =
          p * block_words + static_cast<std::size_t>(v) * 8;
      for (int g = 0; g < num_groups; ++g) {
        const __m512i x = LoadU512(bases[g] + offset);
        const __m512i y = _mm512_set1_epi64(static_cast<long long>(temp[g]));
        const __m512i ge_xy = FieldGe512(x, y, dm);
        const __m512i ge_yx = FieldGe512(y, x, dm);
        replace = _mm512_or_si512(
            replace,
            _mm512_and_si512(eq,
                             _mm512_xor_si512(is_min ? ge_xy : ge_yx, dm)));
        eq = _mm512_and_si512(eq, _mm512_and_si512(ge_xy, ge_yx));
        undecided = StepUndecided(
            undecided, _mm512_test_epi64_mask(eq, eq) & undecided, g,
            num_groups, &block);
        if (undecided == 0) break;
      }
      if (_mm512_test_epi64_mask(replace, md) != 0) {
        replaced = true;
        break;
      }
      block.blends_skipped += std::popcount(unsigned{active});
    }
    if (replaced) {
      HbpFoldScalarRange(bases, num_groups, s, tau, filter, p * 8, p * 8 + 8,
                         is_min, temp, counters);
      continue;
    }
    AddFoldCounters(block, counters);
  }
  HbpFoldScalarRange(bases, num_groups, s, tau, filter, blocks * 8, n,
                     is_min, temp, counters);
}

}  // namespace

ICP_AVX512 void CombineWordsAvx512(Word* dst, const Word* src, std::size_t n,
                                   int op) {
  std::size_t i = 0;
  switch (static_cast<CombineOp>(op)) {
    case CombineOp::kAnd:
      for (; i + 8 <= n; i += 8) {
        StoreU512(dst + i,
                  _mm512_and_si512(LoadU512(dst + i), LoadU512(src + i)));
      }
      for (; i < n; ++i) dst[i] &= src[i];
      break;
    case CombineOp::kOr:
      for (; i + 8 <= n; i += 8) {
        StoreU512(dst + i,
                  _mm512_or_si512(LoadU512(dst + i), LoadU512(src + i)));
      }
      for (; i < n; ++i) dst[i] |= src[i];
      break;
    case CombineOp::kXor:
      for (; i + 8 <= n; i += 8) {
        StoreU512(dst + i,
                  _mm512_xor_si512(LoadU512(dst + i), LoadU512(src + i)));
      }
      for (; i < n; ++i) dst[i] ^= src[i];
      break;
    case CombineOp::kAndNot:
      for (; i + 8 <= n; i += 8) {
        StoreU512(dst + i,
                  _mm512_andnot_si512(LoadU512(src + i), LoadU512(dst + i)));
      }
      for (; i < n; ++i) dst[i] &= ~src[i];
      break;
  }
}

ICP_AVX512 std::uint64_t MaskedPopcountAvx512(const Word* data,
                                              std::size_t stride, int lanes,
                                              const Word* cand,
                                              std::size_t n) {
  if (lanes == 1) return MaskedPopcountGather512(data, stride, cand, n);
  if (lanes != 4) return MaskedPopcountScalar(data, stride, lanes, cand, n);
  __m512i acc = _mm512_setzero_si512();
  std::size_t u = 0;
  for (; u + 2 <= n; u += 2) {
    const __m512i c = LoadU512(cand + u * 4);  // both units' words adjoin
    if (_mm512_test_epi64_mask(c, c) == 0) continue;
    const __m512i w = LoadUnitPair(data + u * stride, stride);
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_and_si512(c, w)));
  }
  if (u < n) {
    const __m512i c = LoadU256Zext512(cand + u * 4);
    if (_mm512_test_epi64_mask(c, c) != 0) {
      const __m512i w = LoadU256Zext512(data + u * stride);
      acc = _mm512_add_epi64(acc,
                             _mm512_popcnt_epi64(_mm512_and_si512(c, w)));
    }
  }
  return static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
}

ICP_AVX512 void HbpSumAvx512(const Word* const* bases, int num_groups, int s,
                             int tau, int lanes, const Word* filter,
                             std::size_t n, std::uint64_t* group_sums) {
  if (8 % lanes != 0) {
    HbpSumScalar(bases, num_groups, s, tau, lanes, filter, n, group_sums);
    return;
  }
  // A block is 8 consecutive segments: 8 filter words and, per group, s
  // contiguous 8-word vectors (lanes == 1: eight units; lanes == 4: two).
  const std::size_t units_per_block = static_cast<std::size_t>(8 / lanes);
  const std::size_t blocks = n / units_per_block;
  const std::size_t block_words = static_cast<std::size_t>(s) * 8;
  __m512i perm[kWordBits];
  __m512i shift[kWordBits];
  BlockTables512(s, lanes, perm, shift);
  // Full multiply plan per word: vpmullq (AVX512DQ) restores the 64-bit
  // lane multiply that AVX2 lacks, so no widened accumulator is needed.
  const InWordSumPlan plan(s);
  const __m512i dm =
      _mm512_set1_epi64(static_cast<long long>(DelimiterMask(s)));
  __m512i masks[8];
  for (int i = 0; i < plan.num_steps(); ++i) {
    masks[i] = _mm512_set1_epi64(static_cast<long long>(plan.step_mask(i)));
  }
  const __m512i final_mask =
      _mm512_set1_epi64(static_cast<long long>(plan.final_mask()));
  const __m512i multiplier =
      _mm512_set1_epi64(static_cast<long long>(plan.multiplier()));
  __m512i acc[kWordBits];
  for (int g = 0; g < num_groups; ++g) acc[g] = _mm512_setzero_si512();
  for (std::size_t p = 0; p < blocks; ++p) {
    const __m512i f = LoadU512(filter + p * 8);
    if (_mm512_test_epi64_mask(f, f) == 0) continue;  // nothing selected
    for (int v = 0; v < s; ++v) {
      const __m512i md = _mm512_and_si512(
          _mm512_sllv_epi64(_mm512_permutexvar_epi64(perm[v], f), shift[v]),
          dm);
      const __m512i m = _mm512_sub_epi64(md, _mm512_srli_epi64(md, tau));
      const std::size_t offset =
          p * block_words + static_cast<std::size_t>(v) * 8;
      for (int g = 0; g < num_groups; ++g) {
        __m512i w = _mm512_and_si512(LoadU512(bases[g] + offset), m);
        w = _mm512_srli_epi64(w, plan.align_shift());
        for (int i = 0; i < plan.num_steps(); ++i) {
          w = _mm512_add_epi64(
              _mm512_and_si512(w, masks[i]),
              _mm512_and_si512(_mm512_srli_epi64(w, plan.step_shift(i)),
                               masks[i]));
        }
        if (plan.use_multiply()) {
          w = _mm512_srli_epi64(_mm512_mullo_epi64(w, multiplier),
                                plan.final_shift());
        }
        acc[g] = _mm512_add_epi64(acc[g], _mm512_and_si512(w, final_mask));
      }
    }
  }
  for (int g = 0; g < num_groups; ++g) group_sums[g] += Hsum512(acc[g]);
  HbpSumTail(bases, num_groups, s, tau, lanes, filter,
             blocks * units_per_block, n, group_sums);
}

ICP_AVX512 void VbpExtremeFoldAvx512(const Word* const* bases,
                                     const int* widths, int num_groups,
                                     int tau, int lanes, const Word* filter,
                                     std::size_t n, bool is_min, Word* temp,
                                     FoldCounters* counters) {
  if (lanes == 1) {
    VbpExtremeFoldSeg512(bases, widths, num_groups, tau, filter, n, is_min,
                         temp, counters);
    return;
  }
  VbpExtremeFoldAvx2(bases, widths, num_groups, tau, lanes, filter, n,
                     is_min, temp, counters);
}

ICP_AVX512 void HbpExtremeFoldAvx512(const Word* const* bases,
                                     int num_groups, int s, int tau,
                                     int lanes, const Word* filter,
                                     std::size_t n, bool is_min, Word* temp,
                                     FoldCounters* counters) {
  if (lanes == 1) {
    HbpExtremeFoldSeg512(bases, num_groups, s, tau, filter, n, is_min, temp,
                         counters);
    return;
  }
  HbpExtremeFoldAvx2(bases, num_groups, s, tau, lanes, filter, n, is_min,
                     temp, counters);
}

namespace {

#define ICP_AVX512_GFNI         \
  __attribute__((target(       \
      "avx512f,avx512bw,avx512dq,avx512vl,avx512vbmi,gfni")))

// Source bytes for vgf2p8affineqb with a data qword as the matrix: output
// byte p of the qword gathers bit p (kGfBitColumns) or bit 7 - p
// (kGfBitColumnsReversed) of its eight bytes, the last byte landing in
// bit 0. Either way one instruction transposes eight 8x8 bit blocks.
constexpr long long kGfBitColumns = 0x8040201008040201LL;
constexpr long long kGfBitColumnsReversed = 0x0102040810204080LL;

// vpermb index vectors of the segment transpose. A segment's 64 codes sit
// in eight zmm of eight codes; a byte slice is one zmm whose byte 8q + l
// is byte b of code 8q + l. After the 8x8 transposes, qword q of a slice
// holds byte 7 - q of the slice's eight planes (plane bit 8b + p in byte
// p), since value i sits at bit 63 - i of a plane word.
struct TransposeTables {
  // gather[8q + l] = 8l: byte 0 of code 8q + l in that code's zmm (add b
  // for byte b).
  alignas(64) std::uint8_t gather[64];
  // pack_out[w - 1][8r + m] = 8(7 - m) + (w - 1 - r): output qword r is
  // the plane of bit 8b + w - 1 - r, the order VbpColumn stores planes in.
  alignas(64) std::uint8_t pack_out[8][64];
  // unpack_in[w - 1]: the inverse of pack_out with each qword's bytes
  // reversed (for kGfBitColumnsReversed); bit rows >= w read byte 56,
  // which the masked plane load left zero.
  alignas(64) std::uint8_t unpack_in[8][64];
  // scatter[q][8l + x] = 8q + l: byte b of code 8q + l from a slice (the
  // store mask picks x = b).
  alignas(64) std::uint8_t scatter[8][64];
};

constexpr TransposeTables MakeTransposeTables() {
  TransposeTables t{};
  for (int d = 0; d < 64; ++d) {
    t.gather[d] = static_cast<std::uint8_t>(8 * (d % 8));
  }
  for (int w = 1; w <= 8; ++w) {
    for (int r = 0; r < 8; ++r) {
      for (int m = 0; m < 8; ++m) {
        t.pack_out[w - 1][8 * r + m] =
            static_cast<std::uint8_t>(r < w ? 8 * (7 - m) + (w - 1 - r) : 0);
      }
    }
    for (int q = 0; q < 8; ++q) {
      for (int p = 0; p < 8; ++p) {
        const int row = 7 - p;
        t.unpack_in[w - 1][8 * q + p] =
            static_cast<std::uint8_t>(row < w ? 8 * (w - 1 - row) + (7 - q)
                                              : 56);
      }
    }
  }
  for (int q = 0; q < 8; ++q) {
    for (int d = 0; d < 64; ++d) {
      t.scatter[q][d] = static_cast<std::uint8_t>(8 * q + d / 8);
    }
  }
  return t;
}

constexpr TransposeTables kTransposeTables = MakeTransposeTables();

ICP_AVX512_GFNI inline __m512i LoadTable(const std::uint8_t* p) {
  return _mm512_load_si512(static_cast<const void*>(p));
}

ICP_AVX512_GFNI void VbpPackGfni(const std::uint64_t* codes, std::size_t n,
                                 int k, Word* planes) {
  __m512i z[8];
  for (int q = 0; q < 8; ++q) {
    const std::size_t lo = 8 * static_cast<std::size_t>(q);
    const unsigned live = n > lo ? static_cast<unsigned>(n - lo) : 0;
    const __mmask8 mask =
        live >= 8 ? __mmask8{0xFF}
                  : static_cast<__mmask8>((1u << live) - 1);
    z[q] = _mm512_maskz_loadu_epi64(mask, codes + lo);
  }
  const __m512i gather = LoadTable(kTransposeTables.gather);
  const __m512i columns = _mm512_set1_epi64(kGfBitColumns);
  for (int b = 0; 8 * b < k; ++b) {
    const __m512i idx =
        _mm512_add_epi8(gather, _mm512_set1_epi8(static_cast<char>(b)));
    __m512i slice = _mm512_setzero_si512();
    for (int q = 0; q < 8; ++q) {
      slice = _mm512_mask_permutexvar_epi8(
          slice, __mmask64{0xFF} << (8 * q), idx, z[q]);
    }
    const __m512i bits = _mm512_gf2p8affine_epi64_epi8(columns, slice, 0);
    const int w = std::min(8, k - 8 * b);
    const __m512i out = _mm512_permutexvar_epi8(
        LoadTable(kTransposeTables.pack_out[w - 1]), bits);
    _mm512_mask_storeu_epi64(planes + (k - 8 * b - w),
                             static_cast<__mmask8>((1u << w) - 1), out);
  }
}

ICP_AVX512_GFNI void VbpUnpackGfni(const Word* planes, int k,
                                   std::uint64_t* codes) {
  __m512i acc[8];
  for (__m512i& a : acc) a = _mm512_setzero_si512();
  const __m512i columns = _mm512_set1_epi64(kGfBitColumnsReversed);
  for (int b = 0; 8 * b < k; ++b) {
    const int w = std::min(8, k - 8 * b);
    const __m512i in = _mm512_maskz_loadu_epi64(
        static_cast<__mmask8>((1u << w) - 1), planes + (k - 8 * b - w));
    const __m512i bits = _mm512_permutexvar_epi8(
        LoadTable(kTransposeTables.unpack_in[w - 1]), in);
    const __m512i slice = _mm512_gf2p8affine_epi64_epi8(columns, bits, 0);
    const __mmask64 byte_b = 0x0101010101010101ull << b;
    for (int q = 0; q < 8; ++q) {
      acc[q] = _mm512_mask_permutexvar_epi8(
          acc[q], byte_b, LoadTable(kTransposeTables.scatter[q]), slice);
    }
  }
  for (int q = 0; q < 8; ++q) StoreU512(codes + 8 * q, acc[q]);
}

#undef ICP_AVX512_GFNI

bool HostHasGfniVbmi() {
  static const bool has = __builtin_cpu_supports("gfni") &&
                          __builtin_cpu_supports("avx512vbmi");
  return has;
}

}  // namespace

void VbpPackAvx512(const std::uint64_t* codes, std::size_t n, int k,
                   Word* planes) {
  if (HostHasGfniVbmi()) {
    VbpPackGfni(codes, n, k, planes);
  } else {
    VbpPackScalar(codes, n, k, planes);
  }
}

void VbpUnpackAvx512(const Word* planes, int k, std::uint64_t* codes) {
  if (HostHasGfniVbmi()) {
    VbpUnpackGfni(planes, k, codes);
  } else {
    VbpUnpackScalar(planes, k, codes);
  }
}

#undef ICP_AVX512
#endif  // ICP_POSPOPCNT_HAVE_AVX512

}  // namespace icp::kern
