// Runtime kernel dispatch for the aggregation hot paths.
//
// Every positional-popcount / popcount / word-compare call site in the
// engine routes through a small registry of function pointers instead of
// ad-hoc `#ifdef __AVX2__` blocks. The registry is resolved once at
// startup:
//
//   tier = min(MaxSupportedTier(), ICP_FORCE_KERNEL if set)
//
// where MaxSupportedTier() consults cpuid (via __builtin_cpu_supports) on
// x86-64 and caps at kSse64 elsewhere. The AVX2 and AVX-512 kernels are
// compiled with function-level target(...) attributes, so they are always
// *linked* but only *selected* when the CPU actually has the features — a
// portable (-DICP_NATIVE_ARCH=OFF) binary still picks the best tier on
// capable hardware.
//
// Overrides, strongest first:
//   1. ForceTier(tier)            — programmatic, for tests and benchmarks;
//                                   ForceTier(std::nullopt) clears it.
//   2. ICP_FORCE_KERNEL=<tier>    — environment, read once at first use;
//                                   <tier> in {scalar, sse, avx2, avx512}.
// Both are clamped to MaxSupportedTier() so forcing "avx512" on a
// non-VPOPCNTDQ host degrades safely — and loudly: either path prints a
// one-line stderr note, and ForceTier() additionally bumps the
// kern.force_clamped counter, so a harness can't silently measure (or
// claim coverage for) a lower tier under a higher tier's name. Harnesses
// that iterate tiers should use EffectiveTier() to detect the clamp and
// skip instead of re-running a duplicate.
//
// To add a kernel: declare the per-tier implementations (see
// vbp_pospopcnt.h / agg_kernels.h), add a slot to KernelOps, fill it in
// the four tier tables in dispatch.cc, and call `kern::Ops().slot(...)`
// at the call site. docs/simd_dispatch.md walks through this.

#ifndef ICP_SIMD_DISPATCH_H_
#define ICP_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "util/bits.h"

namespace icp::kern {

enum class Tier : int {
  kScalar = 0,  // per-word POPCNT loops (the original baseline)
  kSse64 = 1,   // Harley-Seal CSA over plain 64-bit words; portable C++
  kAvx2 = 2,    // Harley-Seal over 256-bit registers, pshufb popcount
  kAvx512 = 3,  // 512-bit kernels built on VPOPCNTDQ (vpopcntq)
};

// Display / parse names: "scalar", "sse", "avx2", "avx512".
const char* TierName(Tier tier);
bool ParseTier(const char* name, Tier* out);

// Highest tier this CPU can run (cpuid on x86-64; kSse64 elsewhere).
Tier MaxSupportedTier();

// The tier whose ops table OpsFor(tier) actually returns — i.e. `tier`
// after clamping to MaxSupportedTier() and compile-time availability.
// Harnesses iterating tiers use this to dedupe clamped duplicates instead
// of reporting phantom coverage for tiers the host cannot run.
Tier EffectiveTier(Tier tier);

// The tier in effect right now (startup detection + overrides).
Tier ActiveTier();

// Programmatic override for tests/benchmarks; clamped to
// MaxSupportedTier() (clamping warns on stderr and bumps the
// kern.force_clamped counter). Pass std::nullopt to fall back to startup
// detection.
void ForceTier(std::optional<Tier> tier);

// Boolean combine operation for `combine_words`. Values are fixed — call
// sites pass them as raw ints through the kernel table.
enum class CombineOp : int {
  kAnd = 0,     // dst &= src
  kOr = 1,      // dst |= src
  kXor = 2,     // dst ^= src
  kAndNot = 3,  // dst &= ~src
};

// Scan-side statistics produced by the scanner kernels. Field meanings
// match scan::ScanStats (scan/predicate.h); the dispatch layer keeps its
// own mirror struct so it stays a leaf library.
struct ScanCounters {
  std::uint64_t words_examined = 0;
  std::uint64_t segments_processed = 0;
  std::uint64_t segments_early_stopped = 0;
};

// Aggregate-side statistics produced by the extreme-fold kernels. Field
// meanings match core::AggStats (core/aggregate.h).
struct FoldCounters {
  std::uint64_t folds = 0;
  std::uint64_t compare_early_stops = 0;
  std::uint64_t blends_skipped = 0;
  std::uint64_t segments_skipped = 0;
};

// The function-pointer bundle for one tier. All pointers are always
// non-null; per-tier implementations live in vbp_pospopcnt.h (positional
// and flat popcounts) and agg_kernels.h (everything else).
struct KernelOps {
  const char* name;

  // sums[j] += sum_i popcount(data[i*width+j] & filter[i]), lanes==1.
  void (*vbp_bit_sums)(const Word* data, const Word* filter, std::size_t n,
                       int width, std::uint64_t* sums);

  // Quad-interleaved (lanes==4) variant.
  void (*vbp_bit_sums_quads)(const Word* data, const Word* filter,
                             std::size_t num_quads, int width,
                             std::uint64_t* sums);

  // sum_i popcount(words[i])
  std::uint64_t (*popcount_words)(const Word* words, std::size_t n);

  // sum_i popcount(a[i] & b[i])
  std::uint64_t (*popcount_and)(const Word* a, const Word* b, std::size_t n);

  // In-place boolean combine: for i in [0,n):
  //   dst[i] (op)= src[i]  with op a CombineOp value (see above).
  // Backs FilterBitVector::And/Or/Xor/AndNot.
  void (*combine_words)(Word* dst, const Word* src, std::size_t n, int op);

  // Masked popcount over a strided plane — the rank/MEDIAN counting step.
  // For each unit u in [0,n) and lane l in [0,lanes):
  //   total += popcount(cand[u*lanes + l] & data[u*stride + l])
  // Units whose `lanes` candidate words are all zero are skipped (narrowed
  // away); kernels may exploit that for early exits but the result is the
  // same either way. `stride` is in words (lanes==1: width; lanes==4:
  // width*4).
  std::uint64_t (*masked_popcount)(const Word* data, std::size_t stride,
                                   int lanes, const Word* cand, std::size_t n);

  // HBP in-word SUM over a range of segments (units). For each unit u,
  // group g, sub-segment t in [0,s) and lane l in [0,lanes):
  //   word = bases[g][(u*s + t)*lanes + l]
  //   f    = filter[u*lanes + l]
  //   md   = (f << t) & DelimiterMask(s); if md == 0 the sub-segment
  //          contributes nothing
  //   m    = md - (md >> tau)   // value mask of selected fields
  //   group_sums[g] += InWordSum(word & m)   // field-wise sum, any plan
  // bases[g] points at the first word of the range for group g (already
  // offset by the caller); tau = s - 1.
  void (*hbp_sum)(const Word* const* bases, int num_groups, int s, int tau,
                  int lanes, const Word* filter, std::size_t n,
                  std::uint64_t* group_sums);

  // VBP MIN/MAX slot-fold over a range of segments (units). Bit-serial
  // compare cascade per unit: for group g, plane j of unit u lives at
  //   bases[g][(u*widths[g] + j)*lanes + l].
  // `temp` is the running extreme, plane j of group g at
  //   temp[(g*tau + j)*lanes + l]   (tau planes reserved per group).
  // Per unit: filter words all zero -> counters->segments_skipped++, next
  // unit. Otherwise counters->folds++, run the compare cascade over
  // groups/planes (is_min: candidate < extreme replaces; else >), break
  // out of the cascade early when no lane can still differ (counting
  // counters->compare_early_stops only when groups remain), and blend the
  // winning candidate planes into temp (skipping the blend, with
  // counters->blends_skipped++, when no lane wins). `counters` may be
  // null. Matches the scalar fold in core/vbp_aggregate.cc bit-for-bit,
  // stats included.
  void (*vbp_extreme_fold)(const Word* const* bases, const int* widths,
                           int num_groups, int tau, int lanes,
                           const Word* filter, std::size_t n, bool is_min,
                           Word* temp, FoldCounters* counters);

  // HBP MIN/MAX sub-slot fold. Group g's words for unit u sit at
  //   bases[g][(u*s + t)*lanes + l], t in [0,s); running extreme for
  // group g at temp[g*lanes + l] (fields packed in HBP form). Sub-segment
  // t participates only when md = (f << t) & DelimiterMask(s) is nonzero
  // for some lane. When n == 1, kernels MUST NOT read sub-segment t's
  // data words if every lane's md is zero (callers rely on this to fold
  // single words); for larger n the vector kernels may load every word of
  // a whole block of units. Counter semantics mirror vbp_extreme_fold
  // with per-(unit) skip counting. `counters` may be null.
  void (*hbp_extreme_fold)(const Word* const* bases, int num_groups, int s,
                           int tau, int lanes, const Word* filter,
                           std::size_t n, bool is_min, Word* temp,
                           FoldCounters* counters);

  // VBP scanner word-compare over segments (lanes==1). For segment i in
  // [0,n), group g with widths[g] planes at bases[g] + i*widths[g]:
  // run the bit-serial compare cascade for `op` (int-cast scan::CompareOp:
  // 0 eq, 1 ne, 2 lt, 3 le, 4 gt, 5 ge, 6 between) against the constant
  // bit patterns c1_bits (and c2_bits when op == 6), both laid out as
  // groups-major arrays of tau bits per group: bit for group g plane j at
  // c1_bits[g*tau + j].
  //   prior == nullptr: out[i] = raw compare result (caller applies the
  //     segment validity mask).
  //   prior != nullptr: segments with prior[i] == 0 are skipped entirely
  //     (out[i] = 0, never read, no stats); otherwise
  //     out[i] = result & prior[i].
  // Output words are bit-for-bit identical across tiers. Counters are
  // tier-dependent but internally consistent per tier: the vector tiers
  // process blocks of 4/8 segments and early-stop per block (a lane that
  // decides early rides along until its whole block decides), so
  //   segments_processed == n minus the prior-skipped segments,
  //   segments_early_stopped <= segments_processed, and
  //   words_examined counts plane words actually loaded per processed
  //   segment — between widths[0] and sum(widths) of them each.
  void (*vbp_scan)(const Word* const* bases, const int* widths,
                   int num_groups, int tau, int op, const bool* c1_bits,
                   const bool* c2_bits, std::size_t n, const Word* prior,
                   Word* out, ScanCounters* counters);

  // HBP scanner word-compare over segments (lanes==1). For segment i,
  // group g's sub-segment t at bases[g] + i*s + t; compare each data word
  // against the packed constants c1_packed[g] (and c2_packed[g] for
  // op == 6) with delimiter mask `md`, OR-ing `result >> t` into the
  // filter word. Prior-skip and counter semantics mirror vbp_scan
  // (words_examined counts sub-segment words actually loaded: between s
  // and num_groups*s per processed segment).
  void (*hbp_scan)(const Word* const* bases, int num_groups, int s, int op,
                   const Word* c1_packed, const Word* c2_packed, Word md,
                   std::size_t n, const Word* prior, Word* out,
                   ScanCounters* counters);

  // VBP segment pack: the 64 x k bit-matrix transpose that turns the codes
  // of one 64-value segment into its k bit planes. For j in [0,k):
  //   planes[j] bit (63 - i) = bit (k - 1 - j) of codes[i]   (i < n)
  //   planes[j] bit (63 - i) = 0                             (i >= n)
  // so plane 0 holds the most significant bits (VbpColumn's word order).
  // n in [1, 64], k in [1, 63], every code < 2^k. Reads only codes[0, n).
  void (*vbp_pack)(const std::uint64_t* codes, std::size_t n, int k,
                   Word* planes);

  // VBP segment unpack, the inverse transpose: writes all 64 codes of a
  // segment from its k plane words (laid out as vbp_pack writes them).
  void (*vbp_unpack)(const Word* planes, int k, std::uint64_t* codes);
};

// Ops table for an explicit tier (clamped to MaxSupportedTier()).
const KernelOps& OpsFor(Tier tier);

// Ops table for ActiveTier(). Call sites should grab this once per
// aggregate, not per segment. Out of line so each grab can bump the
// per-tier kern.dispatch.* obs counter (batch granularity by the rule
// above; compiled out under ICP_OBS=0).
const KernelOps& Ops();

}  // namespace icp::kern

#endif  // ICP_SIMD_DISPATCH_H_
