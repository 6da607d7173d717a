// Per-tier implementations of the non-popcount KernelOps slots: the filter
// boolean combines, the rank/MEDIAN masked popcount, the HBP in-word SUM,
// the VBP/HBP MIN/MAX folds, the scanner word-compare cascades, and the
// VBP segment transpose (pack/unpack).
//
// These are the hot paths the engine used to hand-roll per call site; they
// now live behind the dispatch registry (simd/dispatch.h) so one binary
// carries every implementation, ICP_FORCE_KERNEL covers them, and the
// differential harness exercises each tier.
//
// Layout conventions shared by all kernels (see layout/{vbp,hbp}_column.h):
//   * lanes == 1 (seg-major): unit == one segment; group g's word w of
//     unit u at bases[g][u*words_per_unit + w].
//   * lanes == 4 (quad-interleaved): unit == one segment-quad; the four
//     lanes of (unit, word) are contiguous at
//     bases[g][(u*words_per_unit + w)*4 .. +3], and the filter/candidate
//     words of a unit are contiguous too.
// The generic kernels accept any lanes in [1, 4]; the scalar folds run a
// copy of their body compiled for lanes == 1 on the engine's packing. The
// AVX2/AVX-512 specializations have vector paths for both packings the
// layouts build (lanes == 1, the engine's, and lanes == 4) and fall back to
// the generic body for any other lane count and for the ragged tail of a
// call:
//   * hbp_sum: one kernel for both packings. A block of 4 (AVX2) or 8
//     (AVX-512) consecutive segments is s contiguous vectors per group;
//     one permute picks each lane's filter word and one variable shift
//     applies its sub-segment (docs/simd_dispatch.md).
//   * hbp_extreme_fold / vbp_extreme_fold, lanes == 1: blocks of 4 / 8
//     segments (the same permute scheme for HBP, a masked gather per plane
//     for VBP) compare against the running extreme speculatively; a block
//     that would replace a field is re-run by the scalar kernel (VBP:
//     with up to 63 blocks after it while speculation keeps failing), so
//     the result and the counters equal the scalar fold's.
//   * masked_popcount, lanes == 1: one masked gather per 4 / 8 units.
// All kernels use unaligned loads, so temp/candidate buffers need no
// special alignment.
//
// The scanner kernels come in a scalar flavour (one segment at a time,
// shared by the scalar and sse tiers) and vectorized AVX2/AVX-512
// flavours (scan_kernels.cc) that run the compare cascades over blocks of
// 4/8 independent segments gathered into one register, early-stopping per
// block. Outputs are bit-for-bit identical across tiers; the counters are
// per-tier internally consistent (see the slot contracts in dispatch.h).

#ifndef ICP_SIMD_AGG_KERNELS_H_
#define ICP_SIMD_AGG_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "simd/vbp_pospopcnt.h"  // ICP_POSPOPCNT_HAVE_AVX2 / _AVX512
#include "util/bits.h"

namespace icp::kern {

struct ScanCounters;
struct FoldCounters;

// ---------------------------------------------------------------------------
// Scalar tier (also the "sse" tier: the CSA trick has no purchase on these
// mask/compare-dominated loops, so the sse table reuses these entries).
// ---------------------------------------------------------------------------
void CombineWordsScalar(Word* dst, const Word* src, std::size_t n, int op);
std::uint64_t MaskedPopcountScalar(const Word* data, std::size_t stride,
                                   int lanes, const Word* cand, std::size_t n);
void HbpSumScalar(const Word* const* bases, int num_groups, int s, int tau,
                  int lanes, const Word* filter, std::size_t n,
                  std::uint64_t* group_sums);
void VbpExtremeFoldScalar(const Word* const* bases, const int* widths,
                          int num_groups, int tau, int lanes,
                          const Word* filter, std::size_t n, bool is_min,
                          Word* temp, FoldCounters* counters);
void HbpExtremeFoldScalar(const Word* const* bases, int num_groups, int s,
                          int tau, int lanes, const Word* filter,
                          std::size_t n, bool is_min, Word* temp,
                          FoldCounters* counters);

// ---------------------------------------------------------------------------
// Scalar scanner kernels (the scalar and sse tiers' vbp_scan / hbp_scan
// slots; also the ragged-tail fallback of the vector scanners).
// ---------------------------------------------------------------------------
void VbpScanKernel(const Word* const* bases, const int* widths,
                   int num_groups, int tau, int op, const bool* c1_bits,
                   const bool* c2_bits, std::size_t n, const Word* prior,
                   Word* out, ScanCounters* counters);
void HbpScanKernel(const Word* const* bases, int num_groups, int s, int op,
                   const Word* c1_packed, const Word* c2_packed, Word md,
                   std::size_t n, const Word* prior, Word* out,
                   ScanCounters* counters);

// ---------------------------------------------------------------------------
// VBP segment transpose (vbp_pack / vbp_unpack). The scalar body is the
// Hacker's Delight recursive 64x64 transpose (five rounds over 32 words
// when k <= 32); the sse and avx2 tiers share it.
// ---------------------------------------------------------------------------
void VbpPackScalar(const std::uint64_t* codes, std::size_t n, int k,
                   Word* planes);
void VbpUnpackScalar(const Word* planes, int k, std::uint64_t* codes);

#if defined(ICP_POSPOPCNT_HAVE_AVX2)
// AVX2 variants (function-level target("avx2"); linked everywhere, selected
// via cpuid). Lane counts other than 1 and 4 fall back to the scalar body.
void CombineWordsAvx2(Word* dst, const Word* src, std::size_t n, int op);
std::uint64_t MaskedPopcountAvx2(const Word* data, std::size_t stride,
                                 int lanes, const Word* cand, std::size_t n);
// Widened-accumulator halving plan (AVX2 has no 64-bit lane multiply):
// per-word prefix steps + deferred cascade tail, flushed before overflow.
void HbpSumAvx2(const Word* const* bases, int num_groups, int s, int tau,
                int lanes, const Word* filter, std::size_t n,
                std::uint64_t* group_sums);
void VbpExtremeFoldAvx2(const Word* const* bases, const int* widths,
                        int num_groups, int tau, int lanes,
                        const Word* filter, std::size_t n, bool is_min,
                        Word* temp, FoldCounters* counters);
void HbpExtremeFoldAvx2(const Word* const* bases, int num_groups, int s,
                        int tau, int lanes, const Word* filter,
                        std::size_t n, bool is_min, Word* temp,
                        FoldCounters* counters);
// Vectorized scanners (scan_kernels.cc): 4 segments per block via masked
// 64-bit gathers, block-granular early stop.
void VbpScanAvx2(const Word* const* bases, const int* widths,
                 int num_groups, int tau, int op, const bool* c1_bits,
                 const bool* c2_bits, std::size_t n, const Word* prior,
                 Word* out, ScanCounters* counters);
void HbpScanAvx2(const Word* const* bases, int num_groups, int s, int op,
                 const Word* c1_packed, const Word* c2_packed, Word md,
                 std::size_t n, const Word* prior, Word* out,
                 ScanCounters* counters);
#endif

#if defined(ICP_POSPOPCNT_HAVE_AVX512)
// AVX-512 variants. The extreme folds are 512 bits wide only for
// lanes == 1 (8 segments per block); for lanes == 4 the fold state is one
// 256-bit register set per quad, and widening would fold two quads whose
// early stops diverge, so lanes == 4 runs the AVX2 fold.
void CombineWordsAvx512(Word* dst, const Word* src, std::size_t n, int op);
std::uint64_t MaskedPopcountAvx512(const Word* data, std::size_t stride,
                                   int lanes, const Word* cand,
                                   std::size_t n);
void VbpExtremeFoldAvx512(const Word* const* bases, const int* widths,
                          int num_groups, int tau, int lanes,
                          const Word* filter, std::size_t n, bool is_min,
                          Word* temp, FoldCounters* counters);
void HbpExtremeFoldAvx512(const Word* const* bases, int num_groups, int s,
                          int tau, int lanes, const Word* filter,
                          std::size_t n, bool is_min, Word* temp,
                          FoldCounters* counters);
// Full multiply plan per word via vpmullq (AVX512DQ) — no widened
// accumulator needed.
void HbpSumAvx512(const Word* const* bases, int num_groups, int s, int tau,
                  int lanes, const Word* filter, std::size_t n,
                  std::uint64_t* group_sums);
// Vectorized scanners (scan_kernels.cc): 8 segments per block.
void VbpScanAvx512(const Word* const* bases, const int* widths,
                   int num_groups, int tau, int op, const bool* c1_bits,
                   const bool* c2_bits, std::size_t n, const Word* prior,
                   Word* out, ScanCounters* counters);
void HbpScanAvx512(const Word* const* bases, int num_groups, int s, int op,
                   const Word* c1_packed, const Word* c2_packed, Word md,
                   std::size_t n, const Word* prior, Word* out,
                   ScanCounters* counters);
// Segment transpose by bytes: one vpermb gathers byte b of all 64 codes,
// one vgf2p8affineqb transposes the eight 8x8 bit blocks, one vpermb puts
// each plane's bytes together. Needs GFNI and AVX512_VBMI on top of the
// tier's features; a host without them runs the scalar transpose.
void VbpPackAvx512(const std::uint64_t* codes, std::size_t n, int k,
                   Word* planes);
void VbpUnpackAvx512(const Word* planes, int k, std::uint64_t* codes);
#endif

}  // namespace icp::kern

#endif  // ICP_SIMD_AGG_KERNELS_H_
