// Shared storage-layout vocabulary (Section II of the paper).
//
// A column of n unsigned k-bit codes is stored in one of three layouts:
//
//  * VBP (vertical bit packing, Fig. 2/4a): bit j of 64 consecutive values
//    forms one word; a *segment* covers 64 values and conceptually owns k
//    words. Bits are clustered into *bit-groups* of size tau; the words of
//    one bit-group across all segments form a contiguous *word-group* region
//    so that early stopping skips whole cache lines.
//
//  * HBP (horizontal bit packing, Fig. 3/4b): values are split into
//    B = ceil(k/tau) bit-groups of exactly tau bits (the code is
//    zero-extended at the top); each bit-group value is stored in an
//    s = tau+1 bit *field* whose top bit is the delimiter. A word holds
//    m = floor(64/s) fields; a *sub-segment* is the B words (one per
//    word-group) holding all bits of m values; a *segment* is s consecutive
//    sub-segments and covers vps = s*m values. Values are packed
//    "column-first": value r of a segment lives in sub-segment r % s,
//    slot r / s, which makes the filter bit vector assembly a shift + OR.
//
//  * Naive: one code per 64-bit word (baseline layout).
//
// The `lanes` option interleaves the words of `lanes` consecutive segments
// so 256-bit SIMD kernels can load the same (bit, sub-segment) word of four
// segments with one aligned load. lanes == 1 is the plain scalar layout.
//
// The packing is the only copy of a column's codes: the packers take the
// codes one segment at a time from a CodeFill, and every reader that needs
// plain codes back (group-by, serialization) decodes a segment at a time
// from the packing (VbpColumn::Decode / HbpColumn::Decode).

#ifndef ICP_LAYOUT_LAYOUT_H_
#define ICP_LAYOUT_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace icp {

/// Producer of the codes a packer packs: fill(begin, n, out) writes codes
/// [begin, begin + n) of the column to out[0, n). The packers call it once
/// per segment, in row order, so a column is built without ever holding
/// more than one segment of plain codes.
using CodeFill =
    std::function<void(std::size_t begin, std::size_t n, std::uint64_t* out)>;

enum class Layout {
  kVbp,
  kHbp,
  kNaive,
  // Smallest-fitting power-of-two element width (8/16/32/64 bits): the
  // mainstream padded baseline (Blink banks / Vectorwise vectors).
  kPadded,
};

/// Human-readable layout name ("VBP", "HBP", "Naive").
const char* LayoutToString(Layout layout);

/// Default VBP bit-group size. The paper adopts the empirically optimal
/// tau = 4 from BitWeaving and confirms it (footnote 4).
int DefaultVbpTau(int k);

/// Default HBP bit-group size: minimizes words-touched-per-value
/// ceil(k/tau) / floor(64/(tau+1)), tie-breaking toward more fields per word
/// (more intra-word parallelism) and then smaller tau (smaller MEDIAN
/// histograms). This stands in for the paper's analytical model in the
/// unavailable technical report [14]; the bench_ablation_tau harness sweeps
/// tau to validate the choice.
int DefaultHbpTau(int k);

}  // namespace icp

#endif  // ICP_LAYOUT_LAYOUT_H_
