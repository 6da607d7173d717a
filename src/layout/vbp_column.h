// VBP (vertical bit packing) column storage — paper Section II-A / II-C.
//
// Bit j (0 = most significant) of the 64 values of segment `seg` is one
// 64-bit word; slot i of the segment (value number i, 0-based) maps to bit
// position 63 - i, so the paper's v_1 is the MSB. Bits are clustered into
// bit-groups of `tau` bits (the last group may be narrower); the words of
// bit-group g across all segments are stored contiguously (a word-group
// region) so that a scan that early-stops after group g never touches the
// cache lines of groups g+1..B-1.

#ifndef ICP_LAYOUT_VBP_COLUMN_H_
#define ICP_LAYOUT_VBP_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "layout/layout.h"
#include "util/aligned_buffer.h"
#include "util/bits.h"
#include "util/check.h"

namespace icp {

class VbpColumn {
 public:
  struct Options {
    /// Bit-group size; 0 selects DefaultVbpTau(k) (the paper's tau = 4).
    int tau = 0;
    /// Segment interleaving factor for SIMD kernels (1 = scalar layout,
    /// 4 = AVX2-friendly: the same (group, bit) word of 4 consecutive
    /// segments is one aligned 256-bit lane group).
    int lanes = 1;
  };

  VbpColumn() = default;

  /// Packs `n` codes, each < 2^k, into VBP form: one vbp_pack transpose
  /// (simd/dispatch.h) per 64-value segment.
  static VbpColumn Pack(const std::uint64_t* codes, std::size_t n, int k,
                        Options options);
  static VbpColumn Pack(const std::uint64_t* codes, std::size_t n, int k) {
    return Pack(codes, n, k, Options());
  }
  static VbpColumn Pack(const std::vector<std::uint64_t>& codes, int k,
                        Options options) {
    return Pack(codes.data(), codes.size(), k, options);
  }
  static VbpColumn Pack(const std::vector<std::uint64_t>& codes, int k) {
    return Pack(codes.data(), codes.size(), k, Options());
  }

  /// Packs `n` codes taken from `fill` one segment at a time.
  static VbpColumn PackFrom(std::size_t n, int k, Options options,
                            const CodeFill& fill);

  /// This lanes == 1 column re-packed with `lanes` interleaved segments,
  /// built from its words (the codes are never rebuilt).
  VbpColumn Interleave(int lanes) const;

  /// Writes codes [begin, begin + n) to out[0, n), one vbp_unpack
  /// transpose per segment touched.
  void Decode(std::size_t begin, std::size_t n, std::uint64_t* out) const;

  std::size_t num_values() const { return num_values_; }
  int bit_width() const { return k_; }
  int tau() const { return tau_; }
  int lanes() const { return lanes_; }
  int num_groups() const { return static_cast<int>(groups_.size()); }

  /// Values covered by one segment (always the word width for VBP).
  static constexpr int kValuesPerSegment = kWordBits;

  /// Number of physical segments (padded up to a multiple of `lanes`;
  /// padding values are zero).
  std::size_t num_segments() const { return num_segments_; }

  /// Width in bits of bit-group g (tau for all but possibly the last group).
  int GroupWidth(int g) const {
    ICP_DCHECK(g >= 0 && g < num_groups());
    return g + 1 < num_groups() ? tau_ : k_ - g * tau_;
  }

  const Word* GroupData(int g) const { return groups_[g].data(); }
  std::size_t GroupWordCount(int g) const { return groups_[g].size(); }

  /// Index within GroupData(g) of the word holding bit `j` (0-based within
  /// the group, 0 = most significant bit of the group) of segment `seg`.
  std::size_t WordIndex(int g, std::size_t seg, int j) const {
    ICP_DCHECK(j >= 0 && j < GroupWidth(g));
    return ((seg / lanes_) * GroupWidth(g) + j) * lanes_ + (seg % lanes_);
  }

  Word WordAt(int g, std::size_t seg, int j) const {
    return groups_[g][WordIndex(g, seg, j)];
  }

  /// Reconstructs value i to plain form (slow; tests and NBP baseline).
  std::uint64_t GetValue(std::size_t i) const;

  /// Total packed size in bytes (all word-group regions).
  std::size_t MemoryBytes() const;

  /// False when any word-group allocation failed (see
  /// WordBuffer::alloc_failed); the column is then empty and unusable.
  bool storage_ok() const {
    for (const WordBuffer& group : groups_) {
      if (group.alloc_failed()) return false;
    }
    return true;
  }

 private:
  // A zeroed column of the given shape (storage_ok() false when an
  // allocation failed).
  static VbpColumn Allocate(std::size_t n, int k, Options options);
  // Plane words of segment `seg` (k of them, most significant first)
  // from/to the word-group regions.
  void LoadSegment(std::size_t seg, Word* planes) const;
  void StoreSegment(std::size_t seg, const Word* planes);

  std::size_t num_values_ = 0;
  std::size_t num_segments_ = 0;
  int k_ = 0;
  int tau_ = 0;
  int lanes_ = 1;
  std::vector<WordBuffer> groups_;  // one contiguous region per bit-group
};

}  // namespace icp

#endif  // ICP_LAYOUT_VBP_COLUMN_H_
