// HBP (horizontal bit packing) column storage — paper Section II-B / II-C.
//
// A code is zero-extended to B*tau bits and split into B = ceil(k/tau)
// bit-groups of exactly tau bits (group 0 is the most significant). Each
// bit-group value occupies an s = tau+1 bit field whose top (delimiter) bit
// is 0 in the data; a word holds m = floor(64/s) fields packed from the MSB
// end (low 64 - m*s bits are zero padding). The B words holding all bits of
// the same m values form a *sub-segment*; s consecutive sub-segments form a
// *segment* covering vps = s*m values.
//
// Values are packed column-first (paper Fig. 3a): value r of a segment
// (0-based) lives in sub-segment t = r % s at slot f = r / s. With that
// ordering, the delimiter-bit result mask of sub-segment t, shifted right by
// t, lands exactly on that sub-segment's tuples' positions in the segment's
// filter word, and conversely the per-sub-segment delimiter filter is
// M_d = (F << t) & DelimiterMask (paper's GET-VALUE-FILTER step 1).
//
// Like VBP, the words of bit-group g across all (segment, sub-segment)
// pairs are stored in one contiguous word-group region for early stopping.

#ifndef ICP_LAYOUT_HBP_COLUMN_H_
#define ICP_LAYOUT_HBP_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "layout/layout.h"
#include "util/aligned_buffer.h"
#include "util/bits.h"
#include "util/check.h"

namespace icp {

class HbpColumn {
 public:
  struct Options {
    /// Bit-group size; 0 selects DefaultHbpTau(k).
    int tau = 0;
    /// Segment interleaving factor (1 = scalar, 4 = AVX2 lanes).
    int lanes = 1;
  };

  HbpColumn() = default;

  /// Packs `n` codes, each < 2^k, into HBP form.
  static HbpColumn Pack(const std::uint64_t* codes, std::size_t n, int k,
                        Options options);
  static HbpColumn Pack(const std::uint64_t* codes, std::size_t n, int k) {
    return Pack(codes, n, k, Options());
  }
  static HbpColumn Pack(const std::vector<std::uint64_t>& codes, int k,
                        Options options) {
    return Pack(codes.data(), codes.size(), k, options);
  }
  static HbpColumn Pack(const std::vector<std::uint64_t>& codes, int k) {
    return Pack(codes.data(), codes.size(), k, Options());
  }

  /// Packs `n` codes taken from `fill` one segment at a time.
  static HbpColumn PackFrom(std::size_t n, int k, Options options,
                            const CodeFill& fill);

  /// This lanes == 1 column re-packed with `lanes` interleaved segments,
  /// built from its words (the codes are never rebuilt).
  HbpColumn Interleave(int lanes) const;

  /// Writes codes [begin, begin + n) to out[0, n), unpacking the fields
  /// of each segment touched.
  void Decode(std::size_t begin, std::size_t n, std::uint64_t* out) const;

  std::size_t num_values() const { return num_values_; }
  int bit_width() const { return k_; }
  int tau() const { return tau_; }
  int lanes() const { return lanes_; }
  int num_groups() const { return num_groups_; }

  /// Field width s = tau + 1 (value bits + delimiter).
  int field_width() const { return tau_ + 1; }
  /// Fields (slots) per word, m.
  int fields_per_word() const { return fields_per_word_; }
  /// Sub-segments per segment (equals the field width s).
  int sub_segments_per_segment() const { return field_width(); }
  /// Values covered by one segment, vps = s * m.
  int values_per_segment() const { return field_width() * fields_per_word_; }

  std::size_t num_segments() const { return num_segments_; }

  const Word* GroupData(int g) const { return groups_[g].data(); }
  std::size_t GroupWordCount(int g) const { return groups_[g].size(); }

  /// Index within GroupData(g) of sub-segment `t` of segment `seg`.
  /// (Identical for every group g — the parameter documents intent and keeps
  /// the call shape symmetric with VbpColumn::WordIndex.)
  std::size_t WordIndex([[maybe_unused]] int g, std::size_t seg, int t) const {
    ICP_DCHECK(t >= 0 && t < sub_segments_per_segment());
    return ((seg / lanes_) * field_width() + t) * lanes_ + (seg % lanes_);
  }

  Word WordAt(int g, std::size_t seg, int t) const {
    return groups_[g][WordIndex(g, seg, t)];
  }

  /// Left-shift that returns bit-group g to its numeric position when
  /// reconstructing: v = sum_g group_value(g) << GroupShift(g).
  int GroupShift(int g) const { return (num_groups_ - 1 - g) * tau_; }

  /// Reconstructs value i to plain form (slow; tests and NBP baseline).
  std::uint64_t GetValue(std::size_t i) const;

  /// Total packed size in bytes.
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
  static HbpColumn Allocate(std::size_t n, int k, Options options);
  // The values_per_segment() codes of segment `seg` from/to its words.
  void LoadSegment(std::size_t seg, std::uint64_t* codes) const;
  void StoreSegment(std::size_t seg, const std::uint64_t* codes);

  std::size_t num_values_ = 0;
  std::size_t num_segments_ = 0;
  int k_ = 0;
  int tau_ = 0;
  int num_groups_ = 0;
  int fields_per_word_ = 0;
  int lanes_ = 1;
  std::vector<WordBuffer> groups_;
};

}  // namespace icp

#endif  // ICP_LAYOUT_HBP_COLUMN_H_
