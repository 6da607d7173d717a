// Naive column storage: one k-bit code zero-padded into each 64-bit word
// (the underutilized-register baseline the paper's introduction motivates).
// Used as the reference implementation in tests and as an ablation baseline.

#ifndef ICP_LAYOUT_NAIVE_COLUMN_H_
#define ICP_LAYOUT_NAIVE_COLUMN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "layout/layout.h"
#include "util/aligned_buffer.h"
#include "util/bits.h"
#include "util/check.h"

namespace icp {

class NaiveColumn {
 public:
  NaiveColumn() = default;

  static NaiveColumn Pack(const std::uint64_t* codes, std::size_t n, int k) {
    return PackFrom(n, k,
                    [codes](std::size_t begin, std::size_t count,
                            std::uint64_t* out) {
                      std::copy_n(codes + begin, count, out);
                    });
  }
  /// Packs `n` codes taken from `fill` (straight into the column's words).
  static NaiveColumn PackFrom(std::size_t n, int k, const CodeFill& fill) {
    ICP_CHECK(k >= 1 && k <= kWordBits);
    NaiveColumn col;
    col.k_ = k;
    col.values_ = WordBuffer(n == 0 ? 1 : n);
    col.num_values_ = n;
    if (col.values_.alloc_failed()) return col;
    for (std::size_t begin = 0; begin < n; begin += kWordBits) {
      fill(begin, std::min<std::size_t>(kWordBits, n - begin),
           col.values_.data() + begin);
    }
    return col;
  }
  static NaiveColumn Pack(const std::vector<std::uint64_t>& codes, int k) {
    return Pack(codes.data(), codes.size(), k);
  }

  std::size_t num_values() const { return num_values_; }
  int bit_width() const { return k_; }

  std::uint64_t GetValue(std::size_t i) const {
    ICP_DCHECK(i < num_values_);
    return values_[i];
  }
  const Word* data() const { return values_.data(); }

  std::size_t MemoryBytes() const { return values_.size() * sizeof(Word); }

  bool storage_ok() const { return !values_.alloc_failed(); }

 private:
  std::size_t num_values_ = 0;
  int k_ = 0;
  WordBuffer values_;
};

}  // namespace icp

#endif  // ICP_LAYOUT_NAIVE_COLUMN_H_
