// Padded column storage: each k-bit code stored in the smallest power-of-two
// machine integer that fits it (8/16/32/64 bits).
//
// This is what mainstream column stores do without bit-level packing
// (Blink-style banks / Vectorwise-style vectors): scans and aggregates are
// plain typed loops the compiler auto-vectorizes, but k < element width
// bits of every register lane are wasted — the underutilization the paper's
// introduction quantifies. Serves as the realistic industrial baseline in
// ablation benches, alongside the one-value-per-64-bit NaiveColumn.

#ifndef ICP_LAYOUT_PADDED_COLUMN_H_
#define ICP_LAYOUT_PADDED_COLUMN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "layout/layout.h"
#include "util/aligned_buffer.h"
#include "util/bits.h"
#include "util/check.h"

namespace icp {

class PaddedColumn {
 public:
  PaddedColumn() = default;

  static PaddedColumn Pack(const std::uint64_t* codes, std::size_t n,
                           int k) {
    return PackFrom(n, k,
                    [codes](std::size_t begin, std::size_t count,
                            std::uint64_t* out) {
                      std::copy_n(codes + begin, count, out);
                    });
  }
  /// Packs `n` codes taken from `fill`, 64 at a time.
  static PaddedColumn PackFrom(std::size_t n, int k, const CodeFill& fill) {
    ICP_CHECK(k >= 1 && k <= kWordBits);
    ICP_CHECK_GE(n, 1u);
    PaddedColumn col;
    col.k_ = k;
    col.num_values_ = n;
    col.element_bits_ = k <= 8 ? 8 : k <= 16 ? 16 : k <= 32 ? 32 : 64;
    col.data_ = WordBuffer(CeilDiv(n * col.element_bits_, kWordBits));
    if (col.data_.alloc_failed()) return col;
    std::uint64_t codes[kWordBits];
    for (std::size_t begin = 0; begin < n; begin += kWordBits) {
      const std::size_t count = std::min<std::size_t>(kWordBits, n - begin);
      fill(begin, count, codes);
      for (std::size_t i = 0; i < count; ++i) {
        ICP_DCHECK(k == kWordBits || codes[i] < (std::uint64_t{1} << k));
        col.Set(begin + i, codes[i]);
      }
    }
    return col;
  }
  static PaddedColumn Pack(const std::vector<std::uint64_t>& codes, int k) {
    return Pack(codes.data(), codes.size(), k);
  }

  std::size_t num_values() const { return num_values_; }
  int bit_width() const { return k_; }
  /// Storage width per value: 8, 16, 32 or 64 bits.
  int element_bits() const { return element_bits_; }

  std::uint64_t GetValue(std::size_t i) const {
    ICP_DCHECK(i < num_values_);
    switch (element_bits_) {
      case 8:
        return As<std::uint8_t>()[i];
      case 16:
        return As<std::uint16_t>()[i];
      case 32:
        return As<std::uint32_t>()[i];
      default:
        return As<std::uint64_t>()[i];
    }
  }

  /// Typed access for the scan/aggregate loops.
  template <typename T>
  const T* As() const {
    return reinterpret_cast<const T*>(data_.data());
  }

  std::size_t MemoryBytes() const { return data_.size() * sizeof(Word); }

  bool storage_ok() const { return !data_.alloc_failed(); }

 private:
  void Set(std::size_t i, std::uint64_t v) {
    switch (element_bits_) {
      case 8:
        MutableAs<std::uint8_t>()[i] = static_cast<std::uint8_t>(v);
        break;
      case 16:
        MutableAs<std::uint16_t>()[i] = static_cast<std::uint16_t>(v);
        break;
      case 32:
        MutableAs<std::uint32_t>()[i] = static_cast<std::uint32_t>(v);
        break;
      default:
        MutableAs<std::uint64_t>()[i] = v;
        break;
    }
  }
  template <typename T>
  T* MutableAs() {
    return reinterpret_cast<T*>(data_.data());
  }

  std::size_t num_values_ = 0;
  int k_ = 0;
  int element_bits_ = 64;
  WordBuffer data_;
};

}  // namespace icp

#endif  // ICP_LAYOUT_PADDED_COLUMN_H_
