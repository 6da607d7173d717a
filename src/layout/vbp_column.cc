#include "layout/vbp_column.h"

#include <algorithm>

#include "simd/dispatch.h"

namespace icp {

VbpColumn VbpColumn::Allocate(std::size_t n, int k, Options options) {
  ICP_CHECK(k >= 1 && k <= kWordBits - 1);
  // A bit-group wider than the value is meaningless; clamp so column specs
  // can reuse one tau across columns of different widths.
  int tau = options.tau == 0 ? DefaultVbpTau(k) : options.tau;
  if (tau > k) tau = k;
  ICP_CHECK_GE(tau, 1);
  ICP_CHECK(options.lanes == 1 || options.lanes == 4);

  VbpColumn col;
  col.num_values_ = n;
  col.k_ = k;
  col.tau_ = tau;
  col.lanes_ = options.lanes;
  const std::size_t raw_segments = CeilDiv(n, kValuesPerSegment);
  col.num_segments_ =
      CeilDiv(raw_segments, options.lanes) * options.lanes;
  // num_segments_ must be >= 1 so kernels can assume non-empty columns.
  if (col.num_segments_ == 0) col.num_segments_ = options.lanes;

  const int num_groups = static_cast<int>(CeilDiv(k, tau));
  col.groups_.reserve(num_groups);
  for (int g = 0; g < num_groups; ++g) {
    const int width = g + 1 < num_groups ? tau : k - g * tau;
    col.groups_.emplace_back(col.num_segments_ * width);
  }
  return col;
}

// WordIndex(g, seg, j) without its per-call division: plane j of segment
// seg sits at (unit * width + j) * lanes + lane of its group's region.
void VbpColumn::LoadSegment(std::size_t seg, Word* planes) const {
  const std::size_t unit = lanes_ == 1 ? seg : seg / lanes_;
  const std::size_t lane = lanes_ == 1 ? 0 : seg % lanes_;
  for (int g = 0; g < num_groups(); ++g) {
    const std::size_t width = static_cast<std::size_t>(GroupWidth(g));
    const Word* words = groups_[g].data() + unit * width * lanes_ + lane;
    for (std::size_t j = 0; j < width; ++j) *planes++ = words[j * lanes_];
  }
}

void VbpColumn::StoreSegment(std::size_t seg, const Word* planes) {
  const std::size_t unit = lanes_ == 1 ? seg : seg / lanes_;
  const std::size_t lane = lanes_ == 1 ? 0 : seg % lanes_;
  for (int g = 0; g < num_groups(); ++g) {
    const std::size_t width = static_cast<std::size_t>(GroupWidth(g));
    Word* words = groups_[g].data() + unit * width * lanes_ + lane;
    for (std::size_t j = 0; j < width; ++j) words[j * lanes_] = *planes++;
  }
}

VbpColumn VbpColumn::PackFrom(std::size_t n, int k, Options options,
                              const CodeFill& fill) {
  VbpColumn col = Allocate(n, k, options);
  if (!col.storage_ok()) return col;  // caller surfaces the failed alloc
  const kern::KernelOps& ops = kern::Ops();
  std::uint64_t codes[kValuesPerSegment];
  Word planes[kWordBits];
  for (std::size_t seg = 0, begin = 0; begin < n;
       ++seg, begin += kValuesPerSegment) {
    const std::size_t count =
        std::min<std::size_t>(kValuesPerSegment, n - begin);
    fill(begin, count, codes);
    ops.vbp_pack(codes, count, k, planes);
    col.StoreSegment(seg, planes);
  }
  return col;
}

VbpColumn VbpColumn::Pack(const std::uint64_t* codes, std::size_t n, int k,
                          Options options) {
  return PackFrom(n, k, options,
                  [codes](std::size_t begin, std::size_t count,
                          std::uint64_t* out) {
                    std::copy_n(codes + begin, count, out);
                  });
}

VbpColumn VbpColumn::Interleave(int lanes) const {
  ICP_CHECK_EQ(lanes_, 1);
  VbpColumn col = Allocate(num_values_, k_, {.tau = tau_, .lanes = lanes});
  if (!col.storage_ok()) return col;
  Word planes[kWordBits];
  for (std::size_t seg = 0; seg < num_segments_; ++seg) {
    LoadSegment(seg, planes);
    col.StoreSegment(seg, planes);
  }
  return col;
}

void VbpColumn::Decode(std::size_t begin, std::size_t n,
                       std::uint64_t* out) const {
  ICP_DCHECK(begin + n <= num_values_);
  // Uncounted dispatch: group-by calls this once per 64-row segment, where
  // a shared per-call counter would cost more than the transpose.
  const kern::KernelOps& ops = kern::OpsFor(kern::ActiveTier());
  Word planes[kWordBits];
  std::uint64_t codes[kValuesPerSegment];
  while (n > 0) {
    const std::size_t seg = begin / kValuesPerSegment;
    const std::size_t first = begin % kValuesPerSegment;
    const std::size_t count = std::min<std::size_t>(n, kValuesPerSegment - first);
    LoadSegment(seg, planes);
    if (count == static_cast<std::size_t>(kValuesPerSegment)) {
      ops.vbp_unpack(planes, k_, out);
    } else {
      ops.vbp_unpack(planes, k_, codes);
      std::copy_n(codes + first, count, out);
    }
    begin += count;
    out += count;
    n -= count;
  }
}

std::uint64_t VbpColumn::GetValue(std::size_t i) const {
  ICP_DCHECK(i < num_values_);
  const std::size_t seg = i / kValuesPerSegment;
  const int bit_pos = kWordBits - 1 - static_cast<int>(i % kValuesPerSegment);
  std::uint64_t v = 0;
  for (int j = 0; j < k_; ++j) {
    const int g = j / tau_;
    const int jj = j - g * tau_;
    const Word w = groups_[g][WordIndex(g, seg, jj)];
    v |= ((w >> bit_pos) & 1) << (k_ - 1 - j);
  }
  return v;
}

std::size_t VbpColumn::MemoryBytes() const {
  std::size_t words = 0;
  for (const auto& group : groups_) words += group.size();
  return words * sizeof(Word);
}

}  // namespace icp
