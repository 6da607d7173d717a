#include "layout/hbp_column.h"

#include <algorithm>

namespace icp {

HbpColumn HbpColumn::Allocate(std::size_t n, int k, Options options) {
  ICP_CHECK(k >= 1 && k <= kWordBits - 1);
  const int tau = options.tau == 0 ? DefaultHbpTau(k) : options.tau;
  ICP_CHECK(tau >= 1 && tau <= kWordBits - 1);
  ICP_CHECK(options.lanes == 1 || options.lanes == 4);

  HbpColumn col;
  col.num_values_ = n;
  col.k_ = k;
  col.tau_ = tau;
  col.lanes_ = options.lanes;
  col.num_groups_ = static_cast<int>(CeilDiv(k, tau));
  const int s = tau + 1;
  col.fields_per_word_ = kWordBits / s;
  ICP_CHECK_GE(col.fields_per_word_, 1);

  const int vps = s * col.fields_per_word_;
  const std::size_t raw_segments = CeilDiv(n, vps);
  col.num_segments_ = CeilDiv(raw_segments, options.lanes) * options.lanes;
  if (col.num_segments_ == 0) col.num_segments_ = options.lanes;

  col.groups_.reserve(col.num_groups_);
  for (int g = 0; g < col.num_groups_; ++g) {
    col.groups_.emplace_back(col.num_segments_ * s);
  }
  return col;
}

// Value r of a segment sits in sub-segment t = r % s, field f = r / s, so
// walking fields in the outer loop and sub-segments in the inner one visits
// r = f*s + t in order with no division.
void HbpColumn::StoreSegment(std::size_t seg, const std::uint64_t* codes) {
  const int s = field_width();
  const Word group_mask = LowMask(tau_);
  const std::size_t base = WordIndex(0, seg, 0);  // the same in every group
  for (int g = 0; g < num_groups_; ++g) {
    Word* words = groups_[g].data() + base;
    const int shift = GroupShift(g);
    Word sub[kWordBits] = {};
    const std::uint64_t* code = codes;
    for (int field_shift = kWordBits - s; field_shift >= kWordBits % s;
         field_shift -= s) {
      for (int t = 0; t < s; ++t) {
        sub[t] |= ((*code++ >> shift) & group_mask) << field_shift;
      }
    }
    for (int t = 0; t < s; ++t) words[t * lanes_] = sub[t];
  }
}

void HbpColumn::LoadSegment(std::size_t seg, std::uint64_t* codes) const {
  const int s = field_width();
  const int vps = values_per_segment();
  const Word group_mask = LowMask(tau_);
  std::fill_n(codes, vps, 0);
  const std::size_t base = WordIndex(0, seg, 0);  // the same in every group
  for (int g = 0; g < num_groups_; ++g) {
    const Word* words = groups_[g].data() + base;
    const int shift = GroupShift(g);
    std::uint64_t* code = codes;
    for (int field_shift = kWordBits - s; field_shift >= kWordBits % s;
         field_shift -= s) {
      for (int t = 0; t < s; ++t) {
        *code++ |= ((words[t * lanes_] >> field_shift) & group_mask) << shift;
      }
    }
  }
}

HbpColumn HbpColumn::PackFrom(std::size_t n, int k, Options options,
                              const CodeFill& fill) {
  HbpColumn col = Allocate(n, k, options);
  if (!col.storage_ok()) return col;  // caller surfaces the failed alloc
  const std::size_t vps = static_cast<std::size_t>(col.values_per_segment());
  std::uint64_t codes[kWordBits];
  for (std::size_t seg = 0, begin = 0; begin < n; ++seg, begin += vps) {
    const std::size_t count = std::min(vps, n - begin);
    fill(begin, count, codes);
    std::fill(codes + count, codes + vps, 0);  // ragged tail: zero fields
    col.StoreSegment(seg, codes);
  }
  return col;
}

HbpColumn HbpColumn::Pack(const std::uint64_t* codes, std::size_t n, int k,
                          Options options) {
  return PackFrom(n, k, options,
                  [codes](std::size_t begin, std::size_t count,
                          std::uint64_t* out) {
                    std::copy_n(codes + begin, count, out);
                  });
}

HbpColumn HbpColumn::Interleave(int lanes) const {
  ICP_CHECK_EQ(lanes_, 1);
  HbpColumn col = Allocate(num_values_, k_, {.tau = tau_, .lanes = lanes});
  if (!col.storage_ok()) return col;
  const int s = field_width();
  for (std::size_t seg = 0; seg < num_segments_; ++seg) {
    for (int g = 0; g < num_groups_; ++g) {
      const Word* from = groups_[g].data() + WordIndex(g, seg, 0);
      Word* to = col.groups_[g].data() + col.WordIndex(g, seg, 0);
      for (int t = 0; t < s; ++t) to[t * lanes] = from[t];
    }
  }
  return col;
}

void HbpColumn::Decode(std::size_t begin, std::size_t n,
                       std::uint64_t* out) const {
  ICP_DCHECK(begin + n <= num_values_);
  const std::size_t vps = static_cast<std::size_t>(values_per_segment());
  std::uint64_t codes[kWordBits];
  std::size_t seg = begin / vps;
  std::size_t first = begin % vps;
  while (n > 0) {
    const std::size_t count = std::min(n, vps - first);
    LoadSegment(seg, codes);
    std::copy_n(codes + first, count, out);
    out += count;
    n -= count;
    ++seg;
    first = 0;
  }
}

std::uint64_t HbpColumn::GetValue(std::size_t i) const {
  ICP_DCHECK(i < num_values_);
  const int s = field_width();
  const int vps = values_per_segment();
  const std::size_t seg = i / vps;
  const int r = static_cast<int>(i % vps);
  const int t = r % s;
  const int f = r / s;
  const int field_shift = kWordBits - (f + 1) * s;
  const Word group_mask = LowMask(tau_);
  std::uint64_t v = 0;
  for (int g = 0; g < num_groups_; ++g) {
    const Word group_value =
        (groups_[g][WordIndex(g, seg, t)] >> field_shift) & group_mask;
    v |= group_value << GroupShift(g);
  }
  return v;
}

std::size_t HbpColumn::MemoryBytes() const {
  std::size_t words = 0;
  for (const auto& group : groups_) words += group.size();
  return words * sizeof(Word);
}

}  // namespace icp
