#include "encode/column_encoder.h"

#include <algorithm>

namespace icp {

ColumnEncoder ColumnEncoder::ForRange(std::int64_t min_value,
                                      std::int64_t max_value) {
  ICP_CHECK_LE(min_value, max_value);
  const std::uint64_t span = static_cast<std::uint64_t>(max_value) -
                             static_cast<std::uint64_t>(min_value);
  return ForRangeWithWidth(min_value, max_value, BitsFor(span));
}

ColumnEncoder ColumnEncoder::ForRangeWithWidth(std::int64_t min_value,
                                               std::int64_t max_value,
                                               int bit_width) {
  ICP_CHECK_LE(min_value, max_value);
  const std::uint64_t span = static_cast<std::uint64_t>(max_value) -
                             static_cast<std::uint64_t>(min_value);
  ICP_CHECK_GE(bit_width, BitsFor(span));
  ICP_CHECK_LE(bit_width, kWordBits - 1);
  ColumnEncoder enc;
  enc.min_value_ = min_value;
  enc.max_value_ = max_value;
  enc.bit_width_ = bit_width;
  return enc;
}

ColumnEncoder ColumnEncoder::ForDictionary(
    const std::vector<std::int64_t>& values) {
  ICP_CHECK(!values.empty());
  ColumnEncoder enc;
  enc.dictionary_ = values;
  std::sort(enc.dictionary_.begin(), enc.dictionary_.end());
  enc.dictionary_.erase(
      std::unique(enc.dictionary_.begin(), enc.dictionary_.end()),
      enc.dictionary_.end());
  enc.min_value_ = enc.dictionary_.front();
  enc.max_value_ = enc.dictionary_.back();
  enc.bit_width_ = BitsFor(enc.dictionary_.size() - 1);
  return enc;
}

ColumnEncoder ColumnEncoder::FitRange(
    const std::vector<std::int64_t>& values) {
  ICP_CHECK(!values.empty());
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return ForRange(*lo, *hi);
}

std::uint64_t ColumnEncoder::Encode(std::int64_t value) const {
  if (is_dictionary()) {
    const auto it =
        std::lower_bound(dictionary_.begin(), dictionary_.end(), value);
    ICP_CHECK(it != dictionary_.end() && *it == value);
    return static_cast<std::uint64_t>(it - dictionary_.begin());
  }
  ICP_CHECK(value >= min_value_ && value <= max_value_);
  return static_cast<std::uint64_t>(value) -
         static_cast<std::uint64_t>(min_value_);
}

std::int64_t ColumnEncoder::Decode(std::uint64_t code) const {
  if (is_dictionary()) {
    ICP_CHECK_LT(code, dictionary_.size());
    return dictionary_[code];
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(min_value_) +
                                   code);
}

ConstantBound ColumnEncoder::EncodeLowerBound(std::int64_t constant,
                                              std::uint64_t* code) const {
  if (is_dictionary()) {
    const auto it =
        std::lower_bound(dictionary_.begin(), dictionary_.end(), constant);
    if (it == dictionary_.end()) return ConstantBound::kAboveDomain;
    *code = static_cast<std::uint64_t>(it - dictionary_.begin());
    return constant < dictionary_.front() ? ConstantBound::kBelowDomain
                                          : ConstantBound::kInDomain;
  }
  if (constant > max_value_) return ConstantBound::kAboveDomain;
  if (constant < min_value_) {
    *code = 0;
    return ConstantBound::kBelowDomain;
  }
  *code = Encode(constant);
  return ConstantBound::kInDomain;
}

ConstantBound ColumnEncoder::EncodeUpperBound(std::int64_t constant,
                                              std::uint64_t* code) const {
  if (is_dictionary()) {
    // Largest dictionary entry <= constant.
    const auto it =
        std::upper_bound(dictionary_.begin(), dictionary_.end(), constant);
    if (it == dictionary_.begin()) return ConstantBound::kBelowDomain;
    *code = static_cast<std::uint64_t>((it - dictionary_.begin()) - 1);
    return constant > dictionary_.back() ? ConstantBound::kAboveDomain
                                         : ConstantBound::kInDomain;
  }
  if (constant < min_value_) return ConstantBound::kBelowDomain;
  if (constant > max_value_) {
    *code = Encode(max_value_);
    return ConstantBound::kAboveDomain;
  }
  *code = Encode(constant);
  return ConstantBound::kInDomain;
}

bool ColumnEncoder::EncodeExact(std::int64_t constant,
                                std::uint64_t* code) const {
  if (is_dictionary()) {
    const auto it =
        std::lower_bound(dictionary_.begin(), dictionary_.end(), constant);
    if (it == dictionary_.end() || *it != constant) return false;
    *code = static_cast<std::uint64_t>(it - dictionary_.begin());
    return true;
  }
  if (constant < min_value_ || constant > max_value_) return false;
  *code = Encode(constant);
  return true;
}

}  // namespace icp
