// Order-preserving encoding of column values into unsigned k-bit codes.
//
// The paper's algorithms aggregate unsigned integers; realistic column types
// (signed ints, decimals with fixed scale, dates, low-cardinality strings)
// are mapped to codes with an order-preserving scheme (paper Section III,
// footnote 3, citing [7]):
//
//   * RangeEncoder  — code = value - min; k = bits(max - min). SUM/AVG/
//     MIN/MAX/MEDIAN of the original values can be recovered from aggregates
//     over codes (sum = code_sum + count * min, etc.).
//   * DictionaryEncoder — code = rank of the value in the sorted domain.
//     Order-preserving, so range predicates map to code ranges; only
//     MIN/MAX/MEDIAN/COUNT are decodable (SUM of ranks is meaningless).
//
// Encoding a predicate constant that falls outside (or between) domain
// values needs care: EncodeLowerBound/EncodeUpperBound map an arbitrary
// constant to the tightest code-domain bound with identical filter
// semantics, and report when the predicate degenerates.

#ifndef ICP_ENCODE_COLUMN_ENCODER_H_
#define ICP_ENCODE_COLUMN_ENCODER_H_

#include <cstdint>
#include <vector>

#include "util/bits.h"
#include "util/check.h"
#include "util/status.h"

namespace icp {

/// Where a constant lands relative to the encodable domain.
enum class ConstantBound {
  kBelowDomain,  // constant < every encodable value
  kInDomain,     // exact or in-between mapping succeeded
  kAboveDomain,  // constant > every encodable value
};

class ColumnEncoder {
 public:
  ColumnEncoder() = default;

  /// Builds a range encoder for values in [min_value, max_value].
  static ColumnEncoder ForRange(std::int64_t min_value,
                                std::int64_t max_value);

  /// Builds a range encoder with an explicit bit width (>= required width).
  static ColumnEncoder ForRangeWithWidth(std::int64_t min_value,
                                         std::int64_t max_value,
                                         int bit_width);

  /// Builds a dictionary encoder over the distinct values of `values`.
  static ColumnEncoder ForDictionary(const std::vector<std::int64_t>& values);

  /// Fits a range encoder to the min/max of `values`.
  static ColumnEncoder FitRange(const std::vector<std::int64_t>& values);

  bool is_dictionary() const { return !dictionary_.empty(); }
  int bit_width() const { return bit_width_; }

  /// Number of valid codes: dictionary entries, or max - min + 1 for a
  /// range encoder (codes are dense in [0, num_codes())).
  std::uint64_t num_codes() const {
    if (is_dictionary()) return dictionary_.size();
    return static_cast<std::uint64_t>(max_value_) -
           static_cast<std::uint64_t>(min_value_) + 1;
  }
  std::int64_t min_value() const { return min_value_; }
  std::int64_t max_value() const { return max_value_; }

  /// Encodes a value known to be in-domain (aborts otherwise).
  std::uint64_t Encode(std::int64_t value) const;

  /// Decodes a code back to the original value domain.
  std::int64_t Decode(std::uint64_t code) const;

  /// Maps `constant` to the smallest code whose decoded value is >= constant
  /// (for predicates of the form v >= constant). Returns kAboveDomain if no
  /// such code exists.
  ConstantBound EncodeLowerBound(std::int64_t constant,
                                 std::uint64_t* code) const;

  /// Maps `constant` to the largest code whose decoded value is <= constant
  /// (for predicates of the form v <= constant). Returns kBelowDomain if no
  /// such code exists.
  ConstantBound EncodeUpperBound(std::int64_t constant,
                                 std::uint64_t* code) const;

  /// Maps `constant` to its exact code (for equality predicates). Returns
  /// false if the constant is not an encodable value.
  bool EncodeExact(std::int64_t constant, std::uint64_t* code) const;

 private:
  std::int64_t min_value_ = 0;
  std::int64_t max_value_ = 0;
  int bit_width_ = 1;
  std::vector<std::int64_t> dictionary_;  // sorted; empty => range encoder
};

}  // namespace icp

#endif  // ICP_ENCODE_COLUMN_ENCODER_H_
