// Table: a set of named, encoded, bit-packed columns.
//
// This is the wide-table abstraction the paper adopts from [11]/[12]: joins
// and group-bys are assumed to have been denormalized/materialized away, so
// every query is a filter scan over some columns plus an aggregate over one
// column. Each column chooses its layout (VBP/HBP/padded/naive), bit-group
// size and bit width at load time.
//
// The packing is the only copy of a column. Loading encodes and packs one
// segment at a time (AddColumn encodes values as the packer asks for them;
// io::ReadTable hands AddCodedColumn the codes it unpacks from the file's
// k-bit stream), so no full-column array of plain codes is ever built.
// Readers that need plain codes back — serialization, and group-by over
// columns that are not VBP — call Column::DecodeCodes, which reconstructs
// them a segment at a time from the packing; group-by reads a VBP column's
// passing rows straight from its planes (groupby::CodeSource). The
// lanes == 4 SIMD packing of a column is built lazily, by interleaving the
// words of the lanes == 1 packing, the first time a SIMD execution needs
// it.

#ifndef ICP_ENGINE_TABLE_H_
#define ICP_ENGINE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bitvector/filter_bit_vector.h"
#include "encode/column_encoder.h"
#include "layout/hbp_column.h"
#include "layout/layout.h"
#include "layout/naive_column.h"
#include "layout/padded_column.h"
#include "layout/vbp_column.h"
#include "util/status.h"

namespace icp {

/// Per-column storage configuration.
struct ColumnSpec {
  Layout layout = Layout::kVbp;
  /// Bit-group size; 0 = layout default (VBP: 4, HBP: analytic choice).
  int tau = 0;
  /// Code width; 0 = narrowest width that fits the value range.
  int bit_width = 0;
  /// Use an order-preserving dictionary instead of range encoding
  /// (for sparse domains; disables SUM/AVG decoding).
  bool dictionary = false;
};

class Table {
 public:
  Table() = default;

  /// Adds a column of raw values; they are encoded to unsigned codes and
  /// packed according to `spec`. All columns must have the same row count.
  Status AddColumn(const std::string& name,
                   const std::vector<std::int64_t>& values, ColumnSpec spec);

  /// Adds a nullable column: rows whose `valid` bit is false are NULL.
  /// NULLs are stored as code 0 but never pass a predicate and never
  /// contribute to an aggregate (the bit-slice validity technique of
  /// O'Neil & Quass [10], which the paper defers NULL handling to).
  Status AddNullableColumn(const std::string& name,
                           const std::vector<std::int64_t>& values,
                           const std::vector<bool>& valid, ColumnSpec spec);

  /// Adds a pre-encoded column (codes already in [0, 2^bit_width)). The
  /// encoder is the identity range encoder over [0, 2^bit_width).
  Status AddEncodedColumn(const std::string& name,
                          const std::vector<std::uint64_t>& codes,
                          int bit_width, ColumnSpec spec);

  /// Adds a column of `num_rows` codes already encoded with `encoder`:
  /// `fill` (see CodeFill) produces them, each < 2^encoder.bit_width(),
  /// one segment at a time as they are packed. `valid`, when non-null,
  /// marks the non-NULL rows (NULL rows must carry code 0).
  Status AddCodedColumn(const std::string& name, std::size_t num_rows,
                        ColumnSpec spec, ColumnEncoder encoder,
                        const CodeFill& fill,
                        const std::vector<bool>* valid = nullptr);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_columns() const { return columns_.size(); }
  std::vector<std::string> column_names() const;

  /// Column handle used by the engine.
  class Column {
   public:
    const std::string& name() const { return name_; }
    const ColumnSpec& spec() const { return spec_; }
    const ColumnEncoder& encoder() const { return encoder_; }
    int bit_width() const { return encoder_.bit_width(); }

    /// Tuples covered by one filter segment for this column's layout.
    int values_per_segment() const;

    const VbpColumn& vbp() const { return vbp_; }
    const HbpColumn& hbp() const { return hbp_; }
    const NaiveColumn& naive() const { return naive_; }
    const PaddedColumn& padded() const { return padded_; }

    /// Lazily-built SIMD (lanes == 4) packings.
    const VbpColumn& vbp_simd() const;
    const HbpColumn& hbp_simd() const;

    /// True if the column can contain NULLs.
    bool nullable() const { return nullable_; }
    /// Validity bit vector (1 = non-NULL), shaped like this column's filter
    /// segments. Only meaningful when nullable().
    const FilterBitVector& validity() const { return validity_; }

    /// Writes the codes of rows [begin, begin + n) to out[0, n), decoded
    /// from the packing (NULL rows read as code 0).
    void DecodeCodes(std::size_t begin, std::size_t n,
                     std::uint64_t* out) const;

    /// Packed size of the primary (scalar) packing, in bytes.
    std::size_t MemoryBytes() const;

   private:
    friend class Table;

    std::string name_;
    ColumnSpec spec_;
    ColumnEncoder encoder_;
    VbpColumn vbp_;
    HbpColumn hbp_;
    NaiveColumn naive_;
    PaddedColumn padded_;
    mutable VbpColumn vbp_simd_;
    mutable HbpColumn hbp_simd_;
    mutable bool has_vbp_simd_ = false;
    mutable bool has_hbp_simd_ = false;
    bool nullable_ = false;
    FilterBitVector validity_;
  };

  /// Looks up a column by name.
  StatusOr<const Column*> GetColumn(const std::string& name) const;

 private:
  std::size_t num_rows_ = 0;
  // unique_ptr keeps Column* handles stable across AddColumn calls.
  std::vector<std::unique_ptr<Column>> columns_;
};

}  // namespace icp

#endif  // ICP_ENGINE_TABLE_H_
