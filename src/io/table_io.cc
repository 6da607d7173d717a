#include "io/table_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "obs/obs.h"
#include "util/backoff.h"
#include "util/bits.h"
#include "util/failpoint.h"

namespace icp::io {
namespace {

constexpr char kMagic[8] = {'I', 'C', 'P', 'T', 'B', 'L', '0', '1'};

// Streaming FNV-1a (64-bit).
class Checksum {
 public:
  void Update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

class Writer {
 public:
  explicit Writer(const std::string& path)
      : out_(path, std::ios::binary | std::ios::trunc) {}

  bool ok() const { return out_.good(); }

  void Raw(const void* data, std::size_t size) {
    // "table_io/write" simulates a short/failed write (disk full, I/O
    // error): the stream goes bad and WriteTable discards the temp file.
    if (ICP_FAILPOINT("table_io/write")) {
      out_.setstate(std::ios::badbit);
      return;
    }
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    checksum_.Update(data, size);
  }
  void U8(std::uint8_t v) { Raw(&v, 1); }
  void U32(std::uint32_t v) { Raw(&v, 4); }
  void U64(std::uint64_t v) { Raw(&v, 8); }
  void I32(std::int32_t v) { Raw(&v, 4); }
  void I64(std::int64_t v) { Raw(&v, 8); }
  void String(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Finish() {
    const std::uint64_t sum = checksum_.value();
    out_.write(reinterpret_cast<const char*>(&sum), 8);
    out_.flush();
  }
  void Close() { out_.close(); }

 private:
  std::ofstream out_;
  Checksum checksum_;
};

// fsync of an already-written file by path. Returns false on any failure
// (or when the "table_io/fsync" failpoint fires).
bool SyncFile(const std::string& path) {
  if (ICP_FAILPOINT("table_io/fsync")) return false;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// fsync of the directory containing `path`, making the rename durable.
bool SyncParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

class Reader {
 public:
  explicit Reader(const std::string& path) : in_(path, std::ios::binary) {
    if (in_.good()) {
      in_.seekg(0, std::ios::end);
      const auto end = in_.tellg();
      file_size_ = end < 0 ? 0 : static_cast<std::uint64_t>(end);
      in_.seekg(0, std::ios::beg);
    }
  }

  bool ok() const { return !failed_ && in_.good(); }
  bool failed() const { return failed_; }

  /// Bytes of file left unread. Every length/count field must be checked
  /// against this before allocating, so a corrupt count can never trigger a
  /// huge allocation or an unbounded read.
  std::uint64_t remaining() const {
    return consumed_ <= file_size_ ? file_size_ - consumed_ : 0;
  }

  void Raw(void* data, std::size_t size) {
    // "table_io/read" simulates an I/O error mid-file (bad sector, NFS
    // hiccup): the read fails exactly like a truncated file.
    if (ICP_FAILPOINT("table_io/read")) {
      failed_ = true;
      std::memset(data, 0, size);
      return;
    }
    // "table_io/read_transient" simulates a retryable error (EINTR, NFS
    // timeout): re-reading the same bytes is idempotent, so retry with
    // jittered backoff up to kIoMaxAttempts before failing like a hard
    // error.
    int attempt = 1;
    while (ICP_FAILPOINT("table_io/read_transient")) {
      if (attempt >= kIoMaxAttempts) {
        failed_ = true;
        std::memset(data, 0, size);
        return;
      }
      // obs: loop-ok — bounded retry loop (at most kIoMaxAttempts
      // iterations), not a data-plane word loop.
      ICP_OBS_INCREMENT(IoRetries);
      SleepForRetry(attempt++);
    }
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
    if (in_.gcount() != static_cast<std::streamsize>(size)) {
      failed_ = true;
      std::memset(data, 0, size);
      return;
    }
    consumed_ += size;
    checksum_.Update(data, size);
  }
  std::uint8_t U8() {
    std::uint8_t v = 0;
    Raw(&v, 1);
    return v;
  }
  std::uint32_t U32() {
    std::uint32_t v = 0;
    Raw(&v, 4);
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t v = 0;
    Raw(&v, 8);
    return v;
  }
  std::int32_t I32() {
    std::int32_t v = 0;
    Raw(&v, 4);
    return v;
  }
  std::int64_t I64() {
    std::int64_t v = 0;
    Raw(&v, 8);
    return v;
  }
  std::string String(std::size_t max_size = 1 << 20) {
    const std::uint32_t size = U32();
    if (size > max_size || size > remaining()) {
      failed_ = true;
      return {};
    }
    std::string s(size, '\0');
    Raw(s.data(), size);
    return s;
  }

  /// Verifies the trailing checksum (call after all payload reads).
  bool VerifyChecksum() {
    const std::uint64_t expected = checksum_.value();
    std::uint64_t stored = 0;
    in_.read(reinterpret_cast<char*>(&stored), 8);
    return in_.gcount() == 8 && stored == expected;
  }

 private:
  std::ifstream in_;
  Checksum checksum_;
  std::uint64_t file_size_ = 0;
  std::uint64_t consumed_ = 0;
  bool failed_ = false;
};

// Packs the column's codes at k = bit_width() bits per code into an
// MSB-first word stream, decoding them from the packing a segment at a time.
std::vector<Word> PackCodes(const Table::Column& column,
                            std::size_t num_rows) {
  const int k = column.bit_width();
  std::vector<Word> words;
  words.reserve(CeilDiv(num_rows * static_cast<std::size_t>(k), 64));
  UInt128 window = 0;
  int pending = 0;
  std::uint64_t codes[kWordBits];
  for (std::size_t begin = 0; begin < num_rows; begin += kWordBits) {
    const std::size_t n = std::min<std::size_t>(kWordBits, num_rows - begin);
    column.DecodeCodes(begin, n, codes);
    for (std::size_t i = 0; i < n; ++i) {
      window |= static_cast<UInt128>(codes[i]) << (128 - k - pending);
      pending += k;
      while (pending >= 64) {
        words.push_back(static_cast<Word>(window >> 64));
        window <<= 64;
        pending -= 64;
      }
    }
  }
  if (pending > 0) words.push_back(static_cast<Word>(window >> 64));
  return words;
}

// Writes codes [begin, begin + n) of a k-bit MSB-first word stream to out.
void UnpackCodes(const std::vector<Word>& words, int k, std::size_t begin,
                 std::size_t n, std::uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bit = (begin + i) * static_cast<std::size_t>(k);
    const std::size_t w = bit / 64;
    const int offset = static_cast<int>(bit % 64);
    const UInt128 two =
        (static_cast<UInt128>(words[w]) << 64) |
        (w + 1 < words.size() ? words[w + 1] : 0);
    out[i] = static_cast<std::uint64_t>(two >> (128 - offset - k)) &
             LowMask(k);
  }
}

// Serializes the table into `w` (everything between the magic and the
// checksum trailer).
void WritePayload(const Table& table, Writer& w) {
  // Magic is outside the checksum so corrupted files fail fast on it.
  w.Raw(kMagic, sizeof kMagic);
  w.U64(table.num_rows());
  w.U32(static_cast<std::uint32_t>(table.num_columns()));
  for (const std::string& name : table.column_names()) {
    const Table::Column& column = **table.GetColumn(name);
    w.String(name);
    w.U8(static_cast<std::uint8_t>(column.spec().layout));
    w.U8(column.encoder().is_dictionary() ? 1 : 0);
    w.U8(column.nullable() ? 1 : 0);
    w.U8(0);
    w.I32(column.spec().tau);
    w.I32(column.bit_width());
    if (column.encoder().is_dictionary()) {
      const std::uint64_t count = column.encoder().num_codes();
      w.U64(count);
      for (std::uint64_t c = 0; c < count; ++c) {
        w.I64(column.encoder().Decode(c));
      }
    } else {
      w.I64(column.encoder().min_value());
      w.I64(column.encoder().max_value());
    }
    const std::vector<Word> packed = PackCodes(column, table.num_rows());
    w.U64(packed.size());
    w.Raw(packed.data(), packed.size() * sizeof(Word));
    if (column.nullable()) {
      const FilterBitVector dense =
          column.validity().Reshape(kWordBits);  // canonical dense bitmap
      w.U64(dense.num_segments());
      w.Raw(dense.words(), dense.num_segments() * sizeof(Word));
    }
  }
  w.Finish();
}

}  // namespace

Status WriteTable(const Table& table, const std::string& path) {
  // Crash-safe protocol: write a temp file in the same directory, fsync it,
  // rename over the target, fsync the directory. A crash or failure at any
  // step leaves `path` either absent or a complete previous version — never
  // a partial file. The temp file is removed on every failure path.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    Writer w(tmp);
    if (!w.ok()) {
      return Status::InvalidArgument("cannot open '" + tmp +
                                     "' for writing");
    }
    WritePayload(table, w);
    if (!w.ok()) {
      w.Close();
      std::remove(tmp.c_str());
      return Status::Internal("write to '" + tmp + "' failed");
    }
    w.Close();
  }
  if (!SyncFile(tmp)) {
    std::remove(tmp.c_str());
    return Status::Internal("fsync of '" + tmp + "' failed");
  }
  if (ICP_FAILPOINT("table_io/rename") ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename of '" + tmp + "' to '" + path +
                            "' failed");
  }
  // Directory sync failure after a successful rename is reported but the
  // data is already visible under `path`; there is no partial file to clean.
  if (!SyncParentDir(path)) {
    return Status::Internal("directory fsync after renaming '" + path +
                            "' failed");
  }
  return Status::Ok();
}

StatusOr<Table> ReadTable(const std::string& path) {
  Reader r(path);
  if (!r.ok()) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  char magic[8];
  r.Raw(magic, sizeof magic);
  if (r.failed() || std::memcmp(magic, kMagic, sizeof magic) != 0) {
    return Status::InvalidArgument("'" + path + "' is not an ICPTBL01 file");
  }
  const std::uint64_t num_rows = r.U64();
  const std::uint32_t num_columns = r.U32();
  // Each row of each column occupies at least one bit of the packed code
  // stream, so num_rows is bounded by 8x the bytes left in the file; this
  // rejects absurd counts before any allocation sized from them.
  if (r.failed() || num_rows == 0 || num_columns == 0 ||
      num_columns > 100000 || num_rows / 8 > r.remaining()) {
    return Status::InvalidArgument("corrupt table header");
  }

  Table table;
  for (std::uint32_t c = 0; c < num_columns; ++c) {
    const std::string name = r.String();
    ColumnSpec spec;
    const std::uint8_t layout = r.U8();
    if (layout > 3) return Status::InvalidArgument("corrupt layout byte");
    spec.layout = static_cast<Layout>(layout);
    spec.dictionary = r.U8() != 0;
    const bool nullable = r.U8() != 0;
    r.U8();
    spec.tau = r.I32();
    const std::int32_t bit_width = r.I32();
    // tau 0 means "layout default"; the packers require 1 <= tau <= 63
    // otherwise (they ICP_CHECK it, so reject here rather than abort).
    if (r.failed() || bit_width < 1 || bit_width > 63 || spec.tau < 0 ||
        spec.tau > 63) {
      return Status::InvalidArgument("corrupt column header for '" + name +
                                     "'");
    }

    ColumnEncoder encoder;
    if (spec.dictionary) {
      const std::uint64_t count = r.U64();
      if (r.failed() || count == 0 || count > num_rows + (1u << 20) ||
          count * 8 > r.remaining()) {
        return Status::InvalidArgument("corrupt dictionary for '" + name +
                                       "'");
      }
      std::vector<std::int64_t> entries(count);
      for (auto& e : entries) e = r.I64();
      if (r.failed()) {
        return Status::InvalidArgument("corrupt dictionary for '" + name +
                                       "'");
      }
      encoder = ColumnEncoder::ForDictionary(entries);
    } else {
      const std::int64_t lo = r.I64();
      const std::int64_t hi = r.I64();
      // ForRangeWithWidth ICP_CHECKs bit_width >= BitsFor(span); validate
      // instead of aborting on a corrupt range.
      const std::uint64_t span = static_cast<std::uint64_t>(hi) -
                                 static_cast<std::uint64_t>(lo);
      if (r.failed() || lo > hi || BitsFor(span) > bit_width) {
        return Status::InvalidArgument("corrupt range for '" + name + "'");
      }
      encoder = ColumnEncoder::ForRangeWithWidth(lo, hi, bit_width);
      spec.bit_width = bit_width;
    }

    const std::uint64_t word_count = r.U64();
    const std::uint64_t expected_words =
        CeilDiv(num_rows * static_cast<std::uint64_t>(bit_width), 64);
    if (r.failed() || word_count != expected_words ||
        word_count * 8 > r.remaining()) {
      return Status::InvalidArgument("corrupt code stream for '" + name +
                                     "'");
    }
    std::vector<Word> packed(word_count);
    r.Raw(packed.data(), packed.size() * sizeof(Word));
    if (r.failed()) {
      return Status::InvalidArgument("corrupt code stream for '" + name +
                                     "'");
    }
    std::vector<bool> valid;
    if (nullable) {
      const std::uint64_t bitmap_words = r.U64();
      if (r.failed() || bitmap_words != CeilDiv(num_rows, 64) ||
          bitmap_words * 8 > r.remaining()) {
        return Status::InvalidArgument("corrupt validity bitmap for '" +
                                       name + "'");
      }
      FilterBitVector dense(num_rows, kWordBits);
      r.Raw(dense.words(), bitmap_words * sizeof(Word));
      if (r.failed()) {
        return Status::InvalidArgument("corrupt validity bitmap for '" +
                                       name + "'");
      }
      valid.resize(num_rows);
      bool any_valid = false;
      for (std::size_t i = 0; i < num_rows; ++i) {
        valid[i] = dense.GetBit(i);
        any_valid |= valid[i];
      }
      if (!any_valid) {
        // AddNullableColumn rejects all-NULL columns; a corrupt bitmap must
        // not surface as a different column-building error.
        return Status::InvalidArgument("corrupt validity bitmap for '" +
                                       name + "'");
      }
    }

    // The stream's codes go straight into the packer under the file's
    // encoder: each is checked against the encoder's domain as it is
    // unpacked, and NULL rows get code 0 as AddNullableColumn gives them.
    const std::uint64_t max_code = encoder.num_codes() - 1;
    bool out_of_domain = false;
    const Status status = table.AddCodedColumn(
        name, num_rows, spec, std::move(encoder),
        [&](std::size_t begin, std::size_t n, std::uint64_t* out) {
          UnpackCodes(packed, bit_width, begin, n, out);
          for (std::size_t i = 0; i < n; ++i) {
            if (out[i] > max_code) {
              out_of_domain = true;
              out[i] = 0;
            }
            if (nullable && !valid[begin + i]) out[i] = 0;
          }
        },
        nullable ? &valid : nullptr);
    if (out_of_domain) {
      return Status::InvalidArgument("code out of domain in '" + name + "'");
    }
    ICP_RETURN_IF_ERROR(status);
  }
  if (r.failed()) return Status::InvalidArgument("truncated file");
  if (!r.VerifyChecksum()) {
    return Status::InvalidArgument("checksum mismatch in '" + path + "'");
  }
  return table;
}

namespace {

// True for names produced by WriteTable's staging protocol:
// "<base>.tmp.<digits>" with a non-empty base and at least one digit.
bool IsStagingName(const char* name) {
  const char* marker = nullptr;
  for (const char* p = name; (p = std::strstr(p, ".tmp.")) != nullptr; ++p) {
    marker = p;  // last occurrence: the suffix WriteTable appended
  }
  if (marker == nullptr || marker == name) return false;
  const char* digits = marker + 5;
  if (*digits == '\0') return false;
  for (const char* p = digits; *p != '\0'; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) return false;
  }
  return true;
}

}  // namespace

Status SweepOrphanedStagingFiles(const std::string& dir, int* removed) {
  if (removed != nullptr) *removed = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::NotFound("cannot open directory '" + dir + "'");
  }
  Status status = Status::Ok();
  while (struct dirent* entry = ::readdir(d)) {
    if (!IsStagingName(entry->d_name)) continue;
    const std::string path = dir + "/" + entry->d_name;
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    if (std::remove(path.c_str()) == 0) {
      if (removed != nullptr) ++*removed;
    } else {
      status = Status::Internal("cannot remove orphan '" + path + "'");
    }
  }
  ::closedir(d);
  return status;
}

}  // namespace icp::io
