// Little-endian binary encoding primitives for the persistence layer
// (pta/index_io.h, the streaming snapshots): an appending ByteWriter, a
// bounds-checked ByteReader, a fast 64-bit corruption checksum, and whole-
// file read/write helpers.
//
// Every multi-byte field is encoded little-endian regardless of the host,
// so files written on one machine load on any other. The reader never
// trusts a length field: each read checks the remaining byte count first
// (array reads divide instead of multiplying, so hostile counts cannot
// overflow), fails sticky, and never touches memory past the buffer —
// this is what makes the corruption fuzz battery crash-free by
// construction.

#ifndef PTA_UTIL_BINIO_H_
#define PTA_UTIL_BINIO_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pta {
namespace io {

/// 64-bit non-cryptographic checksum (xxhash-style word mixing). Fast
/// enough (~GB/s) that verifying it cannot dominate an index load, and any
/// localized corruption — bit flips, truncation, field edits — changes it
/// with overwhelming probability. Stable across platforms and releases: it
/// is part of the on-disk format (docs/PERSISTENCE.md).
uint64_t Checksum64(const void* data, size_t size);

/// Little-endian loads from unaligned bytes — a single mov on LE hosts, a
/// byte-assembly loop elsewhere. Shared by the checksum and the section
/// decoders that bulk-read a validated span.
inline uint64_t LoadLE64(const void* p) {
  if constexpr (std::endian::native == std::endian::little) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(b[i]) << (8 * i);
    return v;
  }
}

inline uint32_t LoadLE32(const void* p) {
  if constexpr (std::endian::native == std::endian::little) {
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(b[i]) << (8 * i);
    return v;
  }
}

/// \brief Appends little-endian fields to a byte string.
class ByteWriter {
 public:
  /// The writer appends to *out, which must outlive it.
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    char buf[4];
    for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
    out_->append(buf, 4);
  }
  void U64(uint64_t v) {
    char buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
    out_->append(buf, 8);
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  /// Doubles are written as their IEEE-754 bit pattern, so a round trip is
  /// bitwise exact (including signed zeros and infinities).
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  /// u32 byte length + raw bytes.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s.data(), s.size());
  }
  void F64Array(const double* v, size_t count);
  void I32Array(const int32_t* v, size_t count);

 private:
  std::string* out_;
};

/// \brief Bounds-checked little-endian reader over a byte buffer.
///
/// Every accessor returns false (and sets the sticky failure flag) instead
/// of reading past the end; after any failure all further reads fail too,
/// so a parse can check once at the end. Array reads validate the element
/// count against the remaining bytes *by division* before allocating, so a
/// corrupt count can neither over-read nor provoke a huge allocation.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool failed() const { return failed_; }
  /// No read has failed yet. Consult this (or every read's return value,
  /// which [[nodiscard]] enforces) before trusting parsed values; the
  /// project linter (scripts/pta_lint.py, rule bytereader-unchecked)
  /// rejects parses that do neither.
  bool ok() const { return !failed_; }

  [[nodiscard]] bool U8(uint8_t* v);
  [[nodiscard]] bool U32(uint32_t* v);
  [[nodiscard]] bool U64(uint64_t* v);
  [[nodiscard]] bool I32(int32_t* v);
  [[nodiscard]] bool I64(int64_t* v);
  [[nodiscard]] bool F64(double* v);
  /// Reads a u32 length + bytes; the length must fit in the remainder.
  [[nodiscard]] bool Str(std::string* v);
  [[nodiscard]] bool F64Array(size_t count, std::vector<double>* out);
  [[nodiscard]] bool I32Array(size_t count, std::vector<int32_t>* out);
  /// Consumes a whole fixed-stride section — `count` records of
  /// `bytes_each` bytes — and exposes it as a raw span for a bulk decoder
  /// (LoadLE32/LoadLE64 on *p). Same division-based bounds check as the
  /// array reads, so a hostile count cannot over-read or overflow.
  [[nodiscard]] bool Section(uint64_t count, size_t bytes_each, const char** p);
  /// Validates that `count` elements of `bytes_each` bytes fit in the
  /// remaining buffer (overflow-safe); does not consume anything.
  [[nodiscard]] bool Fits(uint64_t count, size_t bytes_each) const {
    return !failed_ && bytes_each != 0 && count <= remaining() / bytes_each;
  }

 private:
  bool Take(size_t n, const char** p);

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// Reads a whole file into *out; IoError when it cannot be opened or read.
[[nodiscard]] Status ReadFile(const std::string& path, std::string* out);
/// Replaces a file with `bytes` atomically: writes a temporary file in the
/// same directory and renames it over `path`, so readers (and a crash
/// mid-write) see the old file or the new one, never a torn or truncated
/// one. IoError on failure, with the temporary removed.
[[nodiscard]] Status WriteFile(const std::string& path, std::string_view bytes);

/// \brief A whole file's bytes, mapped read-only where possible.
///
/// A regular non-empty file is mmap'ed: its page-cache pages are shared,
/// not copied into fresh memory. Anything that cannot be mapped (a pipe, a
/// directory, an empty file, a failed mmap) falls back to ReadFile, with
/// its diagnostics. The mapping is private and read-only, and files are
/// only ever replaced by rename (WriteFile), so it stays valid until
/// destruction — unless another program truncates the file in place.
class FileBytes {
 public:
  FileBytes() = default;
  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;
  ~FileBytes();

  [[nodiscard]] Status Open(const std::string& path);
  std::string_view bytes() const;

 private:
  void* map_ = nullptr;
  size_t map_size_ = 0;
  std::string read_;  // the ReadFile fallback
};

}  // namespace io
}  // namespace pta

#endif  // PTA_UTIL_BINIO_H_
