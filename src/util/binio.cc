#include "util/binio.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>

namespace pta {
namespace io {

namespace {

// xxhash64-style constants; the exact values are frozen as part of the
// on-disk format.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

inline uint64_t Rotl(uint64_t v, int r) {
  return (v << r) | (v >> (64 - r));
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = Rotl(acc, 31);
  return acc * kPrime1;
}

}  // namespace

uint64_t Checksum64(const void* data, size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* end = p + size;
  uint64_t h;
  if (size >= 32) {
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0ull - kPrime1;
    const unsigned char* limit = end - 32;
    do {
      v1 = Round(v1, LoadLE64(p));
      v2 = Round(v2, LoadLE64(p + 8));
      v3 = Round(v3, LoadLE64(p + 16));
      v4 = Round(v4, LoadLE64(p + 24));
      p += 32;
    } while (p <= limit);
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = (h ^ Round(0, v1)) * kPrime1 + kPrime4;
    h = (h ^ Round(0, v2)) * kPrime1 + kPrime4;
    h = (h ^ Round(0, v3)) * kPrime1 + kPrime4;
    h = (h ^ Round(0, v4)) * kPrime1 + kPrime4;
  } else {
    h = kPrime5;
  }
  h += static_cast<uint64_t>(size);
  while (p + 8 <= end) {
    h ^= Round(0, LoadLE64(p));
    h = Rotl(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(LoadLE32(p)) * kPrime1;
    h = Rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = Rotl(h, 11) * kPrime1;
    ++p;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

void ByteWriter::F64Array(const double* v, size_t count) {
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    out_->append(reinterpret_cast<const char*>(v), count * sizeof(double));
  } else {
    for (size_t i = 0; i < count; ++i) F64(v[i]);
  }
}

void ByteWriter::I32Array(const int32_t* v, size_t count) {
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    out_->append(reinterpret_cast<const char*>(v), count * sizeof(int32_t));
  } else {
    for (size_t i = 0; i < count; ++i) I32(v[i]);
  }
}

bool ByteReader::Section(uint64_t count, size_t bytes_each, const char** p) {
  if (!Fits(count, bytes_each)) {
    failed_ = true;
    return false;
  }
  return Take(static_cast<size_t>(count) * bytes_each, p);
}

bool ByteReader::Take(size_t n, const char** p) {
  if (failed_ || n > remaining()) {
    failed_ = true;
    return false;
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool ByteReader::U8(uint8_t* v) {
  const char* p;
  if (!Take(1, &p)) return false;
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool ByteReader::U32(uint32_t* v) {
  const char* p;
  if (!Take(4, &p)) return false;
  *v = LoadLE32(reinterpret_cast<const unsigned char*>(p));
  return true;
}

bool ByteReader::U64(uint64_t* v) {
  const char* p;
  if (!Take(8, &p)) return false;
  *v = LoadLE64(reinterpret_cast<const unsigned char*>(p));
  return true;
}

bool ByteReader::I32(int32_t* v) {
  uint32_t u;
  if (!U32(&u)) return false;
  *v = static_cast<int32_t>(u);
  return true;
}

bool ByteReader::I64(int64_t* v) {
  uint64_t u;
  if (!U64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool ByteReader::F64(double* v) {
  uint64_t bits;
  if (!U64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool ByteReader::Str(std::string* v) {
  uint32_t len;
  if (!U32(&len)) return false;
  const char* p;
  if (!Take(len, &p)) return false;
  v->assign(p, len);
  return true;
}

bool ByteReader::F64Array(size_t count, std::vector<double>* out) {
  if (!Fits(count, sizeof(double))) {
    failed_ = true;
    return false;
  }
  const char* p;
  if (!Take(count * sizeof(double), &p)) return false;
  out->resize(count);
  if constexpr (std::endian::native == std::endian::little) {
    if (count > 0) std::memcpy(out->data(), p, count * sizeof(double));
  } else {
    const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
    for (size_t i = 0; i < count; ++i) {
      uint64_t bits = LoadLE64(u + i * 8);
      std::memcpy(&(*out)[i], &bits, sizeof(double));
    }
  }
  return true;
}

bool ByteReader::I32Array(size_t count, std::vector<int32_t>* out) {
  if (!Fits(count, sizeof(int32_t))) {
    failed_ = true;
    return false;
  }
  const char* p;
  if (!Take(count * sizeof(int32_t), &p)) return false;
  out->resize(count);
  if constexpr (std::endian::native == std::endian::little) {
    if (count > 0) std::memcpy(out->data(), p, count * sizeof(int32_t));
  } else {
    const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
    for (size_t i = 0; i < count; ++i) {
      (*out)[i] = static_cast<int32_t>(LoadLE32(u + i * 4));
    }
  }
  return true;
}

Status ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  out->clear();
  // Size the buffer up front for a regular file. Anything else grows by
  // appending: a pipe has no size, and a directory seeks to a bogus
  // LONG_MAX end.
  struct stat st;
  if (::fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    out->reserve(static_cast<size_t>(st.st_size));
  }
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, got);
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::IoError("error while reading '" + path + "'");
  return Status::Ok();
}

Status WriteFile(const std::string& path, std::string_view bytes) {
  // Unique among live writers: the pid, then a per-process counter.
  static std::atomic<uint64_t> counter{0};
  const std::string temp = path + ".tmp" + std::to_string(getpid()) + "." +
                           std::to_string(counter.fetch_add(1));
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t wrote = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (wrote <= 0) break;
    done += static_cast<size_t>(wrote);
  }
  const bool bad = done != bytes.size();
  if (::close(fd) != 0 || bad || std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return Status::IoError("error while writing '" + path + "'");
  }
  return Status::Ok();
}

FileBytes::~FileBytes() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

Status FileBytes::Open(const std::string& path) {
  // Only a regular file is opened here: opening a FIFO twice would leave
  // its writer without a reader between the two opens.
  struct stat st;
  const int fd = ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)
                     ? ::open(path.c_str(), O_RDONLY | O_CLOEXEC)
                     : -1;
  if (fd >= 0 && ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) &&
      st.st_size > 0) {
    void* map = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                       MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      map_ = map;
      map_size_ = static_cast<size_t>(st.st_size);
    }
  }
  if (fd >= 0) ::close(fd);
  return map_ != nullptr ? Status::Ok() : ReadFile(path, &read_);
}

std::string_view FileBytes::bytes() const {
  return map_ != nullptr
             ? std::string_view(static_cast<const char*>(map_), map_size_)
             : std::string_view(read_);
}

}  // namespace io
}  // namespace pta
