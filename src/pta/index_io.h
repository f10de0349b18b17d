// Durable PtaIndex: a versioned, checksummed, little-endian on-disk format
// for the recorded GMS dendrogram.
//
// SaveIndex writes everything PtaIndex::Build recorded — the leaves (the
// input relation with group keys and value names), the merge nodes in GMS
// order, their payloads, and the bitwise error curves — so a LoadIndex
// round trip yields an index whose CutToSize/CutToError/MultiBudgetCut
// answers are byte-identical (segments, values, and error doubles) to the
// index that was saved, and therefore to GmsReduceToSize/-ToError on the
// original input. Roots and the lazy Emax are recomputed on load, never
// trusted from the file.
//
// The format (version 1, see docs/PERSISTENCE.md for the byte layout):
//
//   "PTAINDEX" | u32 version | u32 flags | six u64 counts
//   leaf groups/intervals/values | group keys | value names | weights
//   merge nodes | merge payloads | deltas | cumulative curve
//   u64 Checksum64 over all preceding bytes
//
// Loading is hostile-input safe: every length is bounds-checked against
// the buffer before any allocation, the checksum is verified before the
// body is parsed, and the decoded dendrogram passes PtaIndex::FromParts'
// structural validation. Malformed input of any kind — truncation, bit
// flips, bad magic, future versions, overflowing counts — comes back as a
// structured Status (InvalidArgument for malformed bytes, IoError for
// filesystem failures), never a crash or over-read; index_io_fuzz_test.cc
// holds that line over ~100k corruptions.

#ifndef PTA_PTA_INDEX_IO_H_
#define PTA_PTA_INDEX_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "pta/index.h"
#include "util/status.h"

namespace pta {

/// The current on-disk format version. Files written by SaveIndex carry
/// it; files with any other version are rejected as InvalidArgument
/// ("unsupported PTA index format version N") so older binaries fail
/// loudly instead of misparsing newer files.
inline constexpr uint32_t kPtaIndexFormatVersion = 1;

/// Encodes the index in format version kPtaIndexFormatVersion. Pure and
/// deterministic: the same index always produces the same bytes.
std::string SerializeIndex(const PtaIndex& index);

/// Decodes SerializeIndex output. The result is structurally validated
/// end to end; on success it cuts byte-identically to the index that was
/// serialized.
[[nodiscard]] Result<PtaIndex> DeserializeIndex(std::string_view bytes);

/// SerializeIndex + an atomic file replace (io::WriteFile: temporary file
/// + rename; IoError on failure).
[[nodiscard]] Status SaveIndex(const PtaIndex& index, const std::string& path);

/// DeserializeIndex over the file mapped read-only (io::FileBytes), or
/// read into memory when it cannot be mapped (a pipe, an empty file).
/// Same statuses as DeserializeIndex on the file's bytes, plus IoError
/// when the file cannot be read.
[[nodiscard]] Result<PtaIndex> LoadIndex(const std::string& path);

}  // namespace pta

#endif  // PTA_PTA_INDEX_IO_H_
