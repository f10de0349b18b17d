#include "pta/index_io.h"

#include <cstring>
#include <vector>

#include "core/value.h"
#include "util/binio.h"

namespace pta {

namespace {

constexpr char kMagic[8] = {'P', 'T', 'A', 'I', 'N', 'D', 'E', 'X'};
constexpr uint32_t kFlagMergeAcrossGaps = 1u << 0;
// Magic + version + flags + {n, p, m, weights, group keys, value names}.
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 6 * 8;
constexpr size_t kFooterBytes = 8;  // the trailing checksum

void WriteValue(io::ByteWriter* w, const Value& v) {
  w->U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      w->I64(v.AsInt64());
      break;
    case ValueType::kDouble:
      w->F64(v.AsDoubleExact());
      break;
    case ValueType::kString:
      w->Str(v.AsString());
      break;
  }
}

bool ReadValue(io::ByteReader* r, Value* out) {
  uint8_t tag;
  if (!r->U8(&tag)) return false;
  switch (tag) {
    case static_cast<uint8_t>(ValueType::kNull):
      *out = Value();
      return true;
    case static_cast<uint8_t>(ValueType::kInt64): {
      int64_t v;
      if (!r->I64(&v)) return false;
      *out = Value(v);
      return true;
    }
    case static_cast<uint8_t>(ValueType::kDouble): {
      double v;
      if (!r->F64(&v)) return false;
      *out = Value(v);
      return true;
    }
    case static_cast<uint8_t>(ValueType::kString): {
      std::string v;
      if (!r->Str(&v)) return false;
      *out = Value(std::move(v));
      return true;
    }
    default:
      return false;  // unknown tag — corrupt
  }
}

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("corrupt PTA index file: " + what);
}

}  // namespace

std::string SerializeIndex(const PtaIndex& index) {
  const SequentialRelation& rel = index.input();
  const size_t n = rel.size();
  const size_t p = rel.num_aggregates();
  const size_t m = index.merges();

  std::string out;
  // Header + fixed-width sections; the variable-length metadata (group
  // keys, value names) is small, so this reserve covers almost everything.
  out.reserve(kHeaderBytes + n * (4 + 16 + 8 * p) + m * (28 + 8 * p) +
              8 * (2 * m + 1) + 8 * index.weights().size() + kFooterBytes);
  io::ByteWriter w(&out);

  out.append(kMagic, sizeof(kMagic));
  w.U32(kPtaIndexFormatVersion);
  w.U32(index.merge_across_gaps() ? kFlagMergeAcrossGaps : 0);
  w.U64(n);
  w.U64(p);
  w.U64(m);
  w.U64(index.weights().size());
  w.U64(rel.group_keys().size());
  w.U64(rel.value_names().size());

  for (size_t i = 0; i < n; ++i) w.I32(rel.group(i));
  for (size_t i = 0; i < n; ++i) {
    w.I64(rel.interval(i).begin);
    w.I64(rel.interval(i).end);
  }
  if (n > 0) w.F64Array(rel.values(0), n * p);

  for (const GroupKey& key : rel.group_keys()) {
    w.U32(static_cast<uint32_t>(key.size()));
    for (const Value& v : key) WriteValue(&w, v);
  }
  for (const std::string& name : rel.value_names()) w.Str(name);
  w.F64Array(index.weights().data(), index.weights().size());

  for (const PtaIndex::MergeNode& node : index.merge_nodes()) {
    w.I32(node.left);
    w.I32(node.right);
    w.I32(node.group);
    w.I64(node.t.begin);
    w.I64(node.t.end);
  }
  w.F64Array(index.merge_values().data(), index.merge_values().size());
  w.F64Array(index.merge_deltas().data(), index.merge_deltas().size());
  w.F64Array(index.cumulative_errors().data(),
             index.cumulative_errors().size());

  w.U64(io::Checksum64(out.data(), out.size()));
  return out;
}

Result<PtaIndex> DeserializeIndex(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a PTA index file (bad magic)");
  }
  if (bytes.size() < sizeof(kMagic) + 4) {
    return Corrupt("truncated header");
  }
  uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<uint32_t>(
                   static_cast<unsigned char>(bytes[sizeof(kMagic) + i]))
               << (8 * i);
  }
  if (version != kPtaIndexFormatVersion) {
    return Status::InvalidArgument("unsupported PTA index format version " +
                                   std::to_string(version));
  }
  if (bytes.size() < kHeaderBytes + kFooterBytes) {
    return Corrupt("truncated header");
  }

  // Verify the checksum before trusting any field beyond the version: a
  // flipped bit anywhere — header, payload, or the checksum itself — is
  // rejected here with one uniform diagnostic.
  const size_t body_size = bytes.size() - kFooterBytes;
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(
                  static_cast<unsigned char>(bytes[body_size + i]))
              << (8 * i);
  }
  if (io::Checksum64(bytes.data(), body_size) != stored) {
    return Corrupt("checksum mismatch");
  }

  // Parse the body (everything after magic + version, before the footer)
  // with a bounds-checked reader; every count is validated against the
  // remaining bytes before any allocation, so hostile counts can neither
  // over-read nor provoke a huge allocation.
  io::ByteReader r(
      bytes.substr(sizeof(kMagic) + 4, body_size - sizeof(kMagic) - 4));
  uint32_t flags = 0;
  uint64_t n, p, m, num_weights, num_group_keys, num_value_names;
  if (!r.U32(&flags) || !r.U64(&n) || !r.U64(&p) || !r.U64(&m) ||
      !r.U64(&num_weights) || !r.U64(&num_group_keys) ||
      !r.U64(&num_value_names)) {
    return Corrupt("truncated header");
  }
  if ((flags & ~kFlagMergeAcrossGaps) != 0) {
    return Corrupt("unknown flag bits");
  }
  const bool merge_across_gaps = (flags & kFlagMergeAcrossGaps) != 0;
  if (num_value_names != 0 && num_value_names != p) {
    return Corrupt("value name count does not match the aggregate count");
  }

  // Leaf columns.
  std::vector<int32_t> groups;
  if (!r.I32Array(n, &groups)) return Corrupt("leaf group section overflow");
  const char* interval_bytes;
  if (!r.Section(n, 16, &interval_bytes)) {
    return Corrupt("leaf interval section overflow");
  }
  // Field-wise assignment (never the checked Interval constructor, which
  // would abort on an inverted interval — FromParts rejects those as a
  // structured error). On LE hosts the {begin, end} pair layout matches
  // the wire format exactly, so the section is one memcpy.
  static_assert(sizeof(Interval) == 16, "Interval is two packed i64s");
  std::vector<Interval> intervals(n);
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0) std::memcpy(intervals.data(), interval_bytes, n * 16);
  } else {
    for (uint64_t i = 0; i < n; ++i) {
      intervals[i].begin =
          static_cast<int64_t>(io::LoadLE64(interval_bytes + i * 16));
      intervals[i].end =
          static_cast<int64_t>(io::LoadLE64(interval_bytes + i * 16 + 8));
    }
  }
  // n * p overflow guard: one leaf row needs 8p bytes, so p must fit the
  // remainder (making 8 * p overflow-free) before n is checked against
  // remaining / (8 * p); after that n * p cannot overflow either.
  if (n > 0 && p > 0 && (!r.Fits(p, 8) || !r.Fits(n, 8 * p))) {
    return Corrupt("leaf value section overflow");
  }
  std::vector<double> leaf_values;
  if (!r.F64Array(n * p, &leaf_values)) {
    return Corrupt("leaf value section overflow");
  }

  // Metadata: group keys, value names, weights.
  std::vector<GroupKey> group_keys;
  if (!r.Fits(num_group_keys, 4)) {
    return Corrupt("group key section overflow");
  }
  group_keys.resize(num_group_keys);
  for (uint64_t g = 0; g < num_group_keys; ++g) {
    uint32_t arity;
    if (!r.U32(&arity) || !r.Fits(arity, 1)) {
      return Corrupt("truncated group keys");
    }
    group_keys[g].reserve(arity);
    for (uint32_t a = 0; a < arity; ++a) {
      Value v;
      if (!ReadValue(&r, &v)) return Corrupt("malformed group key value");
      group_keys[g].push_back(std::move(v));
    }
  }
  std::vector<std::string> value_names;
  if (!r.Fits(num_value_names, 4)) {
    return Corrupt("value name section overflow");
  }
  value_names.resize(num_value_names);
  for (uint64_t d = 0; d < num_value_names; ++d) {
    if (!r.Str(&value_names[d])) return Corrupt("truncated value names");
  }
  std::vector<double> weights;
  if (!r.F64Array(num_weights, &weights)) {
    return Corrupt("weight section overflow");
  }

  // The dendrogram: one bounds check for the whole 28-byte-record section,
  // then a branch-free bulk decode.
  const char* merge_bytes;
  if (!r.Section(m, 28, &merge_bytes)) {
    return Corrupt("merge section overflow");
  }
  std::vector<PtaIndex::MergeNode> merges(m);
  for (uint64_t j = 0; j < m; ++j) {
    PtaIndex::MergeNode& node = merges[j];
    const char* rec = merge_bytes + j * 28;
    node.left = static_cast<int32_t>(io::LoadLE32(rec));
    node.right = static_cast<int32_t>(io::LoadLE32(rec + 4));
    node.group = static_cast<int32_t>(io::LoadLE32(rec + 8));
    node.t.begin = static_cast<int64_t>(io::LoadLE64(rec + 12));
    node.t.end = static_cast<int64_t>(io::LoadLE64(rec + 20));
  }
  if (m > 0 && p > 0 && (!r.Fits(p, 8) || !r.Fits(m, 8 * p))) {
    return Corrupt("merge payload section overflow");
  }
  std::vector<double> merge_values;
  if (!r.F64Array(m * p, &merge_values)) {
    return Corrupt("merge payload section overflow");
  }
  std::vector<double> deltas;
  if (!r.F64Array(m, &deltas)) return Corrupt("delta section overflow");
  if (m + 1 == 0) return Corrupt("merge count overflow");
  std::vector<double> cumulative;
  if (!r.F64Array(m + 1, &cumulative)) {
    return Corrupt("cumulative error section overflow");
  }
  if (r.remaining() != 0) return Corrupt("trailing bytes after index body");

  // Reassemble the leaves; FromParts re-validates everything Build would
  // have guaranteed (sequential order, weights, dendrogram structure,
  // bitwise error-curve consistency).
  if (!group_keys.empty()) {
    for (uint64_t i = 0; i < n; ++i) {
      if (groups[i] < 0 ||
          static_cast<uint64_t>(groups[i]) >= num_group_keys) {
        return Corrupt("leaf group id without group key");
      }
    }
  }
  SequentialRelation rel(static_cast<size_t>(p), std::move(value_names));
  rel.AdoptColumns(std::move(groups), std::move(intervals),
                   std::move(leaf_values));
  rel.SetGroupKeys(std::move(group_keys));

  Result<PtaIndex> index = PtaIndex::FromParts(
      std::move(rel), std::move(merges), std::move(merge_values),
      std::move(deltas), std::move(cumulative), std::move(weights),
      merge_across_gaps);
  if (!index.ok()) {
    return Corrupt(index.status().message());
  }
  return index;
}

Status SaveIndex(const PtaIndex& index, const std::string& path) {
  return io::WriteFile(path, SerializeIndex(index));
}

Result<PtaIndex> LoadIndex(const std::string& path) {
  io::FileBytes file;
  PTA_RETURN_IF_ERROR(file.Open(path));
  return DeserializeIndex(file.bytes());
}

}  // namespace pta
