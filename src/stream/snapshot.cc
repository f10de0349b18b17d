// StreamingPtaEngine::SaveSnapshot / RestoreSnapshot: durable engine state
// so online pipelines survive redeploys.
//
// The snapshot captures everything behavior-relevant bitwise — options,
// watermark, Prop. 3 counters, stats, per-group pending emissions, and the
// live merge chains with their node ids (the merge tie-breaker), covered
// chronon counts, and current keys. Node handles and heap positions are
// not stored: restore sends every live row back through the merge core's
// insert path (MergeHeap::InsertRestored), whose heap orders the same
// (key, id) pairs as the saved one, so the replay is byte-identical to an
// uninterrupted run. Every recomputed key is verified against the stored
// bits, turning any inconsistency into a structured error.
//
// Format version 1 ("PTASNAPS", little-endian, Checksum64 footer); the
// byte layout is documented in docs/PERSISTENCE.md.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "stream/stream.h"
#include "util/binio.h"

namespace pta {

namespace {

constexpr char kMagic[8] = {'P', 'T', 'A', 'S', 'N', 'A', 'P', 'S'};
constexpr uint32_t kSnapshotFormatVersion = 1;
constexpr uint32_t kFlagMergeAcrossGaps = 1u << 0;
constexpr uint32_t kFlagFinalized = 1u << 1;
// Magic + version + flags + p + size_budget + delta + weight count +
// group count.
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 5 * 8;
constexpr size_t kFooterBytes = 8;

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("corrupt PTA snapshot: " + what);
}

uint64_t BitsOf(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

bool AllFinite(const std::vector<double>& values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

std::string StreamingPtaEngine::SaveSnapshot() const {
  std::string out;
  out.reserve(kHeaderBytes + (pending_ + heap_.size()) * (32 + 8 * p_) +
              64 * groups_.size() + 128);
  io::ByteWriter w(&out);

  out.append(kMagic, sizeof(kMagic));
  w.U32(kSnapshotFormatVersion);
  uint32_t flags = 0;
  if (options_.merge_across_gaps) flags |= kFlagMergeAcrossGaps;
  if (finalized_) flags |= kFlagFinalized;
  w.U32(flags);
  w.U64(p_);
  w.U64(options_.size_budget);
  w.U64(options_.delta);
  w.U64(options_.weights.size());
  w.U64(groups_.size());

  w.I64(options_.auto_watermark_lag);
  w.I64(watermark_);
  w.I64(max_begin_seen_);
  w.I64(heap_.next_id());
  w.I64(heap_.last_gap_id());
  w.I64(heap_.before_gap());
  w.I64(heap_.after_gap());

  w.U64(stats_.ingested);
  w.U64(stats_.merges);
  w.U64(stats_.early_merges);
  w.U64(stats_.emitted);
  w.U64(stats_.max_live_rows);
  w.F64(stats_.merge_sse);

  w.F64Array(options_.weights.data(), options_.weights.size());

  for (const int32_t group_id : SortedGroupIds()) {
    const Group& group = groups_.at(group_id);
    w.I32(group_id);
    w.U64(group.pending.size());
    size_t chain = 0;
    for (int32_t h = group.head; h >= 0; h = heap_.next(h)) ++chain;
    w.U64(chain);
    for (const Segment& seg : group.pending) {
      w.I64(seg.t.begin);
      w.I64(seg.t.end);
      w.F64Array(seg.values.data(), seg.values.size());
    }
    for (int32_t h = group.head; h >= 0; h = heap_.next(h)) {
      w.I64(heap_.id(h));
      w.I64(heap_.interval(h).begin);
      w.I64(heap_.interval(h).end);
      w.I64(heap_.covered(h));
      w.F64(heap_.key(h));
      w.F64Array(heap_.values(h), p_);
    }
  }

  w.U64(io::Checksum64(out.data(), out.size()));
  return out;
}

Result<std::unique_ptr<StreamingPtaEngine>>
StreamingPtaEngine::RestoreSnapshot(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a PTA snapshot (bad magic)");
  }
  if (bytes.size() < sizeof(kMagic) + 4) return Corrupt("truncated header");
  uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<uint32_t>(
                   static_cast<unsigned char>(bytes[sizeof(kMagic) + i]))
               << (8 * i);
  }
  if (version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "unsupported PTA snapshot format version " + std::to_string(version));
  }
  if (bytes.size() < kHeaderBytes + kFooterBytes) {
    return Corrupt("truncated header");
  }
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

  io::ByteReader r(
      bytes.substr(sizeof(kMagic) + 4, body_size - sizeof(kMagic) - 4));
  uint32_t flags = 0;
  uint64_t p, size_budget, delta, num_weights, num_groups;
  if (!r.U32(&flags) || !r.U64(&p) || !r.U64(&size_budget) ||
      !r.U64(&delta) || !r.U64(&num_weights) || !r.U64(&num_groups)) {
    return Corrupt("truncated header");
  }
  if ((flags & ~(kFlagMergeAcrossGaps | kFlagFinalized)) != 0) {
    return Corrupt("unknown flag bits");
  }

  // p sizes every per-row payload and the constructor's expanded weight
  // vector; a real engine has single-digit aggregate arity, so an
  // astronomical count is a hostile file, rejected before it can drive an
  // allocation.
  if (p > (uint64_t{1} << 20)) return Corrupt("implausible aggregate arity");

  StreamingOptions options;
  options.merge_across_gaps = (flags & kFlagMergeAcrossGaps) != 0;
  if (size_budget == 0) return Corrupt("size budget must be positive");
  options.size_budget = static_cast<size_t>(size_budget);
  options.delta = static_cast<size_t>(delta);

  int64_t watermark, max_begin_seen, next_id, last_gap_id, before_gap,
      after_gap;
  StreamingStats stats;
  double merge_sse;
  if (!r.I64(&options.auto_watermark_lag) || !r.I64(&watermark) ||
      !r.I64(&max_begin_seen) || !r.I64(&next_id) || !r.I64(&last_gap_id) ||
      !r.I64(&before_gap) || !r.I64(&after_gap)) {
    return Corrupt("truncated engine state");
  }
  uint64_t ingested, merges, early_merges, emitted, max_live_rows;
  if (!r.U64(&ingested) || !r.U64(&merges) || !r.U64(&early_merges) ||
      !r.U64(&emitted) || !r.U64(&max_live_rows) || !r.F64(&merge_sse)) {
    return Corrupt("truncated stats");
  }
  stats.ingested = static_cast<size_t>(ingested);
  stats.merges = static_cast<size_t>(merges);
  stats.early_merges = static_cast<size_t>(early_merges);
  stats.emitted = static_cast<size_t>(emitted);
  stats.max_live_rows = static_cast<size_t>(max_live_rows);
  stats.merge_sse = merge_sse;

  if (num_weights != 0 && num_weights != p) {
    return Corrupt("weight arity does not match the aggregate count");
  }
  if (!r.F64Array(num_weights, &options.weights)) {
    return Corrupt("weight section overflow");
  }
  for (const double w : options.weights) {
    if (!(w > 0.0)) return Corrupt("weights must be positive");
  }

  // The engine constructor aborts on bad options (programmer error); all
  // option validation above must therefore precede it.
  auto engine = std::make_unique<StreamingPtaEngine>(static_cast<size_t>(p),
                                                     std::move(options));
  engine->watermark_ = watermark;
  engine->max_begin_seen_ = max_begin_seen;
  engine->finalized_ = (flags & kFlagFinalized) != 0;
  engine->stats_ = stats;

  if (!r.Fits(num_groups, 20)) return Corrupt("group section overflow");
  int64_t prev_group = std::numeric_limits<int64_t>::min();
  for (uint64_t g = 0; g < num_groups; ++g) {
    int32_t group_id;
    uint64_t num_pending, num_chain;
    if (!r.I32(&group_id) || !r.U64(&num_pending) || !r.U64(&num_chain)) {
      return Corrupt("truncated group header");
    }
    // SaveSnapshot writes groups in ascending id order; demanding it keeps
    // one byte string per engine state and rejects duplicate groups in one
    // check.
    if (group_id <= prev_group) {
      return Corrupt("group ids not strictly ascending");
    }
    prev_group = group_id;
    // Only Finalize leaves a group without state: it drops the pending
    // rows of a fully sealed group that no TakeEmitted has released yet.
    const bool stateless = num_pending == 0 && num_chain == 0;
    if (stateless && !engine->finalized_) {
      return Corrupt("group without state");
    }
    // One pending row needs 16 + 8p bytes, one chain node 40 + 8p; bound
    // both counts by the cheapest field so the loops below cannot be
    // driven past the buffer (each iteration still bounds-checks).
    if (!r.Fits(num_pending, 16) || !r.Fits(num_chain, 40)) {
      return Corrupt("group row counts overflow");
    }

    Group& group = engine->groups_[group_id];
    group.pending.reserve(static_cast<size_t>(num_pending));
    for (uint64_t i = 0; i < num_pending; ++i) {
      Segment seg;
      seg.group = group_id;
      if (!r.I64(&seg.t.begin) || !r.I64(&seg.t.end) ||
          !r.F64Array(p, &seg.values)) {
        return Corrupt("truncated pending rows");
      }
      if (seg.t.begin > seg.t.end) return Corrupt("inverted pending interval");
      if (!AllFinite(seg.values)) return Corrupt("non-finite pending value");
      group.pending.push_back(std::move(seg));
      ++engine->pending_;
    }

    MergeHeap& heap = engine->heap_;
    int32_t prev = MergeHeap::kNoNode;
    std::vector<double> row;
    for (uint64_t i = 0; i < num_chain; ++i) {
      int64_t id, begin, end, covered;
      double key;
      if (!r.I64(&id) || !r.I64(&begin) || !r.I64(&end) || !r.I64(&covered) ||
          !r.F64(&key)) {
        return Corrupt("truncated chain nodes");
      }
      if (!LengthFitsInt64(begin, end)) {
        return Corrupt("inverted or overlong chain interval");
      }
      // Keys sum covered counts within the chain; Ingest keeps the chain's
      // total within int64_t.
      if (covered < 1 || covered > end - begin + 1 ||
          covered > INT64_MAX - group.covered) {
        return Corrupt("implausible covered chronon count");
      }
      if (id < 1 || id >= next_id) return Corrupt("node id out of range");
      if (prev >= 0) {
        if (heap.interval(prev).end >= begin) {
          return Corrupt("chain intervals overlap or are unsorted");
        }
        if (heap.id(prev) >= id) return Corrupt("chain ids not ascending");
      }
      if (!r.F64Array(p, &row)) return Corrupt("truncated chain values");
      if (!AllFinite(row)) return Corrupt("non-finite chain value");
      const int32_t h = heap.InsertRestored(prev, id, group_id,
                                            Interval(begin, end), covered,
                                            row.data());
      // Keys are behavior: the recomputed key must match the stored bits,
      // so the restored heap orders exactly the candidates the
      // uninterrupted engine would.
      if (BitsOf(heap.key(h)) != BitsOf(key)) {
        return Corrupt("stored merge key does not match its recomputation");
      }
      if (prev < 0) group.head = h;
      group.tail = h;
      group.covered += covered;
      prev = h;
    }
    if (group.head >= 0) engine->QueueForSealing(group_id, group);
    // A stateless group is listed too, so TakeEmitted releases it.
    if (num_pending > 0 || stateless) engine->emitting_.push_back(group_id);
  }
  engine->heap_.RestoreCounters(next_id, last_gap_id, before_gap, after_gap);
  if (r.remaining() != 0) return Corrupt("trailing bytes after snapshot");

  return engine;
}

}  // namespace pta
