// Durable PtaIndex and streaming snapshots (pta/index_io.h,
// StreamingPtaEngine::SaveSnapshot):
//  * the round-trip contract — serialize + deserialize yields an index
//    that is byte-identical to the original (leaves, group keys, merge
//    nodes, and the bitwise error doubles), so every CutToSize /
//    CutToError / MultiBudgetCut after a reload equals both the original
//    index and GmsReduceToSize/-ToError directly;
//  * boundary inputs — empty relation, single segment, p = 0 aggregates,
//    cuts at exactly cmin;
//  * structured rejection of malformed bytes (bad magic, future version,
//    truncation, bit flips, length overflow, trailing garbage) — the
//    exhaustive corruption battery lives in index_io_fuzz_test.cc;
//  * SaveIndex / LoadIndex through a real file, including the IoError
//    path for a missing file;
//  * snapshot round trips — a restored engine replays the rest of the
//    stream byte-identically to one that was never interrupted, pending
//    emissions and finalization state included.

#include "pta/index_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pta/greedy.h"
#include "pta/index.h"
#include "stream/stream.h"
#include "test_util.h"
#include "util/binio.h"

namespace pta {
namespace {

using testing::ExpectByteIdentical;
using testing::MakeProjIta;
using testing::RandomSequential;

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

PtaIndex BuildOrDie(const SequentialRelation& rel,
                    const PtaIndexOptions& options = {}) {
  auto index = PtaIndex::Build(rel, options);
  PTA_CHECK_MSG(index.ok(), index.status().ToString().c_str());
  return std::move(*index);
}

PtaIndex RoundTrip(const PtaIndex& index) {
  auto loaded = DeserializeIndex(SerializeIndex(index));
  PTA_CHECK_MSG(loaded.ok(), loaded.status().ToString().c_str());
  return std::move(*loaded);
}

// Field-by-field byte identity of two indexes: the leaves (memcmp via
// BitwiseEquals), the catalog metadata, and every recorded merge with its
// bitwise error doubles.
void ExpectIndexIdentical(const PtaIndex& a, const PtaIndex& b) {
  EXPECT_TRUE(a.input().BitwiseEquals(b.input()));
  EXPECT_EQ(a.input().group_keys(), b.input().group_keys());
  EXPECT_EQ(a.input().value_names(), b.input().value_names());
  EXPECT_EQ(a.weights(), b.weights());
  EXPECT_EQ(a.merge_across_gaps(), b.merge_across_gaps());
  ASSERT_EQ(a.merges(), b.merges());
  for (size_t j = 0; j < a.merges(); ++j) {
    const PtaIndex::MergeNode& ma = a.merge_nodes()[j];
    const PtaIndex::MergeNode& mb = b.merge_nodes()[j];
    EXPECT_EQ(ma.left, mb.left) << "merge " << j;
    EXPECT_EQ(ma.right, mb.right) << "merge " << j;
    EXPECT_EQ(ma.group, mb.group) << "merge " << j;
    EXPECT_EQ(ma.t, mb.t) << "merge " << j;
    EXPECT_EQ(Bits(a.merge_deltas()[j]), Bits(b.merge_deltas()[j]))
        << "merge " << j;
  }
  ASSERT_EQ(a.merge_values().size(), b.merge_values().size());
  for (size_t i = 0; i < a.merge_values().size(); ++i) {
    EXPECT_EQ(Bits(a.merge_values()[i]), Bits(b.merge_values()[i])) << i;
  }
  ASSERT_EQ(a.cumulative_errors().size(), b.cumulative_errors().size());
  for (size_t i = 0; i < a.cumulative_errors().size(); ++i) {
    EXPECT_EQ(Bits(a.cumulative_errors()[i]), Bits(b.cumulative_errors()[i]))
        << i;
  }
}

// ---- round trips: every budget, byte for byte --------------------------

TEST(IndexIoTest, RoundTripIsByteIdenticalOnThePaperExample) {
  const SequentialRelation rel = MakeProjIta();
  const PtaIndex index = BuildOrDie(rel);
  const PtaIndex loaded = RoundTrip(index);
  ExpectIndexIdentical(index, loaded);
  for (size_t c = index.cmin(); c <= rel.size(); ++c) {
    auto direct = index.CutToSize(c);
    auto reloaded = loaded.CutToSize(c);
    auto gms = GmsReduceToSize(rel, c);
    ASSERT_TRUE(direct.ok() && reloaded.ok() && gms.ok()) << "c=" << c;
    ExpectByteIdentical(reloaded->relation, direct->relation);
    ExpectByteIdentical(reloaded->relation, gms->relation);
    EXPECT_EQ(Bits(reloaded->error), Bits(direct->error)) << "c=" << c;
    EXPECT_EQ(Bits(reloaded->error), Bits(gms->error)) << "c=" << c;
  }
}

TEST(IndexIoTest, RandomizedRoundTripsMatchGmsForEveryBudget) {
  for (const uint64_t seed : {3u, 17u, 29u}) {
    const SequentialRelation rel = RandomSequential(
        /*n=*/90, /*p=*/2, /*num_groups=*/3, /*gap_probability=*/0.2, seed);
    const PtaIndex index = BuildOrDie(rel);
    const PtaIndex loaded = RoundTrip(index);
    ExpectIndexIdentical(index, loaded);
    for (size_t c = loaded.cmin(); c <= rel.size(); ++c) {
      auto cut = loaded.CutToSize(c);
      auto gms = GmsReduceToSize(rel, c);
      ASSERT_TRUE(cut.ok() && gms.ok()) << "seed=" << seed << " c=" << c;
      ExpectByteIdentical(cut->relation, gms->relation);
      EXPECT_EQ(Bits(cut->error), Bits(gms->error))
          << "seed=" << seed << " c=" << c;
    }
    for (const double eps :
         {0.0, 1e-6, 0.01, 0.05, 0.25, 0.5, 0.9, 0.999, 1.0}) {
      auto cut = loaded.CutToError(eps);
      auto gms = GmsReduceToError(rel, eps);
      ASSERT_TRUE(cut.ok() && gms.ok()) << "seed=" << seed << " eps=" << eps;
      ExpectByteIdentical(cut->relation, gms->relation);
      EXPECT_EQ(Bits(cut->error), Bits(gms->error))
          << "seed=" << seed << " eps=" << eps;
    }
  }
}

TEST(IndexIoTest, WeightedAndGapMergedIndexesRoundTrip) {
  const SequentialRelation rel = RandomSequential(70, 3, 4, 0.25, 41);
  PtaIndexOptions options;
  options.weights = {0.5, 3.0, 1.25};
  options.merge_across_gaps = true;
  const PtaIndex index = BuildOrDie(rel, options);
  const PtaIndex loaded = RoundTrip(index);
  ExpectIndexIdentical(index, loaded);
  EXPECT_TRUE(loaded.merge_across_gaps());
  EXPECT_EQ(loaded.weights(), options.weights);
  GreedyOptions greedy;
  greedy.weights = options.weights;
  greedy.merge_across_gaps = true;
  for (size_t c = loaded.cmin(); c <= rel.size(); c += 5) {
    auto cut = loaded.CutToSize(c);
    auto gms = GmsReduceToSize(rel, c, greedy);
    ASSERT_TRUE(cut.ok() && gms.ok()) << "c=" << c;
    ExpectByteIdentical(cut->relation, gms->relation);
    EXPECT_EQ(Bits(cut->error), Bits(gms->error)) << "c=" << c;
  }
}

TEST(IndexIoTest, MultiBudgetCutMatchesAfterReload) {
  const SequentialRelation rel = RandomSequential(100, 2, 4, 0.15, 53);
  const PtaIndex index = BuildOrDie(rel);
  const PtaIndex loaded = RoundTrip(index);
  std::vector<size_t> ladder;
  for (size_t c = loaded.cmin(); c <= rel.size(); c += 7) ladder.push_back(c);
  auto direct = index.MultiBudgetCut(ladder);
  auto reloaded = loaded.MultiBudgetCut(ladder);
  ASSERT_TRUE(direct.ok() && reloaded.ok());
  ASSERT_EQ(direct->size(), reloaded->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    ExpectByteIdentical((*reloaded)[i].relation, (*direct)[i].relation);
    EXPECT_EQ(Bits((*reloaded)[i].error), Bits((*direct)[i].error)) << i;
  }
}

// ---- boundary inputs ---------------------------------------------------

TEST(IndexIoTest, EmptyIndexRoundTrips) {
  const SequentialRelation rel(2, {"A", "B"});
  const PtaIndex index = BuildOrDie(rel);
  const PtaIndex loaded = RoundTrip(index);
  ExpectIndexIdentical(index, loaded);
  EXPECT_EQ(loaded.input_size(), 0u);
  EXPECT_EQ(loaded.cmin(), 0u);
  auto cut = loaded.CutToSize(5);
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(cut->relation.empty());
}

TEST(IndexIoTest, SingleSegmentRoundTrips) {
  SequentialRelation rel(1);
  const double v = 42.0;
  rel.Append(0, Interval(5, 9), &v);
  rel.SetGroupKeys({{Value("only")}});
  const PtaIndex loaded = RoundTrip(BuildOrDie(rel));
  EXPECT_TRUE(loaded.input().BitwiseEquals(rel));
  EXPECT_EQ(loaded.input().group_keys(), rel.group_keys());
  auto cut = loaded.CutToSize(1);
  ASSERT_TRUE(cut.ok());
  ExpectByteIdentical(cut->relation, rel);
}

TEST(IndexIoTest, ZeroAggregateDimensionsRoundTrip) {
  // COUNT-free shapes: p = 0 means no value payload at all; every merge
  // has zero error and the serialized value sections are empty.
  SequentialRelation rel(0);
  static constexpr double kNoValues = 0.0;  // p = 0: reads zero doubles
  for (Chronon t = 0; t < 6; ++t) rel.Append(0, Interval(t, t), &kNoValues);
  const PtaIndex index = BuildOrDie(rel);
  const PtaIndex loaded = RoundTrip(index);
  ExpectIndexIdentical(index, loaded);
  for (size_t c = loaded.cmin(); c <= rel.size(); ++c) {
    auto cut = loaded.CutToSize(c);
    auto gms = GmsReduceToSize(rel, c);
    ASSERT_TRUE(cut.ok() && gms.ok()) << "c=" << c;
    ExpectByteIdentical(cut->relation, gms->relation);
  }
}

TEST(IndexIoTest, CMinBoundaryCutMatchesAfterReload) {
  const SequentialRelation rel = RandomSequential(60, 1, 2, 0.3, 67);
  const PtaIndex loaded = RoundTrip(BuildOrDie(rel));
  ASSERT_GT(loaded.cmin(), 0u);
  auto at_cmin = loaded.CutToSize(loaded.cmin());
  auto gms = GmsReduceToSize(rel, loaded.cmin());
  ASSERT_TRUE(at_cmin.ok() && gms.ok());
  ExpectByteIdentical(at_cmin->relation, gms->relation);
  // Below cmin stays infeasible after the reload, same as on the original.
  EXPECT_EQ(loaded.CutToSize(loaded.cmin() - 1).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- malformed bytes are structured errors, never crashes --------------

// Rewrites the trailing checksum so a deliberate body mutation tests the
// *structural* validation, not just the checksum gate.
std::string FixChecksum(std::string bytes) {
  PTA_CHECK(bytes.size() >= 8);
  const uint64_t sum = io::Checksum64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  return bytes;
}

TEST(IndexIoTest, BadMagicIsRejected) {
  std::string bytes = SerializeIndex(BuildOrDie(MakeProjIta()));
  bytes[0] = 'X';
  auto loaded = DeserializeIndex(bytes);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos);
}

TEST(IndexIoTest, FutureVersionIsRejected) {
  std::string bytes = SerializeIndex(BuildOrDie(MakeProjIta()));
  bytes[8] = static_cast<char>(kPtaIndexFormatVersion + 1);
  auto loaded = DeserializeIndex(FixChecksum(std::move(bytes)));
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST(IndexIoTest, TruncationIsRejected) {
  const std::string bytes = SerializeIndex(BuildOrDie(MakeProjIta()));
  for (const size_t keep : {size_t{0}, size_t{7}, size_t{15}, size_t{40},
                            bytes.size() / 2, bytes.size() - 1}) {
    auto loaded = DeserializeIndex(bytes.substr(0, keep));
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "kept " << keep << " bytes";
  }
}

TEST(IndexIoTest, BitFlipsAreRejectedByTheChecksum) {
  const std::string bytes = SerializeIndex(BuildOrDie(MakeProjIta()));
  for (size_t pos = 0; pos < bytes.size() - 8; pos += 13) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    auto loaded = DeserializeIndex(corrupt);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "flip at " << pos;
  }
}

TEST(IndexIoTest, LengthOverflowIsRejected) {
  // Lie about the leaf count: a huge n must fail the bounded-read check,
  // not drive a multi-terabyte allocation or an out-of-bounds read.
  std::string bytes = SerializeIndex(BuildOrDie(MakeProjIta()));
  const uint64_t huge = uint64_t{1} << 60;
  std::memcpy(&bytes[16], &huge, sizeof(huge));  // counts[0] = n
  auto loaded = DeserializeIndex(FixChecksum(std::move(bytes)));
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(IndexIoTest, TrailingGarbageIsRejected) {
  std::string bytes = SerializeIndex(BuildOrDie(MakeProjIta()));
  bytes.insert(bytes.size() - 8, "\0\0\0\0", 4);
  auto loaded = DeserializeIndex(FixChecksum(std::move(bytes)));
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// ---- file I/O ----------------------------------------------------------

TEST(IndexIoTest, SaveAndLoadThroughAFile) {
  const std::string path = ::testing::TempDir() + "index_io_test.ptaidx";
  const PtaIndex index = BuildOrDie(MakeProjIta());
  ASSERT_TRUE(SaveIndex(index, path).ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIndexIdentical(index, *loaded);
  std::remove(path.c_str());
}

TEST(IndexIoTest, MissingFileIsAnIoError) {
  auto loaded = LoadIndex(::testing::TempDir() + "does_not_exist.ptaidx");
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// Saves replace the file by rename, so a load racing a re-save reads the
// old index or the new one, never a torn or truncated file.
TEST(IndexIoTest, LoadsRacingResavesSeeWholeFiles) {
  const std::string path = ::testing::TempDir() + "index_io_race." +
                           std::to_string(getpid()) + ".ptaidx";
  const PtaIndex a = BuildOrDie(RandomSequential(3000, 2, 3, 0.1, 5));
  const PtaIndex b = BuildOrDie(RandomSequential(2000, 2, 4, 0.3, 6));
  const std::string a_bytes = SerializeIndex(a);
  const std::string b_bytes = SerializeIndex(b);
  ASSERT_TRUE(SaveIndex(a, path).ok());
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 60; ++i) {
      EXPECT_TRUE(SaveIndex(i % 2 == 0 ? b : a, path).ok());
    }
    done = true;
  });
  size_t loads = 0;
  while (!done || loads < 20) {
    auto loaded = LoadIndex(path);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    if (!loaded.ok()) break;  // still join the writer below
    const std::string bytes = SerializeIndex(*loaded);
    EXPECT_TRUE(bytes == a_bytes || bytes == b_bytes);
    ++loads;
  }
  writer.join();
  std::remove(path.c_str());
}

// A failed save reports IoError and leaves no temporary file behind.
TEST(IndexIoTest, FailedSavesLeaveNoTemporaryFile) {
  namespace fs = std::filesystem;
  const PtaIndex index = BuildOrDie(MakeProjIta());
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("index_io_save." + std::to_string(getpid()));
  fs::remove_all(dir);
  const Status missing = SaveIndex(index, (dir / "x.ptaidx").string());
  EXPECT_EQ(missing.code(), StatusCode::kIoError);
  EXPECT_FALSE(fs::exists(dir));
  // The temporary is written, but the rename onto a directory fails.
  ASSERT_TRUE(fs::create_directories(dir / "target"));
  const Status onto_dir = SaveIndex(index, (dir / "target").string());
  EXPECT_EQ(onto_dir.code(), StatusCode::kIoError);
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename(), "target");
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir);
}

// ---- streaming snapshots -----------------------------------------------

// Rows [from, to) of `rel` as an ingestable chunk (group keys irrelevant
// to the engine, so they are not copied).
SequentialRelation SliceRows(const SequentialRelation& rel, size_t from,
                             size_t to) {
  SequentialRelation chunk(rel.num_aggregates());
  for (size_t i = from; i < to; ++i) {
    chunk.Append(rel.group(i), rel.interval(i), rel.values(i));
  }
  return chunk;
}

TEST(IndexIoSnapshotTest, RestoredEngineReplaysByteIdentically) {
  const SequentialRelation feed = RandomSequential(80, 2, 3, 0.2, 71);
  StreamingOptions options;
  options.size_budget = 12;  // small enough to force early merges

  // The uninterrupted run.
  StreamingPtaEngine uninterrupted(2, options);
  ASSERT_TRUE(uninterrupted.IngestChunk(feed).ok());
  auto expected = uninterrupted.Finalize();
  ASSERT_TRUE(expected.ok());

  // The interrupted run: half the feed, a snapshot, a restore, the rest.
  StreamingPtaEngine first_half(2, options);
  ASSERT_TRUE(
      first_half.IngestChunk(SliceRows(feed, 0, feed.size() / 2)).ok());
  const std::string snapshot = first_half.SaveSnapshot();
  auto restored = StreamingPtaEngine::RestoreSnapshot(snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE((*restored)
                  ->IngestChunk(SliceRows(feed, feed.size() / 2, feed.size()))
                  .ok());
  auto resumed = (*restored)->Finalize();
  ASSERT_TRUE(resumed.ok());

  ExpectByteIdentical(*resumed, *expected);
  EXPECT_TRUE(resumed->BitwiseEquals(*expected));
  EXPECT_EQ(Bits((*restored)->total_error()),
            Bits(uninterrupted.total_error()));
  EXPECT_EQ((*restored)->stats().merges, uninterrupted.stats().merges);
  EXPECT_EQ((*restored)->stats().ingested, uninterrupted.stats().ingested);
}

TEST(IndexIoSnapshotTest, PendingEmissionsSurviveTheSnapshot) {
  // One group, so the mid-stream watermark (begin of the first row of the
  // second half) is compatible with every remaining arrival.
  const SequentialRelation feed = RandomSequential(60, 1, 1, 0.3, 83);
  const size_t half = feed.size() / 2;
  const Chronon w = feed.interval(half).begin;
  StreamingOptions options;
  options.size_budget = 8;

  StreamingPtaEngine uninterrupted(1, options);
  ASSERT_TRUE(uninterrupted.IngestChunk(SliceRows(feed, 0, half)).ok());
  ASSERT_TRUE(uninterrupted.AdvanceWatermark(w).ok());
  ASSERT_TRUE(
      uninterrupted.IngestChunk(SliceRows(feed, half, feed.size())).ok());
  auto expected = uninterrupted.Finalize();
  ASSERT_TRUE(expected.ok());

  // Snapshot *after* the watermark sealed rows but before anyone drained
  // them: the emission buffer must round trip.
  StreamingPtaEngine first_half(1, options);
  ASSERT_TRUE(first_half.IngestChunk(SliceRows(feed, 0, half)).ok());
  ASSERT_TRUE(first_half.AdvanceWatermark(w).ok());
  ASSERT_GT(first_half.pending_rows(), 0u);
  auto restored = StreamingPtaEngine::RestoreSnapshot(first_half.SaveSnapshot());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->pending_rows(), first_half.pending_rows());
  EXPECT_EQ((*restored)->watermark(), first_half.watermark());
  ASSERT_TRUE(
      (*restored)->IngestChunk(SliceRows(feed, half, feed.size())).ok());
  auto resumed = (*restored)->Finalize();
  ASSERT_TRUE(resumed.ok());
  ExpectByteIdentical(*resumed, *expected);
}

TEST(IndexIoSnapshotTest, FinalizedStateRoundTrips) {
  StreamingOptions options;
  options.size_budget = 4;
  StreamingPtaEngine engine(1, options);
  ASSERT_TRUE(engine.IngestChunk(RandomSequential(20, 1, 1, 0.1, 97)).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  auto restored = StreamingPtaEngine::RestoreSnapshot(engine.SaveSnapshot());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // The restored engine remembers it was finalized: a second Finalize and
  // further ingestion fail exactly like on the original.
  EXPECT_EQ((*restored)->Finalize().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(IndexIoSnapshotTest, MalformedSnapshotBytesAreRejected) {
  StreamingOptions options;
  options.size_budget = 6;
  StreamingPtaEngine engine(2, options);
  ASSERT_TRUE(engine.IngestChunk(RandomSequential(30, 2, 2, 0.2, 13)).ok());
  const std::string bytes = engine.SaveSnapshot();

  auto empty = StreamingPtaEngine::RestoreSnapshot("");
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  std::string bad_magic = bytes;
  bad_magic[0] = 'Z';
  EXPECT_EQ(StreamingPtaEngine::RestoreSnapshot(bad_magic).status().code(),
            StatusCode::kInvalidArgument);

  std::string future = bytes;
  future[8] = static_cast<char>(future[8] + 1);
  EXPECT_EQ(StreamingPtaEngine::RestoreSnapshot(future).status().code(),
            StatusCode::kInvalidArgument);

  for (const size_t keep :
       {size_t{3}, size_t{11}, bytes.size() / 3, bytes.size() - 2}) {
    EXPECT_EQ(StreamingPtaEngine::RestoreSnapshot(bytes.substr(0, keep))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "kept " << keep << " bytes";
  }
}

}  // namespace
}  // namespace pta
