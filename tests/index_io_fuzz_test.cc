// The hostile-byte battery for the persistence formats (pta/index_io.h,
// StreamingPtaEngine::RestoreSnapshot): ~100k seeded corruptions — every
// truncation prefix, tens of thousands of random bit flips, and
// checksum-repaired structural mutations that reach the deep validators —
// each of which must come back as a structured Status (or, for a
// semantically harmless mutation, a loadable object), NEVER a crash, an
// over-read, or a runaway allocation. scripts/ci.sh --asan runs this
// under AddressSanitizer + UBSan; --tsan runs it too (persist label).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pta/index.h"
#include "pta/index_io.h"
#include "stream/stream.h"
#include "test_util.h"
#include "util/binio.h"
#include "util/random.h"

namespace pta {
namespace {

using testing::RandomSequential;

// Serialized corpus: one small index (the paper example), one larger
// randomized index with weights and string group keys, and one mid-stream
// snapshot with pending emissions and live chains.
std::string SmallIndexBytes() {
  auto index = PtaIndex::Build(testing::MakeProjIta());
  PTA_CHECK(index.ok());
  return SerializeIndex(*index);
}

std::string BigIndexBytes() {
  const SequentialRelation rel = RandomSequential(150, 3, 5, 0.2, 19);
  PtaIndexOptions options;
  options.weights = {1.0, 0.5, 2.0};
  auto index = PtaIndex::Build(rel, options);
  PTA_CHECK(index.ok());
  return SerializeIndex(*index);
}

std::string SnapshotBytes() {
  const SequentialRelation feed = RandomSequential(100, 2, 1, 0.25, 31);
  StreamingOptions options;
  options.size_budget = 10;
  StreamingPtaEngine engine(2, options);
  PTA_CHECK(engine.IngestChunk(feed).ok());
  PTA_CHECK(engine.AdvanceWatermark(feed.interval(feed.size() / 2).begin).ok());
  return engine.SaveSnapshot();
}

// Recomputes the trailing checksum after a deliberate body mutation, so
// the corruption reaches the structural validators instead of stopping at
// the checksum gate.
std::string FixChecksum(std::string bytes) {
  PTA_CHECK(bytes.size() >= 8);
  const uint64_t sum = io::Checksum64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  return bytes;
}

// Feeding one corrupted buffer to its parser must terminate with a Status
// or a valid object; a valid index additionally answers a cut and a valid
// engine finalizes, proving the loaded state is actually usable.
size_t ProbeIndex(const std::string& bytes) {
  auto loaded = DeserializeIndex(bytes);
  if (loaded.ok()) {
    auto cut = loaded->CutToSize(loaded->cmin());
    (void)cut;
  } else {
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  return 1;
}

size_t ProbeSnapshot(const std::string& bytes) {
  auto restored = StreamingPtaEngine::RestoreSnapshot(bytes);
  if (restored.ok()) {
    auto final = (*restored)->Finalize();
    (void)final;
  } else {
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
  return 1;
}

size_t ProbeBoth(bool is_snapshot, const std::string& bytes) {
  return is_snapshot ? ProbeSnapshot(bytes) : ProbeIndex(bytes);
}

TEST(IndexIoFuzzTest, HundredThousandCorruptionsNeverCrash) {
  const std::vector<std::pair<bool, std::string>> corpus = {
      {false, SmallIndexBytes()},
      {false, BigIndexBytes()},
      {true, SnapshotBytes()},
  };
  size_t cases = 0;

  // 1. Truncation at every prefix length of every corpus entry. A
  //    truncated file is never valid: the checksum footer is gone.
  for (const auto& [is_snapshot, bytes] : corpus) {
    for (size_t keep = 0; keep < bytes.size(); ++keep) {
      const std::string prefix = bytes.substr(0, keep);
      if (is_snapshot) {
        EXPECT_FALSE(StreamingPtaEngine::RestoreSnapshot(prefix).ok())
            << "kept " << keep;
      } else {
        EXPECT_FALSE(DeserializeIndex(prefix).ok()) << "kept " << keep;
      }
      ++cases;
    }
  }

  // 2. Random single- and multi-bit flips. Without a checksum repair a
  //    flip is always rejected (a flip inside the footer corrupts the
  //    stored sum instead).
  Random rng(2026);
  for (const auto& [is_snapshot, bytes] : corpus) {
    for (int iter = 0; iter < 25000; ++iter) {
      std::string corrupt = bytes;
      const int flips = static_cast<int>(rng.UniformInt(1, 4));
      for (int f = 0; f < flips; ++f) {
        const size_t pos =
            static_cast<size_t>(rng.UniformInt(0, corrupt.size() - 1));
        corrupt[pos] =
            static_cast<char>(corrupt[pos] ^ (1 << rng.UniformInt(0, 7)));
      }
      // An even number of flips can land on the same bit and cancel out;
      // only a buffer that actually differs must be rejected.
      if (corrupt == bytes) continue;
      if (is_snapshot) {
        EXPECT_FALSE(StreamingPtaEngine::RestoreSnapshot(corrupt).ok());
      } else {
        EXPECT_FALSE(DeserializeIndex(corrupt).ok());
      }
      ++cases;
    }
  }

  // 3. Checksum-repaired random byte mutations: these get past the gate
  //    and exercise the structural validators (count bounds, dendrogram
  //    consistency, cumulative-error bitwise checks, chain ordering). A
  //    mutation may happen to be semantically harmless — then the loaded
  //    object must be fully usable — but it must never crash.
  for (const auto& [is_snapshot, bytes] : corpus) {
    for (int iter = 0; iter < 6000; ++iter) {
      std::string corrupt = bytes;
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(0, corrupt.size() - 9));
      corrupt[pos] = static_cast<char>(rng.UniformInt(0, 255));
      cases += ProbeBoth(is_snapshot, FixChecksum(std::move(corrupt)));
    }
  }

  // 4. Header-field battery: every byte of the header region crossed with
  //    adversarial values (zero, all-ones, sign/top bits), checksum
  //    repaired. This is where length overflows and version skews live.
  const unsigned char kPoison[] = {0x00, 0x01, 0x7f, 0x80, 0xff};
  for (const auto& [is_snapshot, bytes] : corpus) {
    const size_t header = std::min<size_t>(bytes.size() - 8, 72);
    for (size_t pos = 0; pos < header; ++pos) {
      for (const unsigned char value : kPoison) {
        std::string corrupt = bytes;
        corrupt[pos] = static_cast<char>(value);
        cases += ProbeBoth(is_snapshot, FixChecksum(std::move(corrupt)));
      }
    }
  }

  // 5. Targeted 64-bit length overflows at every count slot of the index
  //    header and at the section-count fields of the snapshot.
  for (const auto& [is_snapshot, bytes] : corpus) {
    for (size_t slot = 0; slot < 6; ++slot) {
      for (const uint64_t huge :
           {uint64_t{1} << 32, uint64_t{1} << 48, uint64_t{1} << 60,
            ~uint64_t{0}}) {
        std::string corrupt = bytes;
        const size_t off = 16 + 8 * slot;
        if (off + 8 > corrupt.size() - 8) continue;
        std::memcpy(&corrupt[off], &huge, sizeof(huge));
        cases += ProbeBoth(is_snapshot, FixChecksum(std::move(corrupt)));
      }
    }
  }

  EXPECT_GE(cases, 100000u) << "the battery shrank below its ~100k floor";
}

// Non-finite doubles are well-formed bytes, so only the value checks can
// catch them. A NaN or infinity in a leaf value, a merge payload or a merge
// delta must come back as InvalidArgument, whether it is handed to
// FromParts directly or planted in the serialized bytes (checksum
// repaired).
TEST(IndexIoFuzzTest, NonFiniteValuesAreRejected) {
  const SequentialRelation rel = RandomSequential(150, 3, 5, 0.2, 19);
  auto index = PtaIndex::Build(rel);
  ASSERT_TRUE(index.ok());
  const std::vector<double>& merge_values = index->merge_values();
  const std::vector<double>& deltas = index->merge_deltas();
  ASSERT_FALSE(deltas.empty());
  const std::string bytes = SerializeIndex(*index);
  const SequentialRelation& input = index->input();
  const std::vector<double> leaf_values(
      input.values(0), input.values(0) + input.size() * input.num_aggregates());

  // The leaves with value k (row-major) replaced.
  const auto poisoned_leaves = [&](size_t k, double bad) {
    const SequentialRelation& in = input;
    const size_t p = in.num_aggregates();
    SequentialRelation out(p, in.value_names());
    std::vector<double> row(p);
    for (size_t i = 0; i < in.size(); ++i) {
      std::copy(in.values(i), in.values(i) + p, row.begin());
      if (i == k / p) row[k % p] = bad;
      out.Append(in.group(i), in.interval(i), row.data());
    }
    out.SetGroupKeys(in.group_keys());
    return out;
  };
  // The serialized bytes with the only occurrence of `target` replaced;
  // empty when the value is not unique in the file.
  const auto poisoned_bytes = [&](double target, double bad) {
    char pattern[sizeof(double)];
    std::memcpy(pattern, &target, sizeof(pattern));
    const std::string needle(pattern, sizeof(pattern));
    const size_t at = bytes.find(needle);
    if (at == std::string::npos || bytes.rfind(needle) != at) {
      return std::string();
    }
    std::string out = bytes;
    std::memcpy(&out[at], &bad, sizeof(bad));
    return FixChecksum(std::move(out));
  };

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    // Direct: one part poisoned at a time.
    for (int part = 0; part < 3; ++part) {
      std::vector<double> values = merge_values;
      std::vector<double> d = deltas;
      SequentialRelation leaves = poisoned_leaves(part == 0 ? 7 : 0, bad);
      if (part != 0) leaves = input;
      if (part == 1) values[values.size() / 2] = bad;
      if (part == 2) d[d.size() / 2] = bad;
      auto loaded = PtaIndex::FromParts(
          std::move(leaves), index->merge_nodes(), std::move(values),
          std::move(d), index->cumulative_errors(), index->weights(),
          index->merge_across_gaps());
      ASSERT_FALSE(loaded.ok()) << "part " << part << " value " << bad;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(loaded.status().message().find("non-finite"),
                std::string::npos)
          << loaded.status().message();
    }

    // Through the file format: the first uniquely-encoded value of each
    // section.
    for (const std::vector<double>* section :
         {&leaf_values, &merge_values, &deltas}) {
      std::string corrupt;
      for (size_t k = 0; k < section->size() && corrupt.empty(); ++k) {
        corrupt = poisoned_bytes((*section)[k], bad);
      }
      ASSERT_FALSE(corrupt.empty());
      auto loaded = DeserializeIndex(corrupt);
      ASSERT_FALSE(loaded.ok()) << bad;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(loaded.status().message().find("non-finite"),
                std::string::npos)
          << loaded.status().message();
    }
  }

  // A snapshot with three sealed-but-pending rows and one live row. The
  // live row heads its chain, so its key is infinite whatever its value: a
  // poisoned value there passes the bitwise key check and only the
  // value check can catch it.
  StreamingOptions options;
  options.size_budget = 100;
  StreamingPtaEngine engine(1, options);
  for (const auto& [t, v] : std::vector<std::pair<Chronon, double>>{
           {0, 1.25}, {1, 2.5}, {2, 3.75}, {10, 7.75}}) {
    ASSERT_TRUE(engine.Ingest(Segment{0, Interval(t, t), {v}}).ok());
  }
  ASSERT_TRUE(engine.AdvanceWatermark(5).ok());
  ASSERT_EQ(engine.pending_rows(), 3u);
  ASSERT_EQ(engine.live_rows(), 1u);
  const std::string snapshot = engine.SaveSnapshot();
  ASSERT_TRUE(StreamingPtaEngine::RestoreSnapshot(snapshot).ok());
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (const double target : {1.25, 7.75}) {  // a pending, a chain value
      char pattern[sizeof(double)];
      std::memcpy(pattern, &target, sizeof(pattern));
      const std::string needle(pattern, sizeof(pattern));
      const size_t at = snapshot.find(needle);
      ASSERT_NE(at, std::string::npos);
      ASSERT_EQ(snapshot.rfind(needle), at);
      std::string corrupt = snapshot;
      std::memcpy(&corrupt[at], &bad, sizeof(bad));
      auto restored = StreamingPtaEngine::RestoreSnapshot(FixChecksum(corrupt));
      ASSERT_FALSE(restored.ok()) << target << " -> " << bad;
      EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(restored.status().message().find("non-finite"),
                std::string::npos)
          << restored.status().message();
    }
  }
}

// LoadIndex maps the file (or reads it when it cannot be mapped) and runs
// the one parser, so a file holding any byte string loads exactly as
// DeserializeIndex parses those bytes: same status code, same message, and
// on success the same index.
TEST(IndexIoFuzzTest, LoadIndexMatchesDeserializeIndex) {
  const std::string path = ::testing::TempDir() + "index_io_fuzz." +
                           std::to_string(getpid()) + ".ptaidx";
  size_t compared = 0;
  const auto expect_same = [&](const std::string& bytes) {
    ASSERT_TRUE(io::WriteFile(path, bytes).ok());
    auto from_file = LoadIndex(path);
    auto from_bytes = DeserializeIndex(bytes);
    ASSERT_EQ(from_file.ok(), from_bytes.ok()) << bytes.size() << " bytes";
    if (from_file.ok()) {
      EXPECT_EQ(SerializeIndex(*from_file), SerializeIndex(*from_bytes));
    } else {
      EXPECT_EQ(from_file.status().code(), from_bytes.status().code());
      EXPECT_EQ(from_file.status().message(), from_bytes.status().message());
    }
    ++compared;
  };

  Random rng(19);
  for (const std::string& bytes : {SmallIndexBytes(), BigIndexBytes()}) {
    auto index = DeserializeIndex(bytes);
    ASSERT_TRUE(index.ok());
    const size_t n = index->input_size();
    const size_t p = index->num_aggregates();
    const size_t m = index->merges();
    // Section starts of the format: the header fields, the leaf columns,
    // then (counted back from the end) the weights, merge nodes, payloads,
    // deltas, the cumulative curve and the checksum.
    const size_t leaves = 64;
    const size_t keys = leaves + 4 * n + 16 * n + 8 * n * p;
    const size_t checksum = bytes.size() - 8;
    const size_t cumulative = checksum - 8 * (m + 1);
    const size_t deltas = cumulative - 8 * m;
    const size_t payloads = deltas - 8 * m * p;
    const size_t nodes = payloads - 28 * m;
    const size_t weights = nodes - 8 * index->weights().size();
    for (const size_t boundary :
         {size_t{0}, size_t{8}, size_t{12}, size_t{16}, leaves, leaves + 4 * n,
          leaves + 20 * n, keys, weights, nodes, payloads, deltas, cumulative,
          checksum, bytes.size()}) {
      for (const size_t keep : {boundary - 1, boundary, boundary + 1}) {
        if (keep <= bytes.size()) expect_same(bytes.substr(0, keep));
      }
    }
    // Byte flips, half of them checksum-repaired so they reach FromParts.
    for (int iter = 0; iter < 200; ++iter) {
      std::string corrupt = bytes;
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(0, corrupt.size() - 1));
      corrupt[pos] =
          static_cast<char>(corrupt[pos] ^ (1 << rng.UniformInt(0, 7)));
      expect_same(iter % 2 == 0 ? corrupt : FixChecksum(std::move(corrupt)));
    }
  }
  expect_same("");                           // empty: read, not mapped
  expect_same(SmallIndexBytes().substr(0, 20));  // shorter than the header
  EXPECT_GE(compared, 400u);
  std::remove(path.c_str());

  // A directory cannot be read: the same IoError as ReadFile.
  std::string ignored;
  const Status read_dir = io::ReadFile(::testing::TempDir(), &ignored);
  auto load_dir = LoadIndex(::testing::TempDir());
  ASSERT_FALSE(load_dir.ok());
  EXPECT_EQ(load_dir.status().code(), StatusCode::kIoError);
  EXPECT_EQ(load_dir.status().message(), read_dir.message());

  // A FIFO cannot be mapped: LoadIndex reads it as a stream instead.
  const std::string fifo = path + ".fifo";
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
  const std::string bytes = BigIndexBytes();
  std::thread writer([&] {
    std::FILE* f = std::fopen(fifo.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  });
  auto from_fifo = LoadIndex(fifo);
  writer.join();
  std::remove(fifo.c_str());
  ASSERT_TRUE(from_fifo.ok()) << from_fifo.status().ToString();
  EXPECT_EQ(SerializeIndex(*from_fifo), bytes);
}

}  // namespace
}  // namespace pta
