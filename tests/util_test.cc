#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/mutex.h"
#include "util/parallel_sort.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace pta {
namespace {

TEST(StatsTest, MeanAndDeviation) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(SampleStdDev({5.0}), 0.0);
  EXPECT_NEAR(SampleStdDev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
              std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_NEAR(StandardError({1.0, 3.0}), std::sqrt(2.0) / std::sqrt(2.0),
              1e-12);
}

TEST(StatsTest, NormalizeTo) {
  const std::vector<double> out = NormalizeTo({2.0, 4.0, 6.0}, 100.0);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 50.0);
  EXPECT_DOUBLE_EQ(out[2], 100.0);
  // Constant input maps to zeros; empty stays empty.
  EXPECT_EQ(NormalizeTo({5.0, 5.0}, 100.0), (std::vector<double>{0.0, 0.0}));
  EXPECT_TRUE(NormalizeTo({}, 100.0).empty());
}

TEST(StatsTest, RunningStatsTracksExtremes) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  for (double v : {3.0, -1.0, 7.0}) stats.Add(v);
  EXPECT_EQ(stats.count(), 3u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.min(), -1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.0);
}

TEST(RandomTest, DeterministicPerSeed) {
  Random a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.NextUint64();
    EXPECT_EQ(va, b.NextUint64());
    (void)c.NextUint64();
  }
  Random a2(123), c2(124);
  EXPECT_NE(a2.NextUint64(), c2.NextUint64());
}

TEST(RandomTest, UniformRangesAreRespected) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(d, -2.0);
    EXPECT_LT(d, 3.0);
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  // Degenerate range.
  EXPECT_EQ(rng.UniformInt(9, 9), 9);
}

TEST(RandomTest, BernoulliAndGaussianAreCalibrated) {
  Random rng(11);
  int heads = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) heads += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.3, 0.02);

  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < trials; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.05);
  EXPECT_NEAR(sum2 / trials, 1.0, 0.05);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  const double t0 = watch.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  // Restart resets the origin.
  watch.Restart();
  EXPECT_LE(watch.ElapsedSeconds(), t0 + 1.0);
  EXPECT_GE(watch.ElapsedMillis(), 0.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"A", "Long header"});
  table.AddRow({"xxxxxx", "1"});
  table.AddRow({"y", "22"});
  const std::string out = table.ToString();
  EXPECT_EQ(out,
            "| A      | Long header |\n"
            "|--------|-------------|\n"
            "| xxxxxx | 1           |\n"
            "| y      | 22          |\n");
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(int64_t{-42}), "-42");
  EXPECT_EQ(TablePrinter::Fmt(uint64_t{7}), "7");
  EXPECT_EQ(TablePrinter::FmtPercent(12.345, 1), "12.3%");
  EXPECT_EQ(TablePrinter::FmtSci(12345.0, 2), "1.23e+04");
}

TEST(TablePrinterTest, RejectsMisshapenRows) {
  TablePrinter table({"A", "B"});
  EXPECT_DEATH(table.AddRow({"only one"}), "row width");
}

// ---- SharedMutex: writer preference --------------------------------------

// R1 holds the lock shared and W queues for it exclusive. R2 asks for it
// shared after W queued, so R2 must not get in before W has held and
// released it — a reader-preferring lock lets R2 in at once. Only order is
// asserted: the sleep gives R2 time to block, and a shorter one can only
// make the test weaker, never flaky.
TEST(SharedMutexTest, WaitingWriterBlocksLaterReaders) {
  SharedMutex mu;
  Mutex log_mu;
  std::vector<std::string> log;
  const auto note = [&](const char* event) {
    MutexLock lock(&log_mu);
    log.push_back(event);
  };

  mu.LockShared();  // R1
  std::thread writer([&] {
    mu.Lock();
    note("W holds");
    note("W releases");
    mu.Unlock();
  });
  while (mu.waiting_writers() == 0) std::this_thread::yield();
  std::atomic<bool> r2_asking{false};
  std::thread reader([&] {
    r2_asking = true;
    mu.LockShared();
    note("R2 holds");
    mu.UnlockShared();
  });
  while (!r2_asking) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  note("R1 releases");
  mu.UnlockShared();
  writer.join();
  reader.join();

  MutexLock lock(&log_mu);
  EXPECT_EQ(log, (std::vector<std::string>{"R1 releases", "W holds",
                                           "W releases", "R2 holds"}));
}

// Four threads take the lock shared back to back, each hold overlapping
// the next; a writer must still get in. The timeout is generous: it only
// turns a starved writer into a failure instead of a hang.
TEST(SharedMutexTest, OverlappingReadersDoNotStarveAWriter) {
  SharedMutex mu;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop) {
        ReaderMutexLock lock(&mu);
        reads.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  while (reads.load() < 100) std::this_thread::yield();
  std::promise<void> acquired;
  std::thread writer([&] {
    for (int i = 0; i < 20; ++i) {
      WriterMutexLock lock(&mu);
    }
    acquired.set_value();
  });
  const auto status =
      acquired.get_future().wait_for(std::chrono::seconds(60));
  stop = true;
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(status, std::future_status::ready)
      << "20 writes did not get in within 60 s of back-to-back reads";
}

// ---- ParallelIntroSort ---------------------------------------------------

struct Keyed {
  int key;
  int id;  // the input position: tells tied keys apart after sorting
};

bool KeyLess(const Keyed& a, const Keyed& b) { return a.key < b.key; }

// Tie-heavy input: keys in [0, distinct), so equal keys abound and the
// final order of ties is the sort's own permutation.
std::vector<Keyed> TieHeavy(size_t n, int distinct, uint64_t seed) {
  Random rng(seed);
  std::vector<Keyed> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = {static_cast<int>(rng.UniformInt(0, distinct - 1)),
              static_cast<int>(i)};
  }
  return out;
}

std::vector<int> Ids(const std::vector<Keyed>& v) {
  std::vector<int> out;
  out.reserve(v.size());
  for (const Keyed& k : v) out.push_back(k.id);
  return out;
}

std::vector<int> SortedIds(std::vector<Keyed> v, ThreadPool* pool,
                           ptrdiff_t grain, ptrdiff_t depth_limit = -1) {
  ParallelIntroSort(v.data(), v.data() + v.size(), KeyLess, pool, grain,
                    depth_limit);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), KeyLess));
  return Ids(v);
}

#ifdef __GLIBCXX__
// The helper reproduces libstdc++'s std::sort permutation, ties included,
// on one thread and on four, at sizes around the insertion threshold (16)
// and around the task grain.
TEST(ParallelIntroSortTest, LeavesStdSortPermutation) {
  ThreadPool pool(4);
  constexpr ptrdiff_t kGrain = 64;
  uint64_t seed = 1;
  for (const size_t n : {0, 1, 2, 15, 16, 17, 18, 33, 63, 64, 65, 66, 129,
                         1000, 4097, 30000}) {
    for (const int distinct : {1, 2, 7, 1000}) {
      std::vector<Keyed> input = TieHeavy(n, distinct, seed++);
      std::vector<Keyed> expected = input;
      std::sort(expected.begin(), expected.end(), KeyLess);
      EXPECT_EQ(SortedIds(input, nullptr, kGrain), Ids(expected))
          << "serial n=" << n << " distinct=" << distinct;
      EXPECT_EQ(SortedIds(input, &pool, kGrain), Ids(expected))
          << "pool n=" << n << " distinct=" << distinct;
      EXPECT_EQ(SortedIds(input, &pool, kParallelSortGrain), Ids(expected))
          << "default grain n=" << n << " distinct=" << distinct;
    }
  }
  // Already sorted and reversed inputs take other partition paths.
  std::vector<Keyed> ascending(5000), descending(5000);
  for (int i = 0; i < 5000; ++i) {
    ascending[i] = {i / 3, i};
    descending[i] = {(5000 - i) / 3, i};
  }
  for (const std::vector<Keyed>& input : {ascending, descending}) {
    std::vector<Keyed> expected = input;
    std::sort(expected.begin(), expected.end(), KeyLess);
    EXPECT_EQ(SortedIds(input, &pool, kGrain), Ids(expected));
  }
}
#endif  // __GLIBCXX__

// A small depth limit sends most ranges down the partial-sort path, inside
// pool tasks too; the pooled run must still match the serial one.
TEST(ParallelIntroSortTest, DepthLimitedRunsMatchSerial) {
  ThreadPool pool(4);
  uint64_t seed = 100;
  for (const size_t n : {17, 200, 3000, 20000}) {
    for (const ptrdiff_t depth : {0, 1, 2, 3}) {
      const std::vector<Keyed> input = TieHeavy(n, 5, seed++);
      EXPECT_EQ(SortedIds(input, &pool, 32, depth),
                SortedIds(input, nullptr, 32, depth))
          << "n=" << n << " depth=" << depth;
    }
  }
}

}  // namespace
}  // namespace pta
