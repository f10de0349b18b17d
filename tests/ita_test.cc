#include "core/ita.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "test_util.h"

namespace pta {
namespace {

using testing::MakeProjIta;
using testing::MakeProjRelation;

ItaSpec ProjAvgSpec() { return {{"Proj"}, {Avg("Sal", "AvgSal")}}; }

TEST(ItaTest, RunningExampleMatchesFig1c) {
  const TemporalRelation proj = MakeProjRelation();
  auto result = Ita(proj, ProjAvgSpec());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(MakeProjIta()));
  // Group keys follow the deterministic group order A < B.
  ASSERT_EQ(result->group_keys().size(), 2u);
  EXPECT_EQ(result->group_keys()[0][0].AsString(), "A");
  EXPECT_EQ(result->group_keys()[1][0].AsString(), "B");
  EXPECT_EQ(result->value_names(), (std::vector<std::string>{"AvgSal"}));
}

TEST(ItaTest, ResultIsAlwaysSequentialAndCoalesced) {
  const TemporalRelation proj = MakeProjRelation();
  auto result = Ita(proj, ProjAvgSpec());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Validate().ok());
  // Coalescing: no adjacent pair may carry identical values.
  for (size_t i = 0; i + 1 < result->size(); ++i) {
    if (!result->AdjacentPair(i)) continue;
    bool all_equal = true;
    for (size_t d = 0; d < result->num_aggregates(); ++d) {
      if (result->value(i, d) != result->value(i + 1, d)) all_equal = false;
    }
    EXPECT_FALSE(all_equal) << "uncoalesced pair at " << i;
  }
}

TEST(ItaTest, StreamingProducesSameSegmentsAsBatch) {
  const TemporalRelation proj = MakeProjRelation();
  auto stream = ItaStream::Create(proj, ProjAvgSpec());
  ASSERT_TRUE(stream.ok());
  SequentialRelation drained((*stream)->num_aggregates());
  Segment seg;
  while ((*stream)->Next(&seg)) drained.Append(seg);
  EXPECT_TRUE(drained.ApproxEquals(MakeProjIta()));
}

TEST(ItaTest, CountAggregatesActiveTuples) {
  const TemporalRelation proj = MakeProjRelation();
  auto result = Ita(proj, {{"Proj"}, {Count("N")}});
  ASSERT_TRUE(result.ok());
  // Project A: 1 tuple in [1,2], 2 in [3,3], 3 in [4,4], 2 in [5,6],
  // 1 in [7,7]; project B: 1 in [4,5], 1 in [7,8].
  SequentialRelation expected(1);
  auto add = [&expected](int32_t g, Chronon b, Chronon e, double v) {
    expected.Append(g, Interval(b, e), &v);
  };
  add(0, 1, 2, 1);
  add(0, 3, 3, 2);
  add(0, 4, 4, 3);
  add(0, 5, 6, 2);
  add(0, 7, 7, 1);
  add(1, 4, 5, 1);
  add(1, 7, 8, 1);
  EXPECT_TRUE(result->ApproxEquals(expected));
}

TEST(ItaTest, MinMaxTrackTheActiveSet) {
  const TemporalRelation proj = MakeProjRelation();
  auto result = Ita(proj, {{"Proj"}, {Min("Sal", "MinSal"),
                                      Max("Sal", "MaxSal")}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_aggregates(), 2u);
  // At month 4 project A has {800, 400, 300}.
  bool checked = false;
  for (size_t i = 0; i < result->size(); ++i) {
    if (result->group(i) == 0 && result->interval(i).Contains(4)) {
      EXPECT_DOUBLE_EQ(result->value(i, 0), 300.0);
      EXPECT_DOUBLE_EQ(result->value(i, 1), 800.0);
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(ItaTest, NoGroupingProducesOneGroup) {
  const TemporalRelation proj = MakeProjRelation();
  auto result = Ita(proj, {{}, {Sum("Sal", "SumSal")}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->group_keys().size(), 1u);
  EXPECT_TRUE(result->group_keys()[0].empty());
  // At month 4 all five... four tuples are active: 800+400+300+500 = 2000.
  for (size_t i = 0; i < result->size(); ++i) {
    if (result->interval(i).Contains(4)) {
      EXPECT_DOUBLE_EQ(result->value(i, 0), 2000.0);
    }
  }
}

TEST(ItaTest, GapsWithinGroupsArePreserved) {
  // Project B has no tuple at month 6 -> gap between [4,5] and [7,8].
  const TemporalRelation proj = MakeProjRelation();
  auto result = Ita(proj, ProjAvgSpec());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->CMin(), 3u);  // runs: A[1..7], B[4..5], B[7..8]
}

TEST(ItaTest, ValueEquivalentAdjacentTuplesCoalesce) {
  // Two consecutive tuples with the same value merge into one interval.
  TemporalRelation rel{Schema({{"V", ValueType::kDouble}})};
  ASSERT_TRUE(rel.Insert({Value(5.0)}, Interval(1, 3)).ok());
  ASSERT_TRUE(rel.Insert({Value(5.0)}, Interval(4, 9)).ok());
  auto result = Ita(rel, {{}, {Avg("V", "AvgV")}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->interval(0), Interval(1, 9));
  EXPECT_DOUBLE_EQ(result->value(0, 0), 5.0);
}

TEST(ItaTest, ResultSizeIsBoundedByTwiceInput) {
  // Sec. 3: the ITA result contains up to 2n - 1 tuples.
  TemporalRelation rel{Schema({{"V", ValueType::kDouble}})};
  Random rng(99);
  // Overlapping random tuples.
  for (int i = 0; i < 40; ++i) {
    const Chronon b = rng.UniformInt(0, 60);
    ASSERT_TRUE(rel.Insert({Value(rng.Uniform(0, 10))},
                           Interval(b, b + rng.UniformInt(0, 20)))
                    .ok());
  }
  auto result = Ita(rel, {{}, {Avg("V", "A")}});
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->size(), 2 * rel.size() - 1);
  EXPECT_TRUE(result->Validate().ok());
}

TEST(ItaTest, RejectsUnknownAttributesAndEmptySpecs) {
  const TemporalRelation proj = MakeProjRelation();
  EXPECT_FALSE(Ita(proj, {{"Nope"}, {Avg("Sal", "A")}}).ok());
  EXPECT_FALSE(Ita(proj, {{"Proj"}, {Avg("Nope", "A")}}).ok());
  EXPECT_FALSE(Ita(proj, {{"Proj"}, {}}).ok());
  // Aggregating a non-numeric attribute fails.
  EXPECT_FALSE(Ita(proj, {{"Proj"}, {Avg("Empl", "A")}}).ok());
}

TEST(ItaTest, EmptyRelationYieldsEmptyResult) {
  TemporalRelation rel{Schema({{"V", ValueType::kDouble}})};
  auto result = Ita(rel, {{}, {Avg("V", "A")}});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

// ---- the sweep's bits, pinned ------------------------------------------

// A tie-heavy relation: 600 tuples over 12 (string, int) groups, begins in
// [0, 40] and durations of 1-3 chronons, so most instants carry several
// simultaneous Add/Remove events. Running sums then depend on the exact
// event order inside each instant.
TemporalRelation TieHeavyRelation() {
  TemporalRelation rel{Schema({{"Site", ValueType::kString},
                               {"Rack", ValueType::kInt64},
                               {"Load", ValueType::kInt64},
                               {"Temp", ValueType::kDouble}})};
  const char* sites[] = {"north", "south", "east"};
  Random rng(2024);
  for (int i = 0; i < 600; ++i) {
    const Chronon b = rng.UniformInt(0, 40);
    const Chronon e = b + rng.UniformInt(0, 2);
    PTA_CHECK(rel.Insert({Value(sites[rng.UniformInt(0, 2)]),
                          Value(rng.UniformInt(0, 3)),
                          Value(rng.UniformInt(-1000, 1000)),
                          Value(rng.Uniform(-50.0, 50.0))},
                         Interval(b, e))
                  .ok());
  }
  return rel;
}

// FNV-1a over the group keys, every interval, and every value's bits.
uint64_t ItaDigest(const SequentialRelation& rel) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const GroupKey& key : rel.group_keys()) {
    const std::string text = GroupKeyToString(key);
    mix(text.data(), text.size());
  }
  for (size_t i = 0; i < rel.size(); ++i) {
    const int32_t g = rel.group(i);
    mix(&g, sizeof(g));
    mix(&rel.interval(i).begin, sizeof(Chronon));
    mix(&rel.interval(i).end, sizeof(Chronon));
    for (size_t d = 0; d < rel.num_aggregates(); ++d) {
      const double v = rel.value(i, d);
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      mix(&bits, sizeof(bits));
    }
  }
  return h;
}

TEST(ItaTest, TieHeavySweepBitsArePinned) {
  const TemporalRelation rel = TieHeavyRelation();
  const ItaSpec spec{{"Site", "Rack"},
                     {Avg("Temp", "AvgTemp"), Sum("Load", "SumLoad"),
                      Count("N"), Min("Load", "MinLoad"),
                      Max("Temp", "MaxTemp"), Sum("Temp", "SumTemp"),
                      Avg("Load", "AvgLoad"), Min("Temp", "MinTemp"),
                      Max("Load", "MaxLoad")}};
  auto result = Ita(rel, spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->group_keys().size(), 12u);
  EXPECT_TRUE(result->Validate().ok());
  // The pinned output bits: any change to the same-instant event order or
  // to the running-sum arithmetic moves them.
  EXPECT_EQ(result->size(), 442u);
  EXPECT_EQ(ItaDigest(*result), 9135676473886950055ULL);
}

// One group of 40,000 tuples in 5,000 clusters: each cluster packs about
// eight tuples of 1-4 chronons into a 5-chronon window, and consecutive
// clusters are 10 chronons apart. Most instants carry several simultaneous
// events, and every cluster is followed by a gap — enough zero-coverage
// instants for the sweep to split the group into many units.
TemporalRelation ClusteredSingleGroup() {
  TemporalRelation rel{Schema({{"Load", ValueType::kInt64},
                               {"Temp", ValueType::kDouble}})};
  Random rng(77);
  for (int i = 0; i < 40000; ++i) {
    const Chronon b = 10 * rng.UniformInt(0, 4999) + rng.UniformInt(0, 1);
    const Chronon e = b + rng.UniformInt(0, 3);
    PTA_CHECK(rel.Insert({Value(rng.UniformInt(-1000, 1000)),
                          Value(rng.Uniform(-50.0, 50.0))},
                         Interval(b, e))
                  .ok());
  }
  return rel;
}

ItaSpec ClusteredSpec() {
  return {{},
          {Avg("Temp", "AvgTemp"), Sum("Load", "SumLoad"), Count("N"),
           Min("Temp", "MinTemp"), Max("Load", "MaxLoad")}};
}

// 30,000 tuples over 40 x 75 (string, int) groups, in random group order.
TemporalRelation ManySmallGroups() {
  TemporalRelation rel{Schema({{"Dept", ValueType::kString},
                               {"EmpNo", ValueType::kInt64},
                               {"Sal", ValueType::kDouble},
                               {"Bonus", ValueType::kInt64}})};
  Random rng(4242);
  for (int i = 0; i < 30000; ++i) {
    const Chronon b = rng.UniformInt(0, 400);
    const Chronon e = b + rng.UniformInt(0, 30);
    PTA_CHECK(rel.Insert({Value("d" + std::to_string(rng.UniformInt(0, 39))),
                          Value(rng.UniformInt(0, 74)),
                          Value(rng.Uniform(1000.0, 9000.0)),
                          Value(rng.UniformInt(0, 500))},
                         Interval(b, e))
                  .ok());
  }
  return rel;
}

ItaSpec ManySmallGroupsSpec() {
  return {{"Dept", "EmpNo"},
          {Avg("Sal", "AvgSal"), Sum("Bonus", "SumBonus"), Count("N"),
           Min("Sal", "MinSal"), Max("Bonus", "MaxBonus"),
           Sum("Sal", "SumSal")}};
}

std::string GroupKeysToString(const SequentialRelation& rel) {
  std::string out;
  for (const GroupKey& key : rel.group_keys()) out += GroupKeyToString(key);
  return out;
}

SequentialRelation Drain(ItaStream& stream) {
  SequentialRelation out(stream.num_aggregates(), stream.value_names());
  Segment seg;
  while (stream.Next(&seg)) out.Append(seg);
  out.SetGroupKeys(stream.group_keys());
  return out;
}

TEST(ItaTest, ClusteredSingleGroupBitsArePinned) {
  const TemporalRelation rel = ClusteredSingleGroup();
  auto result = Ita(rel, ClusteredSpec());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->Validate().ok());
  EXPECT_EQ(result->size(), 20944u);
  EXPECT_EQ(ItaDigest(*result), 7667805839679002181ULL);
}

TEST(ItaTest, ManySmallGroupsBitsArePinned) {
  const TemporalRelation rel = ManySmallGroups();
  auto result = Ita(rel, ManySmallGroupsSpec());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->group_keys().size(), 3000u);
  EXPECT_TRUE(result->Validate().ok());
  EXPECT_EQ(result->size(), 38430u);
  EXPECT_EQ(ItaDigest(*result), 13010733965519315863ULL);
}

TEST(ItaTest, StreamDrainAndThreadCountsMatchBatch) {
  const std::pair<TemporalRelation, ItaSpec> inputs[] = {
      {ClusteredSingleGroup(), ClusteredSpec()},
      {ManySmallGroups(), ManySmallGroupsSpec()}};
  for (const auto& [rel, spec] : inputs) {
    auto batch = Ita(rel, spec);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    auto stream = ItaStream::Create(rel, spec);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    const SequentialRelation drained = Drain(**stream);
    testing::ExpectByteIdentical(drained, *batch);
    EXPECT_EQ(GroupKeysToString(drained), GroupKeysToString(*batch));
    // The output never depends on the thread count.
    for (const size_t threads : {1, 2, 3, 8}) {
      auto threaded = Ita(rel, spec, threads);
      ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
      testing::ExpectByteIdentical(*threaded, *batch);
      EXPECT_EQ(GroupKeysToString(*threaded), GroupKeysToString(*batch));
      auto threaded_stream = ItaStream::Create(rel, spec, threads);
      ASSERT_TRUE(threaded_stream.ok());
      testing::ExpectByteIdentical(Drain(**threaded_stream), *batch);
    }
  }
}

// One group of 70,000 tuples, 140,000 events (past 2^17): the group is a
// single task, so its event sort runs on the pool (util/parallel_sort.h).
// Begins fall in [0, 9999], so nearly every instant carries tied events and
// the running sums would show any change in their order.
TEST(ItaTest, LargeSingleGroupSortsOnThePoolWithTheSerialBits) {
  TemporalRelation rel{Schema({{"Load", ValueType::kInt64},
                               {"Temp", ValueType::kDouble}})};
  Random rng(2718);
  for (int i = 0; i < 70000; ++i) {
    const Chronon b = rng.UniformInt(0, 9999);
    const Chronon e = b + rng.UniformInt(0, 40);
    PTA_CHECK(rel.Insert({Value(rng.UniformInt(-1000, 1000)),
                          Value(rng.Uniform(-50.0, 50.0))},
                         Interval(b, e))
                  .ok());
  }
  const ItaSpec spec = ClusteredSpec();
  auto serial = Ita(rel, spec, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(serial->Validate().ok());
  auto pooled = Ita(rel, spec, 4);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  testing::ExpectByteIdentical(*pooled, *serial);
  EXPECT_EQ(ItaDigest(*pooled), ItaDigest(*serial));
}

TEST(ItaTest, SignedZeroGroupValuesShareOneGroup) {
  // -0.0 and +0.0 are one grouping value; the stored key is the one seen
  // first in input order, so it prints as "-0".
  TemporalRelation rel{Schema({{"G", ValueType::kDouble},
                               {"V", ValueType::kInt64}})};
  for (int i = 0; i < 20000; ++i) {
    const double g = i == 0 ? -0.0 : (i % 3 == 0 ? 0.0 : 1.5);
    PTA_CHECK(rel.Insert({Value(g), Value(i % 7)}, Interval(i, i + 2)).ok());
  }
  auto result = Ita(rel, {{"G"}, {Sum("V", "S")}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->group_keys().size(), 2u);
  EXPECT_EQ(GroupKeyToString(result->group_keys()[0]), "(-0)");
  EXPECT_TRUE(std::signbit(result->group_keys()[0][0].AsDoubleExact()));
  EXPECT_EQ(GroupKeyToString(result->group_keys()[1]), "(1.5)");
}

// ---- hostile inputs: rejected with a located InvalidArgument -----------

TemporalRelation OneDoubleColumn(double bad) {
  TemporalRelation rel{Schema({{"G", ValueType::kInt64},
                               {"V", ValueType::kDouble}})};
  PTA_CHECK(rel.Insert({Value(0), Value(1.0)}, Interval(0, 4)).ok());
  PTA_CHECK(rel.Insert({Value(0), Value(bad)}, Interval(2, 6)).ok());
  PTA_CHECK(rel.Insert({Value(1), Value(3.0)}, Interval(1, 1)).ok());
  return rel;
}

TEST(ItaTest, RejectsNonFiniteAggregateInputs) {
  const double bads[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (const double bad : bads) {
    const TemporalRelation rel = OneDoubleColumn(bad);
    for (const AggregateSpec& agg : {Avg("V", "A"), Max("V", "M")}) {
      auto stream = ItaStream::Create(rel, {{"G"}, {agg}});
      ASSERT_FALSE(stream.ok()) << bad << " " << AggKindName(agg.kind);
      EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
      const std::string& msg = stream.status().message();
      EXPECT_NE(msg.find("'V'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("tuple 1"), std::string::npos) << msg;
      EXPECT_FALSE(Ita(rel, {{"G"}, {agg}}).ok());
    }
  }
  // COUNT reads no attribute, so it is unaffected by the bad cell.
  auto count = Ita(OneDoubleColumn(std::nan("")), {{"G"}, {Count("N")}});
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->size(), 4u);
}

TEST(ItaTest, RejectsTuplesEndingAtTheMaximalChronon) {
  constexpr Chronon kMax = std::numeric_limits<Chronon>::max();
  TemporalRelation rel{Schema({{"V", ValueType::kDouble}})};
  ASSERT_TRUE(rel.Insert({Value(1.0)}, Interval(0, 5)).ok());
  ASSERT_TRUE(rel.Insert({Value(2.0)}, Interval(kMax - 3, kMax)).ok());
  auto stream = ItaStream::Create(rel, {{}, {Count("N")}});
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stream.status().message().find("tuple 1"), std::string::npos)
      << stream.status().message();

  // One chronon short of the maximum is still a valid end.
  TemporalRelation edge{Schema({{"V", ValueType::kDouble}})};
  ASSERT_TRUE(edge.Insert({Value(1.0)}, Interval(kMax - 9, kMax - 1)).ok());
  ASSERT_TRUE(edge.Insert({Value(2.0)}, Interval(kMax - 4, kMax - 1)).ok());
  auto result = Ita(edge, {{}, {Sum("V", "S")}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ(result->interval(1), Interval(kMax - 4, kMax - 1));
  EXPECT_EQ(result->value(1, 0), 3.0);
}

TEST(ItaTest, RejectsNaNGroupingValues) {
  TemporalRelation rel{Schema({{"G", ValueType::kDouble},
                               {"V", ValueType::kInt64}})};
  ASSERT_TRUE(rel.Insert({Value(1.0), Value(1)}, Interval(0, 4)).ok());
  ASSERT_TRUE(rel.Insert({Value(2.0), Value(2)}, Interval(1, 3)).ok());
  ASSERT_TRUE(
      rel.Insert({Value(std::nan("")), Value(3)}, Interval(2, 6)).ok());
  for (const AggregateSpec& agg : {Sum("V", "S"), Count("N")}) {
    auto stream = ItaStream::Create(rel, {{"G"}, {agg}});
    ASSERT_FALSE(stream.ok());
    EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(stream.status().message(),
              "grouping attribute 'G' of tuple 2 is NaN");
  }
}

// 40,000 tuples: with four threads every quarter is its own bucketing and
// scatter range, so offenders in different ranges are found concurrently.
TemporalRelation FourRanges() {
  TemporalRelation rel{Schema({{"G", ValueType::kDouble},
                               {"V", ValueType::kDouble}})};
  for (int i = 0; i < 40000; ++i) {
    PTA_CHECK(rel.Insert({Value(static_cast<double>(i % 5)), Value(1.0 * i)},
                         Interval(i, i + 3))
                  .ok());
  }
  return rel;
}

TemporalRelation WithRow(TemporalRelation rel, size_t i, double g, double v,
                         Interval t) {
  TemporalRelation out{rel.schema()};
  for (size_t j = 0; j < rel.size(); ++j) {
    out.InsertUnchecked(j == i ? Tuple({Value(g), Value(v)}, t)
                               : rel.tuple(j));
  }
  return out;
}

TEST(ItaTest, LowestOffendingTupleWinsAcrossRanges) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr Chronon kMax = std::numeric_limits<Chronon>::max();
  const ItaSpec spec{{"G"}, {Avg("V", "A")}};
  const TemporalRelation base = FourRanges();
  // Two non-finite inputs, in the second and the last range.
  const TemporalRelation two_values =
      WithRow(WithRow(base, 35000, 1.0, -kInf, Interval(0, 1)), 15000, 1.0,
              kInf, Interval(0, 1));
  // A NaN grouping value in the last range, after an unrepresentable end
  // in the second: the earlier tuple wins although bucketing runs first.
  const TemporalRelation nan_after_end =
      WithRow(WithRow(base, 31000, std::nan(""), 1.0, Interval(0, 1)), 12000,
              1.0, 1.0, Interval(5, kMax));
  const std::pair<const TemporalRelation*, std::string> cases[] = {
      {&two_values,
       "aggregate attribute 'V' of tuple 15000 is not finite (inf)"},
      {&nan_after_end,
       "ITA input tuple 12000 ends at the maximal chronon; its end event is "
       "not representable"}};
  for (const auto& [rel, message] : cases) {
    for (const size_t threads : {1, 4}) {
      auto stream = ItaStream::Create(*rel, spec, threads);
      ASSERT_FALSE(stream.ok());
      EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(stream.status().message(), message) << threads;
    }
  }
}

}  // namespace
}  // namespace pta
