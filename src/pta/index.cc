#include "pta/index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>

#include "pta/merge_heap.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace pta {

namespace {

// Rows per build chunk: small enough that a chunk's merge heap, chain nodes
// and log stay in cache while it runs (one heap over a million-row group
// runs several times slower per merge).
constexpr size_t kChunkRows = 8192;
// Fewest prefix-max runs worth a rank-merge slice of their own.
constexpr size_t kMinSliceRuns = 4096;

// One chunk-local merge, with ids already shifted into the global (whole
// relation) insertion numbering, so they name the input rows directly.
struct LoggedMerge {
  double key = 0.0;
  int64_t top_id = 0;   // global id of the node folded away
  int64_t pred_id = 0;  // global id of the surviving node
  int32_t group = 0;
  Interval t;
  // Post-merge values live in the chunk's payload buffer at
  // index * p .. (index + 1) * p.
};

// The (key, id) order of the merge heap, which is also the global GMS order
// between the heads of independent chunks.
bool KeyIdLess(double a_key, int64_t a_id, double b_key, int64_t b_id) {
  if (a_key != b_key) return a_key < b_key;
  return a_id < b_id;
}

// A maximal stretch of a chunk's log that shares one prefix maximum of
// (key, top_id). The prefix maxima of a log never decrease, so a chunk's
// runs are strictly ascending.
struct MaxRun {
  double key = 0.0;
  int64_t top_id = 0;
  size_t begin = 0;  // first log index of the run
  size_t rank = 0;   // global merge rank of that first entry
};

// The full GMS run of one contiguous row range [begin, end) whose edges
// no merge can cross (see ChunkRanges): every merge until only
// non-mergeable pairs remain, in chunk-local GMS order. Because no merge
// chain crosses a chunk edge, chunk-local keys and merge sub-orders are
// exactly the global ones.
struct ChunkLog {
  std::vector<LoggedMerge> merges;
  std::vector<double> values;  // merges.size() * p payload copies
  std::vector<MaxRun> runs;    // prefix-max runs of `merges`

  // Log index of run j's first entry; the log's end for j == runs.size().
  size_t RunBegin(size_t j) const {
    return j < runs.size() ? runs[j].begin : merges.size();
  }
};

void RunChunk(const SequentialRelation& rel, size_t begin, size_t end,
              size_t p, const PtaIndexOptions& options, ChunkLog* log) {
  MergeHeap heap(p, options.weights, options.merge_across_gaps);
  Segment seg;
  seg.values.resize(p);
  int32_t tail = MergeHeap::kNoNode;
  for (size_t i = begin; i < end; ++i) {
    seg.group = rel.group(i);
    seg.t = rel.interval(i);
    std::copy(rel.values(i), rel.values(i) + p, seg.values.begin());
    tail = heap.Insert(seg, tail);
  }
  log->merges.reserve(end - begin);
  log->values.reserve((end - begin) * p);
  while (!heap.empty() && heap.Peek().key < kInfiniteError) {
    MergeHeap::MergeRecord rec;
    heap.MergeTop(&rec);
    LoggedMerge entry;
    entry.key = rec.key;
    // Chunk-local ids are 1-based in chunk insertion order; row `begin`
    // holds global id begin + 1.
    entry.top_id = static_cast<int64_t>(begin) + rec.top_id;
    entry.pred_id = static_cast<int64_t>(begin) + rec.pred_id;
    entry.group = rec.group;
    entry.t = rec.t;
    log->merges.push_back(entry);
    log->values.insert(log->values.end(), rec.values, rec.values + p);
    if (log->runs.empty() ||
        KeyIdLess(log->runs.back().key, log->runs.back().top_id, entry.key,
                  entry.top_id)) {
      log->runs.push_back(
          MaxRun{entry.key, entry.top_id, log->merges.size() - 1, 0});
    }
  }
}

// Contiguous independent chunk ranges of about `target_rows` rows each. A
// chunk may start at row i only if row i can never fold into row i - 1:
// the group changes, or (without gap merging) the two leave a temporal
// gap. Merging never changes either end of such a pair — a merged node
// keeps its leftmost begin and rightmost end — so the pair's key stays
// infinite for the whole run, exactly as at a chunk edge. The boundaries
// never affect the result (the gather re-serializes the global order);
// they only size the build for the cache and balance it across the pool.
std::vector<std::pair<size_t, size_t>> ChunkRanges(
    const SequentialRelation& rel, bool merge_across_gaps,
    size_t target_rows) {
  std::vector<std::pair<size_t, size_t>> ranges;
  const size_t n = rel.size();
  if (n == 0) return ranges;
  size_t begin = 0;
  for (size_t i = 1; i < n; ++i) {
    if (i - begin < target_rows) continue;
    const bool independent =
        rel.group(i) != rel.group(i - 1) ||
        (!merge_across_gaps &&
         !rel.interval(i - 1).MeetsBefore(rel.interval(i)));
    if (independent) {
      ranges.push_back({begin, i});
      begin = i;
    }
  }
  ranges.push_back({begin, n});
  return ranges;
}

// Assigns every run of every log its global merge rank: the position of
// its first entry in the global GMS order, whose later entries follow it
// consecutively.
//
// The global order is the serial heads merge — repeatedly take the chunk
// whose next logged merge is the smallest by (key, top_id) — and it equals
// a plain merge of the chunks' prefix-max runs. Those runs never decrease,
// and equal maxima only occur within one chunk (where they keep log order),
// because top_ids are globally unique. Proof that the heads merge emits
// prefix maxima in order: say x is emitted and the next emitted y comes
// from another chunk. Let m = prefix-max(x), an entry of x's chunk at or
// before x. When m was emitted, y's chunk head h was bigger than m, and y
// is at or after h in its chunk. So prefix-max(y) >= h > m.
//
// The run merge is split into value slices at sampled splitters; each
// slice merges its runs of every chunk on its own, starting at the number
// of entries in the slices below it.
void RankRuns(std::vector<ChunkLog>* logs, ThreadPool* pool) {
  const auto run_less = [](const MaxRun& a, const MaxRun& b) {
    return KeyIdLess(a.key, a.top_id, b.key, b.top_id);
  };
  const size_t k = logs->size();
  size_t total_runs = 0;
  for (const ChunkLog& log : *logs) total_runs += log.runs.size();
  if (total_runs == 0) return;

  // A few slices per thread, but none so small that its task costs more
  // than its merge.
  const size_t wanted = std::clamp<size_t>(total_runs / kMinSliceRuns, 1,
                                           pool->num_threads() == 1
                                               ? 1
                                               : pool->num_threads() * 4);
  // Every stride-th run of all chunks' runs laid end to end: a chunk's runs
  // span the whole key range, so the sample must not restart per chunk.
  const size_t stride = std::max<size_t>(1, total_runs / (wanted * 64));
  std::vector<MaxRun> samples;
  size_t skip = stride - 1;
  for (const ChunkLog& log : *logs) {
    size_t j = skip;
    for (; j < log.runs.size(); j += stride) {
      samples.push_back(log.runs[j]);
    }
    skip = j - log.runs.size();
  }
  std::sort(samples.begin(), samples.end(), run_less);
  // Slice s holds the runs with splitters[s - 1] < key <= splitters[s].
  std::vector<MaxRun> splitters;
  for (size_t s = 1; s < wanted && !samples.empty(); ++s) {
    const MaxRun& cand = samples[s * samples.size() / wanted];
    if (splitters.empty() || run_less(splitters.back(), cand)) {
      splitters.push_back(cand);
    }
  }
  const size_t slices = splitters.size() + 1;

  // bound[s * k + c] = first run of chunk c in slice s (or later).
  std::vector<size_t> bound((slices + 1) * k);
  std::vector<size_t> offset(slices + 1, 0);
  for (size_t c = 0; c < k; ++c) {
    const std::vector<MaxRun>& runs = (*logs)[c].runs;
    bound[c] = 0;
    bound[slices * k + c] = runs.size();
    for (size_t s = 1; s < slices; ++s) {
      bound[s * k + c] = static_cast<size_t>(
          std::upper_bound(runs.begin(), runs.end(), splitters[s - 1],
                           run_less) -
          runs.begin());
    }
    for (size_t s = 0; s < slices; ++s) {
      offset[s + 1] += (*logs)[c].RunBegin(bound[(s + 1) * k + c]) -
                       (*logs)[c].RunBegin(bound[s * k + c]);
    }
  }
  for (size_t s = 0; s < slices; ++s) offset[s + 1] += offset[s];

  pool->ParallelFor(slices, [&](size_t s) {
    struct Head {
      double key;
      int64_t id;
      uint32_t chunk;
    };
    const auto head_after = [](const Head& a, const Head& b) {
      return KeyIdLess(b.key, b.id, a.key, a.id);
    };
    std::vector<size_t> next(bound.begin() + s * k,
                             bound.begin() + (s + 1) * k);
    const size_t* last = bound.data() + (s + 1) * k;
    std::vector<Head> heads;
    for (size_t c = 0; c < k; ++c) {
      if (next[c] == last[c]) continue;
      const MaxRun& run = (*logs)[c].runs[next[c]];
      heads.push_back(Head{run.key, run.top_id, static_cast<uint32_t>(c)});
    }
    std::make_heap(heads.begin(), heads.end(), head_after);
    size_t rank = offset[s];
    while (!heads.empty()) {
      std::pop_heap(heads.begin(), heads.end(), head_after);
      const size_t c = heads.back().chunk;
      heads.pop_back();
      ChunkLog& log = (*logs)[c];
      const size_t j = next[c]++;
      log.runs[j].rank = rank;
      rank += log.RunBegin(j + 1) - log.runs[j].begin;
      if (next[c] < last[c]) {
        const MaxRun& run = log.runs[next[c]];
        heads.push_back(Head{run.key, run.top_id, static_cast<uint32_t>(c)});
        std::push_heap(heads.begin(), heads.end(), head_after);
      }
    }
  });
}

}  // namespace

Result<PtaIndex> PtaIndex::Build(SequentialRelation input,
                                 const PtaIndexOptions& options,
                                 PtaIndexBuildStats* stats) {
  PTA_RETURN_IF_ERROR(input.Validate());
  const size_t p = input.num_aggregates();
  if (!options.weights.empty()) {
    if (options.weights.size() != p) {
      return Status::InvalidArgument(
          "weights arity (" + std::to_string(options.weights.size()) +
          ") does not match the aggregate dimension count (" +
          std::to_string(p) + ")");
    }
    for (const double w : options.weights) {
      if (!(w > 0.0)) {
        return Status::InvalidArgument("weights must be positive");
      }
    }
  }

  Stopwatch watch;
  if (stats != nullptr) *stats = PtaIndexBuildStats{};
  PtaIndex index;
  index.input_ = std::move(input);
  index.weights_ = options.weights;
  index.merge_across_gaps_ = options.merge_across_gaps;
  const SequentialRelation& rel = index.input_;
  const size_t n = rel.size();
  index.cum_.assign(1, 0.0);
  if (n == 0) {
    if (stats != nullptr) {
      *stats = PtaIndexBuildStats{};
      stats->build_seconds = watch.ElapsedSeconds();
    }
    return index;
  }

  // ---- scatter: one recorded GMS run per independent chunk --------------
  const size_t threads = options.num_threads == 0
                             ? ThreadPool::DefaultThreadCount()
                             : options.num_threads;
  // Cache-sized chunks, and a few per thread even on small inputs so the
  // pool stays busy when group or gap-run sizes are skewed; chunking never
  // changes the result.
  const size_t target_chunks = std::max(n / kChunkRows, threads * 4);
  const auto ranges = ChunkRanges(rel, options.merge_across_gaps,
                                  std::max<size_t>(1, n / target_chunks));

  // dnode[row] = dendrogram node currently carrying the heap node whose
  // global id is row + 1 (survivors keep their id, so the slot stays live);
  // -1 once that heap node was folded away.
  std::vector<int32_t> dnode(n);
  for (size_t i = 0; i < n; ++i) dnode[i] = static_cast<int32_t>(i);
  size_t total_merges = 0;

  if (ranges.size() == 1) {
    // One chunk (no split point, as in a gap-free group or with gap
    // merging): record straight into the index — no pool, no log, one
    // payload copy.
    index.merges_.reserve(n);
    index.merge_values_.reserve(n * p);
    index.delta_.reserve(n);
    index.cum_.reserve(n + 1);
    MergeHeap heap(p, options.weights, options.merge_across_gaps);
    Segment seg;
    seg.values.resize(p);
    int32_t tail = MergeHeap::kNoNode;
    for (size_t i = 0; i < n; ++i) {
      seg.group = rel.group(i);
      seg.t = rel.interval(i);
      std::copy(rel.values(i), rel.values(i) + p, seg.values.begin());
      tail = heap.Insert(seg, tail);
    }
    double running = 0.0;
    while (!heap.empty() && heap.Peek().key < kInfiniteError) {
      MergeHeap::MergeRecord rec;
      heap.MergeTop(&rec);
      const size_t pred = static_cast<size_t>(rec.pred_id) - 1;
      const size_t top = static_cast<size_t>(rec.top_id) - 1;
      index.merges_.push_back(
          MergeNode{dnode[pred], dnode[top], rec.group, rec.t});
      index.merge_values_.insert(index.merge_values_.end(), rec.values,
                                 rec.values + p);
      index.delta_.push_back(rec.key);
      running += rec.key;
      index.cum_.push_back(running);
      dnode[pred] = static_cast<int32_t>(n + total_merges);
      dnode[top] = -1;
      ++total_merges;
    }
    if (stats != nullptr) {
      stats->chunks = 1;
      stats->threads_used = 1;
    }
  } else {
    std::vector<ChunkLog> logs(ranges.size());
    ThreadPool pool(std::max<size_t>(1, std::min(threads, ranges.size())));
    pool.ParallelFor(ranges.size(), [&](size_t i) {
      RunChunk(rel, ranges[i].first, ranges[i].second, p, options, &logs[i]);
    });
    if (stats != nullptr) {
      stats->chunks = ranges.size();
      stats->threads_used = pool.num_threads();
    }

    // ---- gather: every logged merge at its global GMS rank --------------
    for (const ChunkLog& log : logs) total_merges += log.merges.size();
    // The calling thread sizes the output arrays, so that they come from its
    // allocator arena, as the rest of the index does.
    index.merges_.resize(total_merges);
    index.merge_values_.resize(total_merges * p);
    index.delta_.resize(total_merges);
    RankRuns(&logs, &pool);
    // Merge chains never cross a chunk edge, so a chunk's merges only touch
    // its own dnode rows, in log order — the order the global replay
    // touches them in. Each chunk writes its nodes at their ranks alone.
    const auto write_chunk = [&](size_t c) {
      ChunkLog& log = logs[c];
      for (size_t j = 0; j < log.runs.size(); ++j) {
        size_t rank = log.runs[j].rank;
        const size_t end = log.RunBegin(j + 1);
        for (size_t i = log.runs[j].begin; i < end; ++i, ++rank) {
          const LoggedMerge& e = log.merges[i];
          const size_t pred = static_cast<size_t>(e.pred_id) - 1;
          const size_t top = static_cast<size_t>(e.top_id) - 1;
          index.merges_[rank] = MergeNode{dnode[pred], dnode[top], e.group,
                                          e.t};
          std::copy(log.values.data() + i * p, log.values.data() + (i + 1) * p,
                    index.merge_values_.data() + rank * p);
          index.delta_[rank] = e.key;
          dnode[pred] = static_cast<int32_t>(n + rank);
          dnode[top] = -1;
        }
      }
      log = ChunkLog{};
    };
    // Below a chunk's worth of merges the pool's task hand-offs cost more
    // than the writes themselves.
    if (pool.num_threads() > 1 && total_merges >= kChunkRows) {
      pool.ParallelFor(logs.size(), write_chunk);
    } else {
      for (size_t c = 0; c < logs.size(); ++c) write_chunk(c);
    }
    // The same additions in the same order as a serial replay: same bits.
    index.cum_.reserve(total_merges + 1);
    double running = 0.0;
    for (const double delta : index.delta_) {
      running += delta;
      index.cum_.push_back(running);
    }
  }

  // ---- roots: the surviving nodes, chronologically ----------------------
  // A run's survivor is its leftmost row (merges fold into the
  // predecessor), so the roots are the surviving rows' nodes in row order.
  index.roots_.reserve(n - total_merges);
  for (size_t i = 0; i < n; ++i) {
    if (dnode[i] >= 0) index.roots_.push_back(dnode[i]);
  }
  PTA_CHECK_MSG(index.roots_.size() == n - total_merges,
                "dendrogram root count mismatch");

  if (stats != nullptr) {
    stats->merges = total_merges;
    stats->build_seconds = watch.ElapsedSeconds();
  }
  return index;
}

Result<PtaIndex> PtaIndex::FromParts(SequentialRelation input,
                                     std::vector<MergeNode> merges,
                                     std::vector<double> merge_values,
                                     std::vector<double> deltas,
                                     std::vector<double> cumulative,
                                     std::vector<double> weights,
                                     bool merge_across_gaps) {
  PTA_RETURN_IF_ERROR(input.Validate());
  const size_t p = input.num_aggregates();
  const size_t n = input.size();
  const size_t m = merges.size();
  if (!weights.empty()) {
    if (weights.size() != p) {
      return Status::InvalidArgument(
          "weights arity (" + std::to_string(weights.size()) +
          ") does not match the aggregate dimension count (" +
          std::to_string(p) + ")");
    }
    for (const double w : weights) {
      if (!(w > 0.0)) {
        return Status::InvalidArgument("weights must be positive");
      }
    }
  }
  if (merge_values.size() != m * p) {
    return Status::InvalidArgument("merge payload size mismatch");
  }
  if (deltas.size() != m) {
    return Status::InvalidArgument("merge delta count mismatch");
  }
  if (cumulative.size() != m + 1) {
    return Status::InvalidArgument("cumulative error count mismatch");
  }
  for (size_t k = 0; k < merge_values.size(); ++k) {
    if (!std::isfinite(merge_values[k])) {
      return Status::InvalidArgument(
          "non-finite value at merge " + std::to_string(k / p) +
          ", dimension " + std::to_string(k % p));
    }
  }
  for (size_t j = 0; j < m; ++j) {
    if (!std::isfinite(deltas[j])) {
      return Status::InvalidArgument("non-finite delta at merge " +
                                     std::to_string(j));
    }
  }
  // The error curve must be exactly what Build would have accumulated:
  // cum_[0] = +0.0 and each step adds the recorded delta in merge order.
  // The comparison is on bits, not values, so the loaded curve replays
  // bitwise in cuts (and NaN smuggling fails here rather than downstream).
  const auto bits = [](double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  if (bits(cumulative[0]) != bits(0.0)) {
    return Status::InvalidArgument("cumulative error curve must start at 0");
  }
  double running = 0.0;
  for (size_t j = 0; j < m; ++j) {
    running += deltas[j];
    if (bits(running) != bits(cumulative[j + 1])) {
      return Status::InvalidArgument(
          "cumulative error curve does not match the merge deltas at merge " +
          std::to_string(j));
    }
  }
  // Structural check: merge j may only fold two distinct, not-yet-consumed
  // nodes that already exist (index < n + j), its group must agree with
  // both children, and its interval must be their hull. Everything the cut
  // walks rely on follows from this — no descent can go out of bounds or
  // loop. A child's group and interval are read where they are stored: in
  // its leaf row, or in the already checked merge that created it.
  std::vector<uint8_t> consumed(n + m, 0);
  const auto group_of = [&](size_t x) {
    return x < n ? input.group(x) : merges[x - n].group;
  };
  const auto interval_of = [&](size_t x) {
    return x < n ? input.interval(x) : merges[x - n].t;
  };
  for (size_t j = 0; j < m; ++j) {
    const MergeNode& node = merges[j];
    const auto in_range = [&](int32_t x) {
      return x >= 0 && static_cast<size_t>(x) < n + j;
    };
    if (!in_range(node.left) || !in_range(node.right) ||
        node.left == node.right) {
      return Status::InvalidArgument("merge " + std::to_string(j) +
                                     " references invalid dendrogram nodes");
    }
    const size_t l = static_cast<size_t>(node.left);
    const size_t r = static_cast<size_t>(node.right);
    if (consumed[l] || consumed[r]) {
      return Status::InvalidArgument("merge " + std::to_string(j) +
                                     " reuses an already-merged node");
    }
    if (node.group != group_of(l) || node.group != group_of(r)) {
      return Status::InvalidArgument("merge " + std::to_string(j) +
                                     " crosses aggregation groups");
    }
    const Interval hull = Interval::Hull(interval_of(l), interval_of(r));
    if (!(node.t == hull)) {
      return Status::InvalidArgument(
          "merge " + std::to_string(j) +
          " interval is not the hull of its children");
    }
    consumed[l] = true;
    consumed[r] = true;
  }

  // Roots are recomputed, never trusted from the caller, in Build's order:
  // by the row of their leftmost leaf. A hull-checked node begins where
  // that leaf does, and the leaves are sorted by (group, begin), so the
  // roots sort by (group, begin) too.
  std::vector<std::tuple<int32_t, Chronon, int32_t>> roots;
  roots.reserve(n - m);
  for (size_t x = 0; x < n + m; ++x) {
    if (!consumed[x]) {
      roots.emplace_back(group_of(x), interval_of(x).begin,
                         static_cast<int32_t>(x));
    }
  }
  std::sort(roots.begin(), roots.end());

  PtaIndex index;
  index.input_ = std::move(input);
  index.merges_ = std::move(merges);
  index.merge_values_ = std::move(merge_values);
  index.delta_ = std::move(deltas);
  index.cum_ = std::move(cumulative);
  index.weights_ = std::move(weights);
  index.merge_across_gaps_ = merge_across_gaps;
  index.roots_.reserve(roots.size());
  for (const auto& root : roots) index.roots_.push_back(std::get<2>(root));
  return index;
}

size_t PtaIndex::MemoryFootprint() const {
  const size_t p = input_.num_aggregates();
  size_t bytes = sizeof(*this);
  bytes +=
      input_.size() * (sizeof(int32_t) + sizeof(Interval) + p * sizeof(double));
  bytes += merges_.size() * sizeof(MergeNode);
  bytes += merge_values_.size() * sizeof(double);
  bytes += delta_.size() * sizeof(double);
  bytes += cum_.size() * sizeof(double);
  bytes += roots_.size() * sizeof(int32_t);
  bytes += weights_.size() * sizeof(double);
  return bytes;
}

double PtaIndex::max_error() const {
  std::call_once(emax_->once, [this] {
    const ErrorContext ctx(input_, weights_, merge_across_gaps_);
    emax_->value = ctx.MaxError();
  });
  return emax_->value;
}

void PtaIndex::AppendNode(SequentialRelation* out, int32_t x) const {
  const int32_t n = static_cast<int32_t>(input_.size());
  if (x < n) {
    out->Append(input_.group(x), input_.interval(x), input_.values(x));
  } else {
    const size_t j = static_cast<size_t>(x - n);
    out->Append(merges_[j].group, merges_[j].t,
                merge_values_.data() + j * input_.num_aggregates());
  }
}

std::vector<int32_t> PtaIndex::FrontierAt(size_t m) const {
  return RefineFrontier(roots_, m);
}

std::vector<int32_t> PtaIndex::RefineFrontier(
    const std::vector<int32_t>& frontier, size_t m_to) const {
  std::vector<int32_t> out;
  out.reserve(frontier.size());
  std::vector<int32_t> stack;
  for (const int32_t root : frontier) {
    stack.push_back(root);
    while (!stack.empty()) {
      const int32_t x = stack.back();
      stack.pop_back();
      if (CreatedAt(x) <= m_to) {
        out.push_back(x);
      } else {
        const MergeNode& node = merges_[static_cast<size_t>(x) -
                                        input_.size()];
        // Right (the later half) first so the left pops first: the walk
        // stays chronological.
        stack.push_back(node.right);
        stack.push_back(node.left);
      }
    }
  }
  return out;
}

Reduction PtaIndex::MaterializeCut(const std::vector<int32_t>& frontier,
                                   size_t m) const {
  Reduction out;
  out.relation = SequentialRelation(input_.num_aggregates());
  out.relation.Reserve(frontier.size());
  for (const int32_t x : frontier) AppendNode(&out.relation, x);
  out.relation.ShareGroupKeys(input_.shared_group_keys());
  out.relation.SetValueNames(input_.value_names());
  out.error = cum_[m];
  return out;
}

Reduction PtaIndex::EmitCut(size_t m) const {
  // The single-budget fast path: one descent that appends straight into
  // the output relation, with no intermediate frontier vector (cuts are
  // the latency-critical re-budget operation).
  Reduction out;
  out.relation = SequentialRelation(input_.num_aggregates());
  out.relation.Reserve(input_.size() >= m ? input_.size() - m : 0);
  std::vector<int32_t> stack;
  for (const int32_t root : roots_) {
    stack.push_back(root);
    while (!stack.empty()) {
      const int32_t x = stack.back();
      stack.pop_back();
      if (CreatedAt(x) <= m) {
        AppendNode(&out.relation, x);
      } else {
        const MergeNode& node =
            merges_[static_cast<size_t>(x) - input_.size()];
        stack.push_back(node.right);
        stack.push_back(node.left);
      }
    }
  }
  out.relation.ShareGroupKeys(input_.shared_group_keys());
  out.relation.SetValueNames(input_.value_names());
  out.error = cum_[m];
  return out;
}

Result<Reduction> PtaIndex::CutToSize(size_t c) const {
  if (c == 0) {
    return Status::InvalidArgument("size bound c must be positive");
  }
  const size_t n = input_.size();
  const size_t m = c >= n ? 0 : n - c;
  if (m > merges()) {
    return Status::InvalidArgument(
        "size bound " + std::to_string(c) + " is below cmin = " +
        std::to_string(cmin()));
  }
  return EmitCut(m);
}

Result<double> PtaIndex::ErrorForSize(size_t c) const {
  if (c == 0) {
    return Status::InvalidArgument("size bound c must be positive");
  }
  const size_t n = input_.size();
  const size_t m = c >= n ? 0 : n - c;
  if (m > merges()) {
    return Status::InvalidArgument(
        "size bound " + std::to_string(c) + " is below cmin = " +
        std::to_string(cmin()));
  }
  return cum_[m];
}

Result<size_t> PtaIndex::SizeForError(double eps) const {
  if (eps < 0.0 || eps > 1.0) {
    return Status::InvalidArgument("error bound eps must be in [0, 1]");
  }
  // GmsReduceToError merges while total + key <= budget; with the
  // cumulative curve recorded in the same order that is the largest m with
  // cum_[m] <= budget — a binary search instead of a re-run.
  const double budget = eps * max_error();
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), budget);
  const size_t m = static_cast<size_t>(it - cum_.begin()) - 1;
  return input_.size() - m;
}

Result<Reduction> PtaIndex::CutToError(double eps) const {
  auto size = SizeForError(eps);
  if (!size.ok()) return size.status();
  return EmitCut(input_.size() - *size);
}

Result<std::vector<Reduction>> PtaIndex::MultiBudgetCut(
    const std::vector<size_t>& sizes) const {
  std::vector<Reduction> out;
  if (sizes.empty()) return out;
  const size_t n = input_.size();
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == 0) {
      return Status::InvalidArgument("size bound c must be positive");
    }
    if (i > 0 && sizes[i] <= sizes[i - 1]) {
      const std::string tail =
          sizes[i] == sizes[i - 1]
              ? std::to_string(sizes[i]) + " twice"
              : std::to_string(sizes[i]) + " after " +
                    std::to_string(sizes[i - 1]);
      return Status::InvalidArgument(
          "MultiBudgetCut needs strictly ascending budgets; got " + tail);
    }
  }
  if (n > sizes[0] && n - sizes[0] > merges()) {
    return Status::InvalidArgument(
        "size bound " + std::to_string(sizes[0]) + " is below cmin = " +
        std::to_string(cmin()));
  }

  out.reserve(sizes.size());
  // Coarsest level first (smallest c = most merges), then refine: each
  // finer level only expands the nodes born after its own merge count.
  std::vector<int32_t> frontier;
  for (size_t i = 0; i < sizes.size(); ++i) {
    const size_t m = sizes[i] >= n ? 0 : n - sizes[i];
    frontier = i == 0 ? FrontierAt(m) : RefineFrontier(frontier, m);
    out.push_back(MaterializeCut(frontier, m));
  }
  return out;
}

}  // namespace pta
