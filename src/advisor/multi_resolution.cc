#include "advisor/multi_resolution.h"

#include <algorithm>
#include <cstdint>
#include <string>

namespace pta {
namespace advisor {

namespace {

/// The dendrogram rebuilt from the index's public surface: per-node
/// covered chronons (the merge heap's weights), leftmost leaf (the
/// chronological sort key), and the step that consumed each node.
struct Dendrogram {
  size_t n = 0;       // leaves
  size_t merges = 0;  // internal nodes
  std::vector<int64_t> covered;
  std::vector<int32_t> leftmost;
  std::vector<size_t> parent_step;  // 0 = never consumed

  size_t CreatedAt(int32_t x) const {
    return x < static_cast<int32_t>(n) ? 0
                                       : static_cast<size_t>(x) - n + 1;
  }
};

Dendrogram BuildDendrogram(const PtaIndex& index) {
  Dendrogram d;
  d.n = index.input_size();
  d.merges = index.merges();
  const size_t total = d.n + d.merges;
  d.covered.resize(total);
  d.leftmost.resize(total);
  d.parent_step.assign(total, 0);
  const SequentialRelation& input = index.input();
  for (size_t i = 0; i < d.n; ++i) {
    d.covered[i] = input.interval(i).length();
    d.leftmost[i] = static_cast<int32_t>(i);
  }
  const auto& nodes = index.merge_nodes();
  for (size_t j = 0; j < d.merges; ++j) {
    const size_t l = static_cast<size_t>(nodes[j].left);
    const size_t r = static_cast<size_t>(nodes[j].right);
    d.covered[d.n + j] = d.covered[l] + d.covered[r];
    d.leftmost[d.n + j] = d.leftmost[l];
    d.parent_step[l] = j + 1;
    d.parent_step[r] = j + 1;
  }
  return d;
}

/// The frontier after m merges, chronological (by leftmost leaf) — the
/// order the index's own cuts emit.
std::vector<int32_t> FrontierNodes(const Dendrogram& d, size_t m) {
  std::vector<int32_t> frontier;
  for (size_t x = 0; x < d.covered.size(); ++x) {
    const int32_t node = static_cast<int32_t>(x);
    if (d.CreatedAt(node) > m) continue;
    if (d.parent_step[x] != 0 && d.parent_step[x] <= m) continue;
    frontier.push_back(node);
  }
  std::sort(frontier.begin(), frontier.end(),
            [&d](int32_t a, int32_t b) {
              return d.leftmost[static_cast<size_t>(a)] <
                     d.leftmost[static_cast<size_t>(b)];
            });
  return frontier;
}

int32_t NodeGroup(const PtaIndex& index, int32_t x) {
  const size_t n = index.input_size();
  return x < static_cast<int32_t>(n)
             ? index.input().group(static_cast<size_t>(x))
             : index.merge_nodes()[static_cast<size_t>(x) - n].group;
}

const Interval& NodeInterval(const PtaIndex& index, int32_t x) {
  const size_t n = index.input_size();
  return x < static_cast<int32_t>(n)
             ? index.input().interval(static_cast<size_t>(x))
             : index.merge_nodes()[static_cast<size_t>(x) - n].t;
}

}  // namespace

Result<SequentialRelation> Reaggregate(const PtaIndex& index,
                                       const SequentialRelation& finer,
                                       size_t coarse_size) {
  const size_t n = index.input_size();
  const size_t p = index.num_aggregates();
  if (coarse_size == 0) {
    return Status::InvalidArgument("size bound c must be positive");
  }
  if (finer.num_aggregates() != p) {
    return Status::InvalidArgument(
        "finer relation has " + std::to_string(finer.num_aggregates()) +
        " aggregates, the index " + std::to_string(p));
  }
  if (finer.size() > n || n - finer.size() > index.merges()) {
    return Status::InvalidArgument(
        "finer relation (size " + std::to_string(finer.size()) +
        ") is not a cut of this index");
  }
  const size_t m_f = n - finer.size();
  const size_t m_c = coarse_size >= n ? 0 : n - coarse_size;
  if (m_c > index.merges()) {
    return Status::InvalidArgument(
        "size bound " + std::to_string(coarse_size) + " is below cmin = " +
        std::to_string(index.cmin()));
  }
  if (m_c < m_f) {
    return Status::InvalidArgument(
        "coarse size " + std::to_string(coarse_size) +
        " exceeds the finer cut's size " + std::to_string(finer.size()));
  }

  const Dendrogram d = BuildDendrogram(index);
  const std::vector<int32_t> frontier_f = FrontierNodes(d, m_f);
  if (frontier_f.size() != finer.size()) {
    return Status::InvalidArgument(
        "finer relation does not match this index's cut at size " +
        std::to_string(finer.size()));
  }
  std::vector<double> values(d.covered.size() * p, 0.0);
  std::vector<char> have(d.covered.size(), 0);
  for (size_t i = 0; i < frontier_f.size(); ++i) {
    const int32_t x = frontier_f[i];
    if (finer.group(i) != NodeGroup(index, x) ||
        !(finer.interval(i) == NodeInterval(index, x))) {
      return Status::InvalidArgument(
          "finer relation does not match this index's cut at size " +
          std::to_string(finer.size()));
    }
    std::copy(finer.values(i), finer.values(i) + p,
              values.begin() +
                  static_cast<std::ptrdiff_t>(static_cast<size_t>(x) * p));
    have[static_cast<size_t>(x)] = 1;
  }

  // Replay the merges between the two levels with the merge heap's fold
  // (MergedValue, weighted by covered chronons). Same inputs, same
  // operations — the replayed payloads are bitwise the recorded ones.
  const auto& nodes = index.merge_nodes();
  for (size_t j = m_f + 1; j <= m_c; ++j) {
    const PtaIndex::MergeNode& node = nodes[j - 1];
    const size_t l = static_cast<size_t>(node.left);
    const size_t r = static_cast<size_t>(node.right);
    if (!have[l] || !have[r]) {
      return Status::FailedPrecondition(
          "dendrogram merge " + std::to_string(j) +
          " consumed a node missing from the finer cut");
    }
    const size_t x = d.n + j - 1;
    const double lp = static_cast<double>(d.covered[l]);
    const double ln = static_cast<double>(d.covered[r]);
    for (size_t dim = 0; dim < p; ++dim) {
      values[x * p + dim] =
          MergedValue(lp, values[l * p + dim], ln, values[r * p + dim]);
    }
    have[x] = 1;
  }

  SequentialRelation out(p);
  const std::vector<int32_t> frontier_c = FrontierNodes(d, m_c);
  out.Reserve(frontier_c.size());
  for (const int32_t x : frontier_c) {
    out.Append(NodeGroup(index, x), NodeInterval(index, x),
               values.data() + static_cast<size_t>(x) * p);
  }
  out.ShareGroupKeys(index.input().shared_group_keys());
  out.SetValueNames(index.input().value_names());
  return out;
}

Result<std::vector<Reduction>> MultiResolution(
    const PtaIndex& index, const std::vector<size_t>& budgets) {
  auto ladder = index.MultiBudgetCut(budgets);
  if (!ladder.ok()) return ladder.status();
  if (ladder->empty()) return ladder;

  // Bottom-up reconciliation, bitwise: the finest level against the
  // full-resolution input, then every coarser level against its finer
  // neighbor. MultiBudgetCut emits coarsest first.
  for (size_t i = ladder->size(); i-- > 0;) {
    const SequentialRelation& finer = i + 1 < ladder->size()
                                          ? (*ladder)[i + 1].relation
                                          : index.input();
    auto reagg = Reaggregate(index, finer, budgets[i]);
    if (!reagg.ok()) return reagg.status();
    if (!reagg->BitwiseEquals((*ladder)[i].relation)) {
      return Status::FailedPrecondition(
          "multi-resolution ladder failed bitwise bottom-up "
          "reconciliation at size " +
          std::to_string(budgets[i]));
    }
  }
  return ladder;
}

}  // namespace advisor
}  // namespace pta
