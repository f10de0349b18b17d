// A parallel sort that leaves exactly the permutation std::sort leaves.
//
// ITA's running sums depend on the order std::sort leaves same-instant
// events in (core/ita.cc), so a faster sort of one large group must
// reproduce that order bit for bit. ParallelIntroSort runs libstdc++'s
// introsort step for step — median-of-three of (first + 1, mid, last - 1)
// moved to first, the unguarded partition, a threshold of 16, a depth
// limit of 2 * floor(lg n) and std::partial_sort at depth 0 — but hands
// the right part of every partition longer than `grain` to the pool.
// Partitions of disjoint ranges do not interact, so the elements end up
// where the serial loop would put them.
//
// libstdc++ finishes with one insertion sort over the whole range. That
// pass is stable, and every element left of a partition cut is no greater
// than every element right of it, so it equals a stable sort of each block
// between the cuts where tasks were spawned: those blocks are sorted in
// parallel too. With no pool, a one-thread pool, or n <= grain, everything
// runs on the calling thread with no allocation, so the helper also serves
// as a drop-in for std::sort that gives the same order on any library.
//
// The parallel path ends with ThreadPool::Wait, which waits for every task
// on the pool: hand it a pool with no other work, and never call it from
// inside one of that pool's own tasks.

#ifndef PTA_UTIL_PARALLEL_SORT_H_
#define PTA_UTIL_PARALLEL_SORT_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_pool.h"

namespace pta {

/// Ranges at most this long are not split off as pool tasks.
inline constexpr ptrdiff_t kParallelSortGrain = ptrdiff_t{1} << 15;

namespace parallel_sort_internal {

inline constexpr ptrdiff_t kThreshold = 16;  // libstdc++'s _S_threshold

/// Shared state of one ParallelIntroSort call.
struct Cuts {
  Mutex mu;
  std::vector<ptrdiff_t> at PTA_GUARDED_BY(mu);
};

template <typename T, typename Less>
void MoveMedianToFirst(T* result, T* a, T* b, T* c, Less& less) {
  if (less(*a, *b)) {
    if (less(*b, *c)) {
      std::iter_swap(result, b);
    } else if (less(*a, *c)) {
      std::iter_swap(result, c);
    } else {
      std::iter_swap(result, a);
    }
  } else if (less(*a, *c)) {
    std::iter_swap(result, a);
  } else if (less(*b, *c)) {
    std::iter_swap(result, c);
  } else {
    std::iter_swap(result, b);
  }
}

template <typename T, typename Less>
T* PartitionPivot(T* first, T* last, Less& less) {
  T* mid = first + (last - first) / 2;
  MoveMedianToFirst(first, first + 1, mid, last - 1, less);
  const T* pivot = first;
  T* lo = first + 1;
  T* hi = last;
  while (true) {
    while (less(*lo, *pivot)) ++lo;
    --hi;
    while (less(*pivot, *hi)) --hi;
    if (!(lo < hi)) return lo;
    std::iter_swap(lo, hi);
    ++lo;
  }
}

/// A stable insertion sort: the result libstdc++'s final pass leaves.
template <typename T, typename Less>
void InsertionSort(T* first, T* last, Less& less) {
  if (last - first < 2) return;
  for (T* i = first + 1; i < last; ++i) {
    T value = std::move(*i);
    T* j = i;
    for (; j != first && less(value, *(j - 1)); --j) *j = std::move(*(j - 1));
    *j = std::move(value);
  }
}

/// libstdc++'s __introsort_loop over [first, last); right parts longer
/// than `grain` become pool tasks, their left edge recorded in `cuts`.
template <typename T, typename Less>
void IntroLoop(T* base, T* first, T* last, ptrdiff_t depth, Less less,
               ThreadPool* pool, ptrdiff_t grain, Cuts* cuts) {
  while (last - first > kThreshold) {
    if (depth == 0) {
      std::partial_sort(first, last, last, less);
      return;
    }
    --depth;
    T* cut = PartitionPivot(first, last, less);
    if (pool != nullptr && last - cut > grain) {
      {
        MutexLock lock(&cuts->mu);
        cuts->at.push_back(cut - base);
      }
      pool->Submit([=] {
        IntroLoop(base, cut, last, depth, less, pool, grain, cuts);
      });
    } else {
      IntroLoop(base, cut, last, depth, less, pool, grain, cuts);
    }
    last = cut;
  }
}

}  // namespace parallel_sort_internal

/// Sorts [first, last) by `less` into the permutation std::sort gives under
/// libstdc++. `depth_limit` < 0 means libstdc++'s 2 * floor(lg n); a smaller
/// one forces the partial-sort path (tests use it). `grain` bounds the
/// ranges worth a task.
template <typename T, typename Less>
void ParallelIntroSort(T* first, T* last, Less less, ThreadPool* pool,
                       ptrdiff_t grain = kParallelSortGrain,
                       ptrdiff_t depth_limit = -1) {
  namespace internal = parallel_sort_internal;
  const ptrdiff_t n = last - first;
  if (n <= 1) return;
  if (depth_limit < 0) {
    ptrdiff_t lg = 0;
    while ((n >> (lg + 1)) != 0) ++lg;
    depth_limit = 2 * lg;
  }
  if (pool == nullptr || pool->num_threads() <= 1 || n <= grain) {
    internal::IntroLoop(first, first, last, depth_limit, less, nullptr, grain,
                        nullptr);
    internal::InsertionSort(first, last, less);
    return;
  }
  internal::Cuts cuts;
  internal::IntroLoop(first, first, last, depth_limit, less, pool, grain,
                      &cuts);
  pool->Wait();
  std::vector<ptrdiff_t> bounds;
  {
    MutexLock lock(&cuts.mu);
    bounds = std::move(cuts.at);
  }
  bounds.push_back(0);
  bounds.push_back(n);
  std::sort(bounds.begin(), bounds.end());
  pool->ParallelFor(bounds.size() - 1, [&](size_t b) {
    internal::InsertionSort(first + bounds[b], first + bounds[b + 1], less);
  });
}

}  // namespace pta

#endif  // PTA_UTIL_PARALLEL_SORT_H_
