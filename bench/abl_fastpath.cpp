// Ablation — the §4.5 fast path: uncontended acquire/release latency of every lock.
//
// The fast path's claim is a constant-step acquire/release when the lock is not
// contended ("particularly important for a single thread execution"). google-benchmark
// measures single-threaded lock+unlock of a small range for each implementation.
//
// The list locks always try the fast path; it applies only while the list (for list-lf:
// each covered bucket) is empty. The "RegularPath" rows force the slow path by holding
// one disjoint anchor range for the whole loop, so the head is never empty and every
// acquisition runs the full Listing-1 insertion inside an epoch critical section. The
// skiplist lock has no fast path; its two rows show the cost of one live neighbour.
#include <benchmark/benchmark.h>

#include "src/baselines/segment_range_lock.h"
#include "src/baselines/tree_range_lock.h"
#include "src/core/fair_list_range_lock.h"
#include "src/core/list_lockfree_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/core/skiplist_range_lock.h"
#include "src/sync/rw_semaphore.h"

namespace srl {
namespace {

const Range kRange{100, 200};
// Disjoint from kRange. For list-lf it spans >= 16 windows of the default geometry, so
// it holds a node in every bucket and no bucket kRange covers is ever empty.
const Range kAnchor{1000, 2000};

// Lock + unlock of kRange, optionally with kAnchor held throughout.
template <typename Lock>
void ExclusiveLoop(benchmark::State& state, bool anchored) {
  Lock lock;
  typename Lock::Handle anchor{};
  if (anchored) {
    anchor = lock.Lock(kAnchor);
  }
  for (auto _ : state) {
    auto h = lock.Lock(kRange);
    benchmark::DoNotOptimize(h);
    lock.Unlock(h);
  }
  if (anchored) {
    lock.Unlock(anchor);
  }
}

void RwLoop(benchmark::State& state, bool anchored, bool reader) {
  ListRwRangeLock lock;
  ListRwRangeLock::Handle anchor = nullptr;
  if (anchored) {
    anchor = lock.LockWrite(kAnchor);
  }
  for (auto _ : state) {
    auto h = reader ? lock.LockRead(kRange) : lock.LockWrite(kRange);
    benchmark::DoNotOptimize(h);
    lock.Unlock(h);
  }
  if (anchored) {
    lock.Unlock(anchor);
  }
}

void BM_ListExRegularPath(benchmark::State& state) {
  ExclusiveLoop<ListRangeLock>(state, /*anchored=*/true);
}
BENCHMARK(BM_ListExRegularPath);

void BM_ListExFastPath(benchmark::State& state) {
  ExclusiveLoop<ListRangeLock>(state, /*anchored=*/false);
}
BENCHMARK(BM_ListExFastPath);

void BM_ListLfRegularPath(benchmark::State& state) {
  ExclusiveLoop<ListLockFreeRangeLock>(state, /*anchored=*/true);
}
BENCHMARK(BM_ListLfRegularPath);

void BM_ListLfFastPath(benchmark::State& state) {
  ExclusiveLoop<ListLockFreeRangeLock>(state, /*anchored=*/false);
}
BENCHMARK(BM_ListLfFastPath);

void BM_SkiplistAnchored(benchmark::State& state) {
  ExclusiveLoop<SkiplistRangeLock>(state, /*anchored=*/true);
}
BENCHMARK(BM_SkiplistAnchored);

void BM_SkiplistEmpty(benchmark::State& state) {
  ExclusiveLoop<SkiplistRangeLock>(state, /*anchored=*/false);
}
BENCHMARK(BM_SkiplistEmpty);

void BM_ListRwRegularPathWrite(benchmark::State& state) {
  RwLoop(state, /*anchored=*/true, /*reader=*/false);
}
BENCHMARK(BM_ListRwRegularPathWrite);

void BM_ListRwFastPathWrite(benchmark::State& state) {
  RwLoop(state, /*anchored=*/false, /*reader=*/false);
}
BENCHMARK(BM_ListRwFastPathWrite);

void BM_ListRwRegularPathRead(benchmark::State& state) {
  RwLoop(state, /*anchored=*/true, /*reader=*/true);
}
BENCHMARK(BM_ListRwRegularPathRead);

void BM_ListRwFastPathRead(benchmark::State& state) {
  RwLoop(state, /*anchored=*/false, /*reader=*/true);
}
BENCHMARK(BM_ListRwFastPathRead);

void BM_FairListEx(benchmark::State& state) {
  FairListRangeLock lock;
  for (auto _ : state) {
    auto h = lock.Lock(kRange);
    lock.Unlock(h);
  }
}
BENCHMARK(BM_FairListEx);

void BM_TreeLock(benchmark::State& state) {
  TreeRangeLock lock;
  for (auto _ : state) {
    auto h = lock.AcquireWrite(kRange);
    lock.Release(h);
  }
}
BENCHMARK(BM_TreeLock);

void BM_SegmentLockNarrow(benchmark::State& state) {
  SegmentRangeLock lock(1 << 20, 256);
  for (auto _ : state) {
    auto h = lock.AcquireWrite(kRange);  // one segment
    lock.Release(h);
  }
}
BENCHMARK(BM_SegmentLockNarrow);

void BM_SegmentLockFullRange(benchmark::State& state) {
  SegmentRangeLock lock(1 << 20, 256);
  for (auto _ : state) {
    auto h = lock.AcquireWrite(Range::Full());  // all 256 segments
    lock.Release(h);
  }
}
BENCHMARK(BM_SegmentLockFullRange);

void BM_RwSemaphore(benchmark::State& state) {
  RwSemaphore sem;
  for (auto _ : state) {
    sem.lock();
    sem.unlock();
  }
}
BENCHMARK(BM_RwSemaphore);

}  // namespace
}  // namespace srl

BENCHMARK_MAIN();
