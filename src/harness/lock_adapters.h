// Uniform adapters over every range-lock implementation in the repository.
//
// Tests (typed suites) and benchmarks (template sweeps) drive all lock flavours through
// this single interface:
//
//   struct Adapter {
//     using Handle = ...;
//     static constexpr bool kSharedReaders;   // readers of overlapping ranges coexist
//     static constexpr bool kPrecise;         // disjoint ranges never serialize
//     static constexpr bool kUsesNodePool;    // handles are NodePool<LNode> nodes
//     static const char* Name();
//     Handle AcquireRead(const Range&);
//     Handle AcquireWrite(const Range&);
//     bool TryAcquireRead(const Range&, Handle*);    // non-blocking; false = not held
//     bool TryAcquireWrite(const Range&, Handle*);
//     bool AcquireReadFor(const Range&, std::chrono::nanoseconds, Handle*);
//     bool AcquireWriteFor(const Range&, std::chrono::nanoseconds, Handle*);
//     void Release(Handle);
//   };
//
// Exclusive locks serve reads as writes (kSharedReaders == false), mirroring how the
// paper benchmarks lustre-ex / list-ex in read workloads. The try/timed contract: for a
// kPrecise lock, TryAcquire* of a range conflicting with nothing held succeeds; for any
// lock, TryAcquire* of a range conflicting with a held acquisition fails without
// blocking, and a failed try/timed acquisition holds nothing (no Release needed).
#ifndef SRL_HARNESS_LOCK_ADAPTERS_H_
#define SRL_HARNESS_LOCK_ADAPTERS_H_

#include <chrono>

#include "src/baselines/segment_range_lock.h"
#include "src/baselines/tree_range_lock.h"
#include "src/core/fair_list_range_lock.h"
#include "src/core/list_lockfree_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/core/range.h"
#include "src/core/skiplist_range_lock.h"
#include "src/sync/rw_semaphore.h"

namespace srl {

// list-ex: the paper's exclusive list-based range lock (§4.1), §4.5 fast path included.
struct ListExAdapter {
  using Handle = ListRangeLock::Handle;
  static constexpr bool kSharedReaders = false;
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = true;
  static const char* Name() { return "list-ex"; }

  Handle AcquireRead(const Range& r) { return lock.Lock(r); }
  Handle AcquireWrite(const Range& r) { return lock.Lock(r); }
  bool TryAcquireRead(const Range& r, Handle* out) { return lock.TryLock(r, out); }
  bool TryAcquireWrite(const Range& r, Handle* out) { return lock.TryLock(r, out); }
  bool AcquireReadFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.LockFor(r, t, out);
  }
  bool AcquireWriteFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.LockFor(r, t, out);
  }
  void Release(Handle h) { lock.Unlock(h); }

  ListRangeLock lock;
};

// list-rw: the paper's reader-writer list-based range lock (§4.2), §4.5 fast path
// included.
struct ListRwAdapter {
  using Handle = ListRwRangeLock::Handle;
  static constexpr bool kSharedReaders = true;
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = true;
  static const char* Name() { return "list-rw"; }

  Handle AcquireRead(const Range& r) { return lock.LockRead(r); }
  Handle AcquireWrite(const Range& r) { return lock.LockWrite(r); }
  bool TryAcquireRead(const Range& r, Handle* out) { return lock.TryLockRead(r, out); }
  bool TryAcquireWrite(const Range& r, Handle* out) { return lock.TryLockWrite(r, out); }
  bool AcquireReadFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.LockReadFor(r, t, out);
  }
  bool AcquireWriteFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.LockWriteFor(r, t, out);
  }
  void Release(Handle h) { lock.Unlock(h); }

  ListRwRangeLock lock;
};

// list-lf: the bucketed lock-free exclusive range lock (hash-bucketed heads, mark-bit
// release with no lock taken). The geometry suits the test universes (ranges of a few
// dozen units): window_shift=2 so a typical short range covers 1-4 windows, 16 buckets
// so disjoint test ranges usually land on distinct heads while multi-bucket
// acquisitions (sibling chains, partial-failure release) still get exercised.
struct ListLockFreeAdapter {
  using Handle = ListLockFreeRangeLock::Handle;
  static constexpr bool kSharedReaders = false;
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = true;
  static const char* Name() { return "list-lf"; }

  ListLockFreeAdapter()
      : lock(ListLockFreeRangeLock::Options{.buckets = 16, .window_shift = 2}) {}

  Handle AcquireRead(const Range& r) { return lock.Lock(r); }
  Handle AcquireWrite(const Range& r) { return lock.Lock(r); }
  bool TryAcquireRead(const Range& r, Handle* out) { return lock.TryLock(r, out); }
  bool TryAcquireWrite(const Range& r, Handle* out) { return lock.TryLock(r, out); }
  bool AcquireReadFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.LockFor(r, t, out);
  }
  bool AcquireWriteFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.LockFor(r, t, out);
  }
  void Release(Handle h) { lock.Unlock(h); }

  ListLockFreeRangeLock lock;
};

// skiplist-indexed: exclusive lock whose live ranges live in a concurrent skiplist —
// O(log n) acquire in the held-range count where the list locks are O(n).
// kUsesNodePool is false because the shared pool-conservation epilogues assert on
// NodePool<LNode> specifically; this lock's NodePool<SkipLockNode> accounting is
// covered by skiplist_range_lock_test.cpp.
struct SkiplistIndexedAdapter {
  using Handle = SkiplistRangeLock::Handle;
  static constexpr bool kSharedReaders = false;
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = false;
  static const char* Name() { return "skiplist-indexed"; }

  Handle AcquireRead(const Range& r) { return lock.Lock(r); }
  Handle AcquireWrite(const Range& r) { return lock.Lock(r); }
  bool TryAcquireRead(const Range& r, Handle* out) { return lock.TryLock(r, out); }
  bool TryAcquireWrite(const Range& r, Handle* out) { return lock.TryLock(r, out); }
  bool AcquireReadFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.LockFor(r, t, out);
  }
  bool AcquireWriteFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.LockFor(r, t, out);
  }
  void Release(Handle h) { lock.Unlock(h); }

  SkiplistRangeLock lock;
};

// list-ex behind the §4.3 fairness layer.
struct FairListExAdapter {
  using Handle = FairListRangeLock::Handle;
  static constexpr bool kSharedReaders = false;
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = true;
  static const char* Name() { return "list-ex-fair"; }

  Handle AcquireRead(const Range& r) { return lock.Lock(r); }
  Handle AcquireWrite(const Range& r) { return lock.Lock(r); }
  bool TryAcquireRead(const Range& r, Handle* out) { return lock.TryLock(r, out); }
  bool TryAcquireWrite(const Range& r, Handle* out) { return lock.TryLock(r, out); }
  bool AcquireReadFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.LockFor(r, t, out);
  }
  bool AcquireWriteFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.LockFor(r, t, out);
  }
  void Release(Handle h) { lock.Unlock(h); }

  FairListRangeLock lock;
};

// list-rw behind the §4.3 fairness layer.
struct FairListRwAdapter {
  using Handle = FairListRwRangeLock::Handle;
  static constexpr bool kSharedReaders = true;
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = true;
  static const char* Name() { return "list-rw-fair"; }

  Handle AcquireRead(const Range& r) { return lock.LockRead(r); }
  Handle AcquireWrite(const Range& r) { return lock.LockWrite(r); }
  bool TryAcquireRead(const Range& r, Handle* out) { return lock.TryLockRead(r, out); }
  bool TryAcquireWrite(const Range& r, Handle* out) { return lock.TryLockWrite(r, out); }
  bool AcquireReadFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.LockReadFor(r, t, out);
  }
  bool AcquireWriteFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.LockWriteFor(r, t, out);
  }
  void Release(Handle h) { lock.Unlock(h); }

  FairListRwRangeLock lock;
};

// lustre-ex: the user-space port of the kernel's exclusive tree range lock.
struct TreeExAdapter {
  using Handle = TreeRangeLock::Handle;
  static constexpr bool kSharedReaders = false;
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = false;
  static const char* Name() { return "lustre-ex"; }

  Handle AcquireRead(const Range& r) { return lock.AcquireWrite(r); }
  Handle AcquireWrite(const Range& r) { return lock.AcquireWrite(r); }
  bool TryAcquireRead(const Range& r, Handle* out) {
    return lock.TryAcquireWrite(r, out);
  }
  bool TryAcquireWrite(const Range& r, Handle* out) {
    return lock.TryAcquireWrite(r, out);
  }
  bool AcquireReadFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.AcquireWriteFor(r, t, out);
  }
  bool AcquireWriteFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.AcquireWriteFor(r, t, out);
  }
  void Release(Handle h) { lock.Release(h); }

  TreeRangeLock lock;
};

// kernel-rw: the reader-writer tree range lock (Bueso's patch, ported).
struct TreeRwAdapter {
  using Handle = TreeRangeLock::Handle;
  static constexpr bool kSharedReaders = true;
  static constexpr bool kPrecise = true;
  static constexpr bool kUsesNodePool = false;
  static const char* Name() { return "kernel-rw"; }

  Handle AcquireRead(const Range& r) { return lock.AcquireRead(r); }
  Handle AcquireWrite(const Range& r) { return lock.AcquireWrite(r); }
  bool TryAcquireRead(const Range& r, Handle* out) { return lock.TryAcquireRead(r, out); }
  bool TryAcquireWrite(const Range& r, Handle* out) {
    return lock.TryAcquireWrite(r, out);
  }
  bool AcquireReadFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.AcquireReadFor(r, t, out);
  }
  bool AcquireWriteFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.AcquireWriteFor(r, t, out);
  }
  void Release(Handle h) { lock.Release(h); }

  TreeRangeLock lock;
};

// pnova-rw: segment-per-RW-lock baseline. The default geometry suits the unit tests;
// benches construct their own SegmentRangeLock with workload-matched geometry.
struct SegmentRwAdapter {
  using Handle = SegmentRangeLock::Handle;
  static constexpr bool kSharedReaders = true;
  static constexpr bool kPrecise = false;
  static constexpr bool kUsesNodePool = false;
  static const char* Name() { return "pnova-rw"; }

  SegmentRwAdapter() : lock(/*universe_end=*/1024, /*num_segments=*/64) {}

  Handle AcquireRead(const Range& r) { return lock.AcquireRead(r); }
  Handle AcquireWrite(const Range& r) { return lock.AcquireWrite(r); }
  bool TryAcquireRead(const Range& r, Handle* out) { return lock.TryAcquireRead(r, out); }
  bool TryAcquireWrite(const Range& r, Handle* out) {
    return lock.TryAcquireWrite(r, out);
  }
  bool AcquireReadFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.AcquireReadFor(r, t, out);
  }
  bool AcquireWriteFor(const Range& r, std::chrono::nanoseconds t, Handle* out) {
    return lock.AcquireWriteFor(r, t, out);
  }
  void Release(Handle h) { lock.Release(h); }

  SegmentRangeLock lock;
};

// stock: a plain reader-writer semaphore treated as a degenerate range lock that ignores
// the range (always whole-resource) — the mmap_sem baseline of the kernel experiments.
struct RwSemAdapter {
  struct Handle {
    bool reader = false;
  };
  static constexpr bool kSharedReaders = true;
  static constexpr bool kPrecise = false;
  static constexpr bool kUsesNodePool = false;
  static const char* Name() { return "stock-rwsem"; }

  Handle AcquireRead(const Range&) {
    sem.lock_shared();
    return Handle{true};
  }
  Handle AcquireWrite(const Range&) {
    sem.lock();
    return Handle{false};
  }
  bool TryAcquireRead(const Range&, Handle* out) {
    if (!sem.try_lock_shared()) {
      return false;
    }
    *out = Handle{true};
    return true;
  }
  bool TryAcquireWrite(const Range&, Handle* out) {
    if (!sem.try_lock()) {
      return false;
    }
    *out = Handle{false};
    return true;
  }
  bool AcquireReadFor(const Range&, std::chrono::nanoseconds t, Handle* out) {
    if (!sem.try_lock_shared_for(t)) {
      return false;
    }
    *out = Handle{true};
    return true;
  }
  bool AcquireWriteFor(const Range&, std::chrono::nanoseconds t, Handle* out) {
    if (!sem.try_lock_for(t)) {
      return false;
    }
    *out = Handle{false};
    return true;
  }
  void Release(Handle h) {
    if (h.reader) {
      sem.unlock_shared();
    } else {
      sem.unlock();
    }
  }

  RwSemaphore sem;
};

}  // namespace srl

#endif  // SRL_HARNESS_LOCK_ADAPTERS_H_
