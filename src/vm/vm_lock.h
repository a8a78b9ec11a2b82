// The pluggable lock guarding the simulated VM subsystem — the seam where the kernel
// experiments (§7.2) swap mmap_sem for range locks.
//
// Variants (names follow the paper):
//   stock         RwSemaphore; ranges ignored, whole-address-space semantics
//   tree          kernel tree-based range lock (Bueso's patch, ported)
//   list          the paper's reader-writer list-based range lock (one sorted list)
//   list-lf       the same reader-writer lock, bucketed: 64 lock-free list heads, so
//                 disjoint ranges hit disjoint heads and overlapping reads share
//   skiplist      skiplist-indexed exclusive range lock (reads served as writes);
//                 O(log n) acquire in the live-range count, the backend for
//                 address spaces holding thousands of ranges at once
//
// Instrumentation: attach a WaitStats sink to measure acquisition wait time (read vs
// write), reproducing the lock_stat measurements of Figure 7. TreeVmLock additionally
// exposes the internal spin-lock wait sink for Figure 8.
//
// Striped address spaces: range semantics are unchanged — a Range is a byte range, and
// the lock neither knows nor cares about stripe boundaries. What changes is the
// contract AddressSpace builds on top: a full-range write acquisition (LockFullWrite)
// excludes every scoped writer and locked reader in ANY stripe, and the cross-stripe
// fallback path pairs it with the affected stripes' index mutation locks taken in
// ascending order — together a coherent fence over all stripes the operation touches,
// while lock-free faults in untouched stripes proceed against their own seqcounts.
// FullWriteAcquisitions() therefore counts exactly the operations that failed to stay
// stripe-scoped; bench/abl_scoped_structural reports the split per variant.
#ifndef SRL_VM_VM_LOCK_H_
#define SRL_VM_VM_LOCK_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/baselines/tree_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/core/range.h"
#include "src/core/skiplist_range_lock.h"
#include "src/harness/wait_stats.h"
#include "src/sync/percpu_counter.h"
#include "src/sync/rw_semaphore.h"

namespace srl::vm {

enum class VmLockKind {
  kStock,            // reader-writer semaphore (mmap_sem)
  kTree,             // tree-based range lock
  kList,             // reader-writer list-based range lock
  kListLockFree,     // bucketed reader-writer list lock
  kSkiplistIndexed,  // skiplist-indexed exclusive range lock
};

class VmLock {
 public:
  virtual ~VmLock() = default;

  // Non-virtual interface: measures waits when a sink is attached.
  void* LockRead(const Range& r) {
    if (stats_ == nullptr) {
      return DoLockRead(r);
    }
    const uint64_t t0 = WaitStats::NowNs();
    void* h = DoLockRead(r);
    stats_->RecordRead(WaitStats::NowNs() - t0);
    return h;
  }

  void* LockWrite(const Range& r) {
    CountWrite(r);
    if (stats_ == nullptr) {
      return DoLockWrite(r);
    }
    const uint64_t t0 = WaitStats::NowNs();
    void* h = DoLockWrite(r);
    stats_->RecordWrite(WaitStats::NowNs() - t0);
    return h;
  }

  void* LockFullWrite() { return LockWrite(Range::Full()); }

  // Non-blocking acquisitions (mmap_read_trylock and friends). On success *out holds
  // the handle; on failure nothing is held and *out is untouched. A *successful* try is
  // recorded in the WaitStats sink like any other acquisition (its ~0ns sample keeps
  // Figure 7 a per-acquisition distribution now that the fault path is trylock-first);
  // a failed try records nothing — the blocking fallback that follows it measures the
  // actual wait.
  bool TryLockRead(const Range& r, void** out) {
    if (stats_ == nullptr) {
      return DoTryLockRead(r, out);
    }
    const uint64_t t0 = WaitStats::NowNs();
    if (!DoTryLockRead(r, out)) {
      return false;
    }
    stats_->RecordRead(WaitStats::NowNs() - t0);
    return true;
  }
  bool TryLockWrite(const Range& r, void** out) {
    if (stats_ == nullptr) {
      if (!DoTryLockWrite(r, out)) {
        return false;
      }
      CountWrite(r);
      return true;
    }
    const uint64_t t0 = WaitStats::NowNs();
    if (!DoTryLockWrite(r, out)) {
      return false;
    }
    CountWrite(r);
    stats_->RecordWrite(WaitStats::NowNs() - t0);
    return true;
  }

  void UnlockRead(void* h) { DoUnlockRead(h); }
  void UnlockWrite(void* h) { DoUnlockWrite(h); }

  virtual const char* Name() const = 0;

  // Attach/detach a wait-time sink. Set only while quiescent.
  void SetWaitStats(WaitStats* stats) { stats_ = stats; }

  // For Figure 8: the internal spin-lock sink (tree lock only; no-op otherwise).
  virtual void SetSpinWaitStats(WaitStats*) {}

  // Write-acquisition accounting: how many writes took the whole address space
  // (Range::Full()) versus a proper sub-range. The scoped structural variants live or
  // die by this ratio — bench/abl_scoped_structural reports it per variant. Every mmap
  // and munmap bumps one of the two, so they are per-CPU counters: a shared atomic
  // here would put one written line in every structural op's path, and on the list,
  // list-lf and skiplist backends it would share that line with the start of the lock
  // object (the list head word, the bucket geometry, the skiplist head).
  uint64_t FullWriteAcquisitions() const { return writes_.Sum(kFullWrites); }
  uint64_t RangedWriteAcquisitions() const { return writes_.Sum(kRangedWrites); }

 protected:
  virtual void* DoLockRead(const Range& r) = 0;
  virtual void* DoLockWrite(const Range& r) = 0;
  virtual bool DoTryLockRead(const Range& r, void** out) = 0;
  virtual bool DoTryLockWrite(const Range& r, void** out) = 0;
  virtual void DoUnlockRead(void* h) = 0;
  virtual void DoUnlockWrite(void* h) = 0;

 private:
  enum : std::size_t { kFullWrites, kRangedWrites, kWriteCounters };

  void CountWrite(const Range& r) {
    writes_.Add(r == Range::Full() ? kFullWrites : kRangedWrites);
  }

  WaitStats* stats_ = nullptr;
  PerCpuCounters writes_{kWriteCounters};
};

// Factory.
std::unique_ptr<VmLock> MakeVmLock(VmLockKind kind);

const char* VmLockKindName(VmLockKind kind);

}  // namespace srl::vm

#endif  // SRL_VM_VM_LOCK_H_
