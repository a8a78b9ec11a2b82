// Lock-free bucketed range lock: CAS insertion + mark-bit deletion, no lock anywhere.
//
// This is the paper's list-based range lock (§4.1–§4.2, Listings 1–3 — the kernel in
// harris_list.h) with the remaining serialization point removed: instead of one
// shared list head, the address space is cut into fixed-size windows
// (1 << Options::window_shift units each) and every window hashes to one of
// Options::buckets sorted lock lists. Disjoint ranges in different windows touch
// disjoint heads, so they contend on nothing at all — no head pointer, no cache line —
// which composes with the VM layer's stripes (bucketing *within* a stripe's window).
//
// Protocol per bucket is exactly Listing 1: a single CAS inserts a node into the sorted
// list (insertion *is* acquisition), releasing marks the node's next pointer with one
// fetch_add (wait-free, never takes a lock — the property the tentpole is named for),
// and marked nodes are physically unlinked by whichever later traversal passes by
// (Harris-style helping), then retired through NodePool/EpochDomain.
//
// The lock is generic over the kernel's order policy. BucketedListRangeLock<
// ExclusiveOrder> (ListLockFreeRangeLock) is the exclusive lock; with one bucket it is
// the single-list lock of §4.1 (ListRangeLock, list_range_lock.h).
// BucketedListRangeLock<RwOrder> is the reader-writer lock of §4.2: overlapping
// readers coexist, and since an overlapping reader and writer may insert at different
// list positions (Figure 1), every slow-path insertion is followed — per bucket — by a
// SeqCstFence and Listing 3's validation pass over that bucket's list. The
// insert-then-scan handshake is a store-buffering pattern; the fence on both sides
// makes it impossible for both parties to miss each other (free on x86, where the CAS
// is already a full fence). A reader that meets a conflicting writer waits for it; a
// writer that meets any conflicting node self-deletes there, releases the buckets it
// already holds and restarts with fresh nodes. With one bucket this is ListRwRangeLock
// (list_rw_range_lock.h). Under ExclusiveOrder the validation code is compiled out.
//
// Multi-bucket acquisitions (a range whose windows hash to several buckets) insert one
// node per covered bucket in ascending bucket-index order and chain them through
// LNode::sibling. Ascending order makes the scheme deadlock-free: a thread blocked in
// bucket b already holds only buckets < b, so every wait chain strictly increases in
// bucket index and cannot cycle. Readers waiting in validation keep that argument: a
// reader validating in bucket b holds only buckets < b plus its own node in b, and it
// waits only for a writer node in b. That writer either holds the whole range (it
// will release), is validating in b (it never waits there — it self-deletes, which
// ends the wait, if it sees the reader) or waits in a bucket > b. Writers never wait
// inside validation, and a writer's restart releases its prefix, so no wait edge
// points back to a lower bucket. Exclusion holds because two overlapping ranges share
// at least one point, hence at least one window, hence at least one bucket where both
// insert overlapping nodes into the same sorted list — the per-list protocol (Listing
// 1's compare()==0 conflict, or Listing 3's validation) fires there. Ranges covering
// >= `buckets` windows short-circuit to *all* buckets; inserting into a superset of the
// covered buckets is conservative (it can only add conflicts, never hide one), and it
// bounds acquisition cost at `buckets` nodes regardless of range length.
//
// The §4.5 fast path runs per bucket: an acquisition whose bucket is empty installs its
// node marked-at-head with one CAS and skips the epoch critical section for that
// bucket entirely. It needs no validation: a node installed on an empty list has
// nothing to validate against, and later arrivals always see it (it is the head) and
// defer to it as needed. On disjoint workloads each thread's bucket head is
// effectively private, so most acquisitions take it.
#ifndef SRL_CORE_LIST_LOCKFREE_RANGE_LOCK_H_
#define SRL_CORE_LIST_LOCKFREE_RANGE_LOCK_H_

#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "src/core/harris_list.h"
#include "src/core/lnode.h"
#include "src/core/range.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"
#include "src/sync/admission.h"
#include "src/sync/cacheline.h"
#include "src/sync/deadline.h"
#include "src/sync/fence.h"

namespace srl {

template <typename Order>
class BucketedListRangeLock {
  static constexpr bool kRw = std::is_same_v<Order, RwOrder>;

 public:
  struct Options {
    // Number of hash-bucketed list heads. Clamped to a power of two in [1, 64] — 64 so
    // the covered-bucket set fits one uint64_t mask, power of two so the bucket hash is
    // a multiply-shift. 16 suits the unit-test universes; the VM backend uses 64.
    std::size_t buckets = 16;
    // log2 of the window size: addresses in the same window always share a bucket.
    // Pick it so a typical acquisition covers ~1 window; too small and short ranges
    // straddle windows (multi-node acquisitions), too large and distinct hot ranges
    // share windows (false bucket conflicts).
    int window_shift = 4;
  };

  // Head of the acquisition's sibling chain (one node per covered bucket, ascending
  // bucket order). Opaque to callers; consumed by Unlock.
  using Handle = LNode*;

  BucketedListRangeLock() : BucketedListRangeLock(Options{}) {}
  explicit BucketedListRangeLock(Options options)
      : bucket_count_(ClampBuckets(options.buckets)),
        bucket_shift_(static_cast<int>(std::countr_zero(bucket_count_))),
        window_shift_(options.window_shift < 0    ? 0
                      : options.window_shift > 63 ? 63
                                                  : options.window_shift),
        all_mask_(bucket_count_ == 64 ? ~uint64_t{0}
                                      : (uint64_t{1} << bucket_count_) - 1),
        heads_(new CacheAligned<HarrisList>[bucket_count_]) {}

  BucketedListRangeLock(const BucketedListRangeLock&) = delete;
  BucketedListRangeLock& operator=(const BucketedListRangeLock&) = delete;

  // --- Exclusive API (ExclusiveOrder) ---

  // Blocks until [range.start, range.end) is held exclusively. The returned handle must
  // be passed to Unlock() by the same logical owner (any thread may release it).
  Handle Lock(const Range& range)
    requires(!kRw)
  {
    Handle h = nullptr;
    AcquireImpl(range, /*reader=*/false, /*max_failures=*/-1, Deadline::Infinite(), &h);
    return h;
  }

  // Non-blocking acquisition: fails the moment the range would have to wait for an
  // overlapping holder in any covered bucket. Lost insertion CASes are retried — they
  // signal contention on a list's structure, not a held conflicting range — so a
  // TryLock of a range that conflicts with nothing held always succeeds.
  bool TryLock(const Range& range, Handle* out)
    requires(!kRw)
  {
    return AcquireImpl(range, false, -1, Deadline::Immediate(), out);
  }

  // Timed acquisition: blocks like Lock() but gives up (returns false, no range held)
  // once `timeout` has elapsed. Nodes already inserted into earlier buckets are marked
  // released on the way out, so an abandoned acquisition leaves only inert marked
  // residue for other traversals to collect.
  bool LockFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out)
    requires(!kRw)
  {
    return AcquireImpl(range, false, -1, Deadline::After(timeout), out);
  }

  // Bounded-patience variant for the fairness layer (§4.3): gives up (returns false,
  // no range held) once the acquisition suffered more than `max_failures` lock-induced
  // failures (lost insertion CASes or forced traversal restarts) across all covered
  // buckets. Waiting for an overlapping holder does not count.
  bool LockBounded(const Range& range, int max_failures, Handle* out)
    requires(!kRw)
  {
    return AcquireImpl(range, false, max_failures, Deadline::Infinite(), out);
  }

  // --- Reader-writer API (RwOrder) ---

  // Block until [range.start, range.end) is held in shared (read) or exclusive (write)
  // mode.
  Handle LockRead(const Range& range)
    requires kRw
  {
    Handle h = nullptr;
    AcquireImpl(range, /*reader=*/true, /*max_failures=*/-1, Deadline::Infinite(), &h);
    return h;
  }
  Handle LockWrite(const Range& range)
    requires kRw
  {
    Handle h = nullptr;
    AcquireImpl(range, /*reader=*/false, /*max_failures=*/-1, Deadline::Infinite(), &h);
    return h;
  }

  // Non-blocking acquisitions (down_read_trylock / down_write_trylock semantics): fail
  // the moment the acquisition would have to wait for a conflicting holder, or — for a
  // writer — the moment its validation pass finds a conflicting node. A try acquisition
  // of a range conflicting with nothing held always succeeds; failure under a transient
  // in-flight conflict (e.g. a writer that is about to self-delete) is possible and
  // allowed, exactly as for the kernel's trylocks.
  bool TryLockRead(const Range& range, Handle* out)
    requires kRw
  {
    return AcquireImpl(range, true, -1, Deadline::Immediate(), out);
  }
  bool TryLockWrite(const Range& range, Handle* out)
    requires kRw
  {
    return AcquireImpl(range, false, -1, Deadline::Immediate(), out);
  }

  // Timed acquisitions: block like LockRead/LockWrite but give up once `timeout` has
  // elapsed. A waiter that aborts before insertion leaves no trace; a reader that
  // aborts *inside* its validation pass is already in the list and self-deletes (marks
  // its own node) — later traversals unlink and reclaim it like any released range.
  bool LockReadFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out)
    requires kRw
  {
    return AcquireImpl(range, true, -1, Deadline::After(timeout), out);
  }
  bool LockWriteFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out)
    requires kRw
  {
    return AcquireImpl(range, false, -1, Deadline::After(timeout), out);
  }

  // Bounded-patience variants for the fairness layer (§4.3). Failed writer validations
  // count as failures, as do lost CASes and forced restarts.
  bool LockReadBounded(const Range& range, int max_failures, Handle* out)
    requires kRw
  {
    return AcquireImpl(range, true, max_failures, Deadline::Infinite(), out);
  }
  bool LockWriteBounded(const Range& range, int max_failures, Handle* out)
    requires kRw
  {
    return AcquireImpl(range, false, max_failures, Deadline::Infinite(), out);
  }

  // Releases an acquired range (in either mode). Wait-free and lock-free in the
  // strongest sense: per covered bucket, one fast-path CAS attempt (no loop) and at
  // most one fetch_add — no lock acquisition, no traversal, no retry.
  void Unlock(Handle handle) { ReleaseChain(handle); }

  // RAII guards: Guard for the exclusive lock, ReadGuard/WriteGuard for the
  // reader-writer lock.
  template <bool kReader>
  class BasicGuard {
    static_assert(kRw || !kReader, "a read guard needs the reader-writer lock");

   public:
    BasicGuard(BucketedListRangeLock& lock, const Range& range) : lock_(lock) {
      lock.AcquireImpl(range, kReader, /*max_failures=*/-1, Deadline::Infinite(), &h_);
    }
    ~BasicGuard() { lock_.Unlock(h_); }
    BasicGuard(const BasicGuard&) = delete;
    BasicGuard& operator=(const BasicGuard&) = delete;

   private:
    BucketedListRangeLock& lock_;
    Handle h_ = nullptr;
  };
  using Guard = BasicGuard<false>;
  using ReadGuard = BasicGuard<true>;
  using WriteGuard = BasicGuard<false>;

  std::size_t bucket_count() const { return bucket_count_; }
  int window_shift() const { return window_shift_; }

  // --- Test-only introspection (callers must guarantee quiescence) ---

  // Times a timed or try reader gave up inside r_validate and self-deleted its enqueued
  // node. A reader's insertion never compares it with the nodes past its insertion
  // point, so this needs a conflicting writer down there: one left by the Figure-1 race,
  // or one behind held readers that the new reader was sorted in front of. Tests use
  // the counter to confirm a raced scenario actually drove it.
  uint64_t DebugRValidateAborts() const
    requires kRw
  {
    return rvalidate_aborts_.load(std::memory_order_relaxed);
  }

  // Times a writer failed w_validate and restarted its acquisition (or, for a try,
  // gave up). A writer's insertion compares it with every node before its insertion
  // point, so only the Figure-1 race reaches this; tests read it to confirm the race
  // drove the restart path.
  uint64_t DebugWValidateRestarts() const
    requires kRw
  {
    return wvalidate_restarts_.load(std::memory_order_relaxed);
  }

  // Number of unmarked (held) nodes across all buckets. An acquisition covering k
  // buckets contributes k, so this counts nodes, not acquisitions.
  int DebugHeldCount() const {
    int n = 0;
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      heads_[b]->ForEachHeld([&n](const LNode*) { ++n; });
    }
    return n;
  }

  // Checks Invariant 2 per bucket: held ranges sorted by start, and a held writer never
  // overlaps its successor. Every node of an exclusive lock is a writer, so this is
  // Invariant 1 there: consecutive held ranges satisfy r1.end <= r2.start.
  bool DebugInvariantHolds() const {
    bool ok = true;
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      const LNode* prev = nullptr;
      heads_[b]->ForEachHeld([&](const LNode* cur) {
        ok = ok && (prev == nullptr ||
                    (prev->start <= cur->start &&
                     ((prev->reader && cur->reader) || prev->end <= cur->start)));
        prev = cur;
      });
    }
    return ok;
  }

 private:
  static std::size_t ClampBuckets(std::size_t buckets) {
    if (buckets < 1) {
      return 1;
    }
    if (buckets > 64) {
      return 64;
    }
    return std::bit_ceil(buckets);
  }

  // Window index -> bucket index. Fibonacci multiplicative hashing rather than
  // `w & (buckets - 1)`: the VM layer's stripes start at multiples of 2^30, so under
  // identity hashing every stripe's base window would land in bucket 0 and striped
  // workloads would collide on one head — the multiply diffuses the high base bits
  // into the selected bucket.
  std::size_t BucketOf(uint64_t window) const {
    if (bucket_count_ == 1) {
      return 0;
    }
    return static_cast<std::size_t>((window * uint64_t{0x9E3779B97F4A7C15}) >>
                                    (64 - bucket_shift_));
  }

  // Bit b set == the range has a node in bucket b. Ranges spanning >= bucket_count_
  // windows short-circuit to all buckets instead of walking a potentially huge window
  // span. That is a conservative superset — extra buckets can only add conflicts, never
  // hide one, since overlap detection only needs *some* shared bucket to hold both
  // ranges' nodes, and every precisely-covered bucket is in the superset.
  uint64_t CoveredMask(const Range& range) const {
    const uint64_t first = range.start >> window_shift_;
    const uint64_t last = (range.end - 1) >> window_shift_;
    if (last - first >= bucket_count_ - 1) {
      return all_mask_;
    }
    uint64_t mask = 0;
    for (uint64_t w = first; w <= last; ++w) {
      mask |= uint64_t{1} << BucketOf(w);
    }
    return mask;
  }

  // Releases every node of a sibling chain, in chain (= ascending bucket) order. The
  // chain's buckets are recomputed from the range (every node carries it), iterated in
  // lockstep with the chain: a partial chain from a failed acquisition is exactly the
  // first k bits of the mask. The sibling pointer is read BEFORE the node's release:
  // ReleaseChain runs outside any epoch critical section, so the node must not be
  // touched after HarrisList::Release.
  void ReleaseChain(LNode* node) {
    if (node == nullptr) {
      return;
    }
    uint64_t m = CoveredMask(Range{node->start, node->end});
    while (node != nullptr) {
      assert(m != 0 && "sibling chain longer than its covered-bucket mask");
      const std::size_t b = static_cast<std::size_t>(std::countr_zero(m));
      m &= m - 1;
      LNode* next = node->sibling;
      heads_[b]->Release(node);
      node = next;
    }
  }

  bool AcquireImpl(const Range& range, bool reader, int max_failures,
                   const Deadline& deadline, Handle* out) {
    assert(range.Valid() && "range locks require start < end");
    const uint64_t mask = CoveredMask(range);
    // Concurrency restriction across the whole (possibly multi-bucket) acquisition,
    // validation restarts included. The spinner's rotation on Pause() is load-bearing
    // for deadlock freedom here: a parked thread may hold nodes in buckets < b that
    // active spinners in those buckets wait on, and their own Pause() calls are what
    // cycle it back into the active set (see admission.h). Timed and immediate
    // deadlines make it inert.
    AdmissionSpinner gate_spinner(&gate_, deadline);
    FailureBudget budget(max_failures);
    // Only an RwOrder validation failure comes back round this loop (Listing 2's
    // do/while): the acquisition restarts from the first bucket with fresh nodes.
    for (;;) {
      // The epoch critical section is entered lazily, only once some bucket takes the
      // slow path: fast-path buckets never dereference another thread's node, so an
      // acquisition whose every covered bucket is empty pays no epoch fence at all.
      EpochDomain::ThreadRec* rec = nullptr;
      LNode* chain_head = nullptr;
      LNode* chain_tail = nullptr;
      bool valid = true;
      for (uint64_t m = mask; m != 0; m &= m - 1) {
        HarrisList& list = heads_[static_cast<std::size_t>(std::countr_zero(m))].value;
        LNode* node = NodePool<LNode>::Local().Alloc();
        node->start = range.start;
        node->end = range.end;
        node->reader = kRw && reader;  // constant false for the exclusive lock
        node->sibling = nullptr;
        node->next.store(0, std::memory_order_relaxed);
        if (!list.TryFastAcquire(node)) {
          if (rec == nullptr) {
            rec = CurrentThreadRec(EpochDomain::Global());
            EpochDomain::Enter(rec);
          }
          if (!list.Insert<Order>(node, rec, deadline, gate_spinner, budget)) {
            NodePool<LNode>::Local().Recycle(node);  // never entered a list
            EpochDomain::Exit(rec);
            // Partial failure: the prefix inserted into earlier buckets is released
            // exactly as a normal unlock would release it — fast nodes recycle, the
            // rest leave marked residue.
            ReleaseChain(chain_head);
            return false;
          }
          if constexpr (kRw) {
            // Paired with the same fence in the conflicting party's insertion (see the
            // file comment): both sides cannot miss each other's nodes.
            SeqCstFence();
            valid = reader ? HarrisList::RValidate(node, rec, deadline, gate_spinner)
                           : list.WValidate(node);
            if (!valid) {
              (reader ? rvalidate_aborts_ : wvalidate_restarts_)
                  .fetch_add(1, std::memory_order_relaxed);
              break;
            }
          }
        }
        if (chain_tail != nullptr) {
          chain_tail->sibling = node;
        } else {
          chain_head = node;
        }
        chain_tail = node;
      }
      if (rec != nullptr) {
        EpochDomain::Exit(rec);
      }
      if (valid) {
        *out = chain_head;
        return true;
      }
      // Validation failed in some bucket b: the node there is already marked in-list
      // and NOT on the chain. Exactly-once pool return: it must not be Recycled — it is
      // still reachable from the list, and exactly one future traversal wins the
      // unlink CAS over it and Retires it (the try-exactness fuzz's pool conservation
      // check catches a double return). Only its owner ever marks an unmarked node, so
      // the self-delete cannot double-fire either. The buckets < b are released in
      // ascending order like a partial failure's prefix. A writer whose patience or
      // deadline is exhausted stops here; a reader only fails validation when its
      // deadline expired mid-validation, so the Expired() check terminates it.
      ReleaseChain(chain_head);
      if (budget.Exhausted() || deadline.Expired()) {
        return false;
      }
    }
  }

  const std::size_t bucket_count_;
  const int bucket_shift_;   // log2(bucket_count_)
  const int window_shift_;
  const uint64_t all_mask_;  // low bucket_count_ bits set
  // One cache line per head: disjoint buckets must not false-share.
  const std::unique_ptr<CacheAligned<HarrisList>[]> heads_;
  // Caps active contenders on the slow path (see AcquireImpl).
  AdmissionGate gate_;
  std::atomic<uint64_t> rvalidate_aborts_{0};    // see DebugRValidateAborts
  std::atomic<uint64_t> wvalidate_restarts_{0};  // see DebugWValidateRestarts
};

using ListLockFreeRangeLock = BucketedListRangeLock<ExclusiveOrder>;

}  // namespace srl

#endif  // SRL_CORE_LIST_LOCKFREE_RANGE_LOCK_H_
