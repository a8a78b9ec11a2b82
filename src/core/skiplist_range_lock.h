// Skiplist-indexed exclusive range lock: O(log n) acquire at thousands of live ranges.
//
// Every list-based variant in this repository pays O(n) per acquisition in the number
// of held ranges sharing a list (bucketing divides n by a constant, nothing more).
// That is invisible in the paper's VM workloads — an address space rarely holds more
// than a few ranges at once — but fatal for the "and beyond" use case of range locks
// as a storage-engine primitive, where a file store keeps thousands of record and scan
// ranges live simultaneously (bench/macro_file_store.cpp is that workload, and
// bench/abl_listlen.cpp measures the curve directly).
//
// The index here adapts src/skiplist/optimistic_skiplist.h's structure to the lock's
// own protocol. The optimistic skiplist synchronizes updates with per-node locks,
// which a lock cannot use for its own index without recursing; instead, level 0 is
// run exactly as the paper's Listing 1 list (see list_lockfree_range_lock.h):
//
//   * Level 0 is a Harris-style sorted-by-start list of live ranges. The single CAS
//     that links a node into level 0 IS the acquisition — no separate lock state.
//   * Releasing sets the mark bit on each of the node's next words with one fetch_add
//     per level (wait-free, no traversal, no CAS loop, no epoch fence). The level-0
//     mark is the release point conflict waiters watch; upper levels are marked first
//     so the index never advertises a node below after it is navigable above.
//   * Marked nodes are physically snipped, level by level, by whichever later
//     traversal passes them (helping). A per-node countdown of still-linked levels
//     (`links_remaining`) makes the last snip — and only the last — retire the node
//     through NodePool/EpochDomain, so reclamation needs no coordination beyond the
//     snip CASes themselves.
//   * Levels 1..top are a pure index: the owner links them (bottom-up, re-finding on
//     CAS failure, Herlihy–Shavit style) after the level-0 CAS succeeds. They carry no
//     lock semantics, so a node navigable at level 3 but not yet at level 5 is merely
//     a slightly worse index, never a correctness issue.
//
// Index levels are earned, not drawn at the canonical p=1/2. Every upper level costs
// the owner a link CAS and a mark, and a later traversal a snip CAS; with a handful of
// live ranges nearly every upper-level predecessor is the head, so at p=1/2 those ~6
// extra atomic writes per acquisition all land on the head's first cache line, and
// they build an index no search needs. Instead a node's height is the number of
// consecutive levels, counting up from 0, on which its own search stepped past at
// least kSkipLockEarnSteps nodes: an index entry exists only where a search found
// level l too long. A level whose gap held a released node the search had to snip is
// not earned: that spot churns, and an entry there would be torn down before any
// search used it (a repeated acquisition at a badly indexed spot otherwise re-links
// every level each time). An ascending (tail-inserted) order thus builds a base-4 index
// by itself. A head-inserted (descending) order never steps past anything, so the
// height is floored by a sparse geometric draw (p = 1/16 per level); that floor alone
// keeps such orders at O(log n), at a 1-in-16 chance of one extra level per
// acquisition. Searches start one level above `max_level_`, a monotone hint of the
// tallest level ever linked (raised before a node's upper levels are linked), instead
// of at kSkipLockMaxLevel - 1, so few live ranges also mean few levels walked.
//
// Overlap detection needs only the find's immediate neighbours: live ranges are
// disjoint and sorted by start, so a candidate [s, e) can conflict only with the
// last node whose start < s (if its end > s) and the first node whose start >= s
// (if its start < e). Every earlier node ends at or before the predecessor's start by
// the disjointness invariant, and every later node starts at or after the successor's
// start. Two in-flight overlapping acquisitions are arbitrated by the level-0 CAS
// itself: they either target the same insertion point (one CAS fails and re-finds,
// sees the winner, waits on its mark bit) or are separated by a node that conflicts
// with one of them.
//
// Fairness caveat: like the other list locks — and unlike the fair layer — waiters
// race to re-insert when a conflicting range releases, so a stream of short ranges
// can starve a wide one. Each retry re-searches from the hint's level, which costs
// about what list-ex's re-walk costs at a few live ranges and O(log n) at many.
// Workloads needing fairness should wrap a fair lock; this one buys scalability in
// live-range count.
#ifndef SRL_CORE_SKIPLIST_RANGE_LOCK_H_
#define SRL_CORE_SKIPLIST_RANGE_LOCK_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdint>

#include "src/core/harris_list.h"  // WaitForRelease
#include "src/core/lnode.h"        // kMarkBit / IsMarked / Unmark word helpers
#include "src/core/range.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"
#include "src/harness/prng.h"
#include "src/sync/admission.h"
#include "src/sync/cacheline.h"
#include "src/sync/deadline.h"

namespace srl {

// Fixed height so nodes are a single pool-recyclable type: NodePool hands out
// default-constructed nodes, so the next-word array cannot be tail-allocated per
// height the way RangeLockSkipList::Node does it. 16 levels, 128 bytes of next words
// per node: the earned base-4 index needs 6 levels at 4096 live ranges.
inline constexpr int kSkipLockMaxLevel = 16;

// A search that steps past this many nodes on level l earns its node level l + 1 (see
// the file comment).
inline constexpr int kSkipLockEarnSteps = 3;

// Random height floor: each level is kept with probability 2^-kSkipLockFloorBits.
inline constexpr int kSkipLockFloorBits = 4;

// One live (or released-but-unsnipped) range in the skiplist index. The LSB of each
// next word is the per-level logical-delete mark (kMarkBit, as in LNode).
struct SkipLockNode {
  uint64_t start = 0;
  uint64_t end = 0;
  int32_t top_level = 0;
  // Levels this node is still physically linked at. Initialized to top_level + 1
  // before the level-0 publication CAS; each successful snip decrements it, and the
  // snipper that reaches zero owns the retire. A marked level is never re-linked
  // (insertion CASes require an unmarked expected word; finds snip marked nodes
  // instead of traversing them), so each level is unlinked exactly once.
  std::atomic<int32_t> links_remaining{0};
  std::atomic<uintptr_t> next[kSkipLockMaxLevel];

  // Free-list linkage for NodePool; dead while the node is in the index. Distinct
  // from the next words, which must stay frozen (marked, pointing at the unlink-time
  // successor) until every traversal that could have seen the node has left its epoch
  // critical section.
  SkipLockNode* pool_next = nullptr;
};

class SkiplistRangeLock {
 public:
  static constexpr int kMaxLevel = kSkipLockMaxLevel;

  // The acquisition's own node. Opaque to callers; consumed by Unlock (any thread).
  using Handle = SkipLockNode*;

  SkiplistRangeLock() = default;
  SkiplistRangeLock(const SkiplistRangeLock&) = delete;
  SkiplistRangeLock& operator=(const SkiplistRangeLock&) = delete;

  // All ranges must have been released. Residue (released nodes no later traversal
  // snipped) is swept level by level: each node is visited once per still-linked
  // level, its links_remaining countdown reaches zero exactly once, and it is freed
  // there — partially-snipped nodes included, whichever levels they still occupy.
  ~SkiplistRangeLock() {
    for (int l = kMaxLevel - 1; l >= 0; --l) {
      SkipLockNode* cur = ToSkipNode(head_.next[l].load(std::memory_order_relaxed));
      while (cur != nullptr) {
        const uintptr_t next = cur->next[l].load(std::memory_order_relaxed);
        assert(IsMarked(next) && "range still held at destruction");
        SkipLockNode* succ = ToSkipNode(next);
        if (cur->links_remaining.fetch_sub(1, std::memory_order_relaxed) == 1) {
          delete cur;
        }
        cur = succ;
      }
    }
  }

  // Blocks until [range.start, range.end) is held exclusively. The returned handle
  // must be passed to Unlock() by the same logical owner (any thread may release it).
  Handle Lock(const Range& range) {
    Handle h = nullptr;
    AcquireImpl(range, Deadline::Infinite(), &h);
    return h;
  }

  // Non-blocking: fails the moment the range would have to wait for an overlapping
  // holder. Lost insertion CASes are retried — they signal contention on the list
  // structure, not a held conflicting range — so a TryLock of a range conflicting
  // with nothing held always succeeds.
  bool TryLock(const Range& range, Handle* out) {
    return AcquireImpl(range, Deadline::Immediate(), out);
  }

  // Timed: blocks like Lock() but gives up (returns false, nothing held) once
  // `timeout` elapses. The node never entered the index on failure, so it recycles
  // with no grace period.
  bool LockFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out) {
    return AcquireImpl(range, Deadline::After(timeout), out);
  }

  // Releases an acquired range: one fetch_add per level of this node (usually one),
  // no traversal, no loop, no epoch fence. Upper levels are marked before
  // level 0 — the release point waiters watch — so by the time a waiter can acquire
  // an overlapping range, every index level already advertises the node as dead.
  void Unlock(Handle handle) {
    assert(handle != nullptr);
    for (int l = handle->top_level; l >= 0; --l) {
      handle->next[l].fetch_add(kMarkBit, std::memory_order_release);
    }
  }

  // RAII guard.
  class Guard {
   public:
    Guard(SkiplistRangeLock& lock, const Range& range)
        : lock_(lock), h_(lock.Lock(range)) {}
    ~Guard() { lock_.Unlock(h_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    SkiplistRangeLock& lock_;
    Handle h_;
  };

  // --- Test-only introspection ---

  // Number of held (unmarked-at-level-0) ranges. The epoch guard keeps concurrently
  // snipped nodes unreclaimed for the duration of the walk, so counting while other
  // threads churn is safe; the value is of course only exact under quiescence.
  std::size_t DebugHeldCount() const {
    EpochGuard guard(EpochDomain::Global());
    std::size_t n = 0;
    for (const SkipLockNode* cur =
             ToSkipNode(head_.next[0].load(std::memory_order_acquire));
         cur != nullptr;
         cur = ToSkipNode(cur->next[0].load(std::memory_order_acquire))) {
      if (!IsMarked(cur->next[0].load(std::memory_order_acquire))) {
        ++n;
      }
    }
    return n;
  }

  // Checks, under the same epoch protection, that (a) held ranges are disjoint and
  // sorted by start along level 0, and (b) every level's chain is sorted by start
  // (the index invariant navigation relies on).
  bool DebugInvariantHolds() const {
    EpochGuard guard(EpochDomain::Global());
    uint64_t prev_end = 0;
    bool first = true;
    for (const SkipLockNode* cur =
             ToSkipNode(head_.next[0].load(std::memory_order_acquire));
         cur != nullptr;
         cur = ToSkipNode(cur->next[0].load(std::memory_order_acquire))) {
      if (IsMarked(cur->next[0].load(std::memory_order_acquire))) {
        continue;  // released, logically absent
      }
      if (!first && cur->start < prev_end) {
        return false;
      }
      prev_end = cur->end;
      first = false;
    }
    for (int l = kMaxLevel - 1; l >= 1; --l) {
      uint64_t prev_start = 0;
      bool lvl_first = true;
      for (const SkipLockNode* cur =
               ToSkipNode(head_.next[l].load(std::memory_order_acquire));
           cur != nullptr;
           cur = ToSkipNode(cur->next[l].load(std::memory_order_acquire))) {
        if (!lvl_first && cur->start < prev_start) {
          return false;
        }
        prev_start = cur->start;
        lvl_first = false;
      }
    }
    return true;
  }

  // Nodes a search for `key` steps past, summed over the levels it walks: the cost of
  // an acquisition's search, and so the measure of index quality. Snips marked nodes
  // on the way, exactly as an acquisition's search would.
  int DebugSearchSteps(uint64_t key) {
    EpochGuard guard(EpochDomain::Global());
    SkipLockNode* preds[kMaxLevel];
    uintptr_t succs[kMaxLevel];
    return Find(key, 0, preds, succs).steps;
  }

  // Tallest level any node has been linked at (the search-start hint).
  int DebugTallestLevel() const { return max_level_->load(std::memory_order_relaxed); }

  // Nodes still linked at level 0 that have already been snipped from one of their
  // upper levels. Exact only under quiescence.
  std::size_t DebugPartiallySnipped() const {
    EpochGuard guard(EpochDomain::Global());
    std::size_t n = 0;
    for (const SkipLockNode* cur =
             ToSkipNode(head_.next[0].load(std::memory_order_acquire));
         cur != nullptr;
         cur = ToSkipNode(cur->next[0].load(std::memory_order_acquire))) {
      if (cur->links_remaining.load(std::memory_order_acquire) < cur->top_level + 1) {
        ++n;
      }
    }
    return n;
  }

  static const char* Name() { return "skiplist-indexed"; }

 private:
  static SkipLockNode* ToSkipNode(uintptr_t word) {
    return reinterpret_cast<SkipLockNode*>(Unmark(word));
  }
  static uintptr_t NodeWord(const SkipLockNode* node) {
    return reinterpret_cast<uintptr_t>(node);
  }

  // What one Find saw: the height the search earned its node (the number of
  // consecutive levels from 0 on which it stepped past kSkipLockEarnSteps nodes, capped
  // at the level it started on) and the nodes it stepped past over all levels.
  struct Walk {
    int earned;
    int steps;
  };

  // Positions preds[l]/succ_words[l] around `key` at every level from 0 up to the level
  // the walk starts on — one above the max_level_ hint, and at least `floor`: preds[l]
  // is the last node at level l with start < key (head_ if none), succ_words[l] the
  // unmarked word it pointed at when observed (0 at tail). Levels above the start are
  // left unset. Marked nodes encountered on the way are snipped (helping); a marked
  // pred word means the pointer chain under our feet was released, so the walk
  // restarts from the head. Must run inside an epoch critical section.
  //
  // A stale (relaxed) hint only costs index quality: the hint is raised before any
  // node is linked at the new level, and level 0 alone decides conflicts.
  Walk Find(uint64_t key, int floor, SkipLockNode** preds, uintptr_t* succ_words) {
    const int start = std::max(
        floor, std::min(max_level_->load(std::memory_order_relaxed) + 1, kMaxLevel - 1));
  retry:
    Walk walk{start, 0};
    SkipLockNode* pred = &head_;
    for (int l = start; l >= 0; --l) {
      int level_steps = 0;
      bool churning = false;  // a released node sat in the gap this walk ends in
      uintptr_t cur_word = pred->next[l].load(std::memory_order_acquire);
      for (;;) {
        if (IsMarked(cur_word)) {
          // pred was released at this level while we stood on it; the snapshot of
          // the levels above is stale too — restart (head_ is never marked).
          goto retry;
        }
        SkipLockNode* cur = ToSkipNode(cur_word);
        if (cur != nullptr) {
          const uintptr_t cur_next = cur->next[l].load(std::memory_order_acquire);
          if (IsMarked(cur_next)) {
            churning = true;
            // cur was released: snip it at this level. acq_rel as in the list locks'
            // unlink CAS — acquire pairs with the releasing fetch_add, release keeps
            // the snip ordered before any later insertion observes the new word.
            if (pred->next[l].compare_exchange_strong(cur_word, Unmark(cur_next),
                                                      std::memory_order_acq_rel,
                                                      std::memory_order_acquire)) {
              FinishUnlink(cur);
              cur_word = Unmark(cur_next);
            }
            continue;  // on CAS failure cur_word holds the fresh *pred->next[l]
          }
          if (cur->start < key) {
            pred = cur;
            cur_word = cur_next;
            ++level_steps;
            churning = false;
            continue;
          }
        }
        preds[l] = pred;
        succ_words[l] = cur_word;
        break;
      }
      if (level_steps < kSkipLockEarnSteps || churning) {
        walk.earned = l;  // the walk is top-down: the last such level is the lowest
      }
      walk.steps += level_steps;
    }
    return walk;
  }

  // Called by whichever snip CAS unlinked `node` from one level. The countdown makes
  // the last level's snipper retire the node; every level is snipped exactly once
  // (marked words are never re-linked), so the node is retired exactly once. A
  // level-0-only node (most of them) has one snip, so it skips the countdown; its
  // top_level was written before publication and is stable until it is retired.
  static void FinishUnlink(SkipLockNode* node) {
    if (node->top_level == 0 ||
        node->links_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      NodePool<SkipLockNode>::Local().Retire(node);
    }
  }

  bool AcquireImpl(const Range& range, const Deadline& deadline, Handle* out) {
    assert(range.Valid() && "range locks require start < end");
    SkipLockNode* node = NodePool<SkipLockNode>::Local().Alloc();
    const int floor = RandomFloor();
    node->start = range.start;
    node->end = range.end;
    SkipLockNode* preds[kMaxLevel];
    uintptr_t succs[kMaxLevel];
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    // Concurrency restriction for the conflict-wait loop: once yielding between watch
    // rounds the spinner caps active re-finders at ~#cores and parks the surplus,
    // always outside the epoch critical section. Timed/immediate deadlines: inert.
    AdmissionSpinner gate_spinner(&gate_, deadline);
    EpochDomain::Enter(rec);
    for (;;) {
      const Walk walk = Find(range.start, floor, preds, succs);
      // Overlap scan from the skiplist predecessor: disjointness + sort order mean
      // only the immediate neighbours can conflict (see the header comment).
      SkipLockNode* conflict = nullptr;
      if (preds[0] != &head_ && preds[0]->end > range.start) {
        conflict = preds[0];
      } else if (SkipLockNode* succ = ToSkipNode(succs[0]);
                 succ != nullptr && succ->start < range.end) {
        conflict = succ;
      }
      if (conflict != nullptr) {
        // Level 0 is a Listing-1 list, so the conflict's level-0 mark is its release
        // point: the list locks' watch loop applies unchanged.
        if (HarrisList::WaitForRelease(conflict->next[0], rec, deadline, gate_spinner) ==
            HarrisList::WaitResult::kTimedOut) {
          EpochDomain::Exit(rec);
          NodePool<SkipLockNode>::Local().Recycle(node);  // never entered the index
          return false;
        }
        continue;  // released (its mark makes our re-find snip it) or restart
      }
      // No conflict at the insertion point: the level-0 CAS is the acquisition.
      // seq_cst success as in the list locks' insertion CAS (the publication point
      // the memory-ordering audit pins); the relaxed stores of the height, the
      // countdown and node->next[0] are ordered before any observer (a snipper
      // included) by the CAS's release half. A release of preds[0] racing us lands its
      // mark on this same word and fails the CAS — exactly Listing 1's arbitration.
      // The height is at most the level the walk started on, so preds/succs cover it.
      const int top = std::max(walk.earned, floor);
      node->top_level = top;
      node->links_remaining.store(top + 1, std::memory_order_relaxed);
      node->next[0].store(succs[0], std::memory_order_relaxed);
      uintptr_t expected = succs[0];
      if (preds[0]->next[0].compare_exchange_strong(expected, NodeWord(node),
                                                    std::memory_order_seq_cst,
                                                    std::memory_order_acquire)) {
        break;
      }
      // Lost the race for the insertion point; re-find and re-check conflicts.
    }
    if (node->top_level > 0) {
      RaiseMaxLevel(node->top_level);
      LinkUpperLevels(node, range.start, preds, succs);
    }
    EpochDomain::Exit(rec);
    *out = node;
    return true;
  }

  // Links levels 1..top of a node already acquired at level 0, bottom-up, re-finding
  // on CAS failure (Herlihy–Shavit's retry loop). The hint is already >= top, so
  // every re-find starts above it. The node cannot be marked while we
  // link — only the owner releases — so the only failures are concurrent structural
  // changes around the insertion point. Runs inside the acquire's epoch section;
  // Lock() returns only with the index fully built, keeping acquire cost and index
  // quality deterministic.
  void LinkUpperLevels(SkipLockNode* node, uint64_t key, SkipLockNode** preds,
                       uintptr_t* succs) {
    for (int l = 1; l <= node->top_level; ++l) {
      for (;;) {
        node->next[l].store(succs[l], std::memory_order_relaxed);
        uintptr_t expected = succs[l];
        if (preds[l]->next[l].compare_exchange_strong(expected, NodeWord(node),
                                                      std::memory_order_acq_rel,
                                                      std::memory_order_relaxed)) {
          break;
        }
        Find(key, 0, preds, succs);  // structure moved: refresh every level's snapshot
      }
    }
  }

  // Monotone: only ever raised, and only by an owner about to link level `top`.
  void RaiseMaxLevel(int top) {
    int seen = max_level_->load(std::memory_order_relaxed);
    while (seen < top &&
           !max_level_->compare_exchange_weak(seen, top, std::memory_order_relaxed)) {
    }
  }

  // The random height floor: geometric at p = 2^-kSkipLockFloorBits, one draw per
  // acquisition (each run of kSkipLockFloorBits zero bits is one level).
  // The seed mixes a global thread count into the TLS address: a thread that reuses
  // an exited thread's TLS block must not replay its heights.
  static int RandomFloor() {
    static std::atomic<uint64_t> threads_seeded{0};
    thread_local Xoshiro256 rng(
        0x5eedc0de ^ reinterpret_cast<uintptr_t>(&rng) ^
        (threads_seeded.fetch_add(1, std::memory_order_relaxed) * 0x9E3779B97F4A7C15u));
    const int zero_runs =
        std::countr_zero(rng.Next() | (uint64_t{1} << 63)) / kSkipLockFloorBits;
    return std::min(zero_runs, kMaxLevel - 1);
  }

  // Head sentinel: never marked, never retired, start/end unused.
  SkipLockNode head_;
  // Tallest level any node was linked at: every search starts one above it. Read by
  // every search, raised a handful of times per lock lifetime — on its own line, away
  // from the head's next words that every acquisition CASes.
  CacheAligned<std::atomic<int>> max_level_;
  // Caps active contenders on the conflict-wait path (see AcquireImpl).
  AdmissionGate gate_;
};

}  // namespace srl

#endif  // SRL_CORE_SKIPLIST_RANGE_LOCK_H_
