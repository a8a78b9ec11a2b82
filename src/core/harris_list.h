// The Listing-1 kernel: one sorted lock list over a single tagged head word (§4.1).
//
// Every list-based range lock in this repository runs the same algorithm, and this
// file is its only copy:
//
//   * Acquired ranges live in a singly-linked list sorted by start address. Inserting a
//     node with a single CAS *is* acquiring the range: overlapping requests compete for
//     the same insertion point, so at most one can be in the list at a time. What
//     "overlapping" means is the caller's order policy — Listing 1's compare()
//     (ExclusiveOrder) or Listing 2's (RwOrder).
//   * Releasing marks the node's next pointer (one fetch_add — wait-free); marked nodes
//     are physically unlinked by whichever later traversal passes by (Harris-style
//     helping) and retired through the epoch scheme of src/epoch/.
//   * The §4.5 fast path: an acquisition that finds the list empty installs its node
//     marked-at-head with one CAS and never enters an epoch critical section; its
//     release CASes the head back to zero and recycles the node with no grace period.
//     Eager recycling is sound because converting a fast node into a regular list node
//     requires winning a strip CAS against exactly that release — whoever loses learns
//     nothing about the node. The fast CAS touches the same cache line the slow
//     insertion CAS would touch anyway, so it is on unconditionally.
//
// Differences from the paper's pseudo-code:
//   * the wait-for-overlap loop watches the conflicting node for a bounded number of
//     spins and then briefly leaves its epoch critical section and restarts from the
//     head. This matches the behaviour the paper describes for the kernel variant
//     ("threads block for a small period of time ... and recheck the range", §7.2) and
//     keeps epoch barriers from stalling behind application-length critical sections;
//   * the yield between watch rounds goes through an AdmissionSpinner, which caps how
//     many watchers actively re-traverse under oversubscription (src/sync/admission.h);
//   * Insert() takes a FailureBudget, exposing the failure counting that the fairness
//     layer (§4.3) needs.
#ifndef SRL_CORE_HARRIS_LIST_H_
#define SRL_CORE_HARRIS_LIST_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "src/core/lnode.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"
#include "src/sync/admission.h"
#include "src/sync/deadline.h"
#include "src/sync/spin_wait.h"

namespace srl {

// Listing 1's compare(): relationship of `cur` (in-list) to `node` (to insert).
//  -1: cur entirely precedes node — keep traversing.
//   0: overlap — must wait for cur's release.
//  +1: cur entirely succeeds node — insert before cur.
struct ExclusiveOrder {
  static int Compare(const LNode* cur, const LNode* node) {
    if (cur->start >= node->end) {
      return 1;
    }
    if (node->start >= cur->end) {
      return -1;
    }
    return 0;
  }
};

// Listing 2's compare(): as ExclusiveOrder, except that overlapping readers coexist,
// ordered by start address.
//  -1: keep traversing (cur precedes node, or reader-reader ordered by start).
//   0: conflict involving a writer — wait for cur's release before inserting.
//  +1: insertion point found (node goes before cur).
struct RwOrder {
  static int Compare(const LNode* cur, const LNode* node) {
    const bool both_readers = cur->reader && node->reader;
    if (node->start >= cur->end) {
      return -1;
    }
    if (both_readers && node->start >= cur->start) {
      return -1;
    }
    if (cur->start >= node->end) {
      return 1;
    }
    if (both_readers && cur->start >= node->start) {
      return 1;
    }
    return 0;
  }
};

// Lock-induced failures (lost insertion CASes, forced traversal restarts) an
// acquisition tolerates before giving up; negative means unbounded. Waiting for an
// overlapping holder does not count — that is ordinary blocking, not starvation.
class FailureBudget {
 public:
  explicit FailureBudget(int max_failures) : max_failures_(max_failures) {}

  // Records one failure; true once the budget is exhausted.
  bool Exhausted() { return max_failures_ >= 0 && ++failures_ > max_failures_; }

 private:
  const int max_failures_;
  int failures_ = 0;
};

class HarrisList {
 public:
  // Outcome of one watch of a conflicting node.
  enum class WaitResult {
    kReleased,  // the conflicting node became marked; proceed
    kRestart,   // cycled the epoch critical section; re-traverse from the head
    kTimedOut,  // the deadline expired (or was immediate) with the conflict still held
  };

  HarrisList() = default;
  HarrisList(const HarrisList&) = delete;
  HarrisList& operator=(const HarrisList&) = delete;

  // All ranges must have been released; residual marked nodes (released but never
  // unlinked because no later traversal passed by) are freed here.
  ~HarrisList() {
    const uintptr_t word = head_.load(std::memory_order_acquire);
    // A marked head is a live fast-path holder: once released, the head is either
    // CASed back to zero or (if stripped first) left unmarked with a marked node.
    assert(!IsMarked(word) && "fast-path range still held at destruction");
    LNode* cur = ToNode(word);
    while (cur != nullptr) {
      const uintptr_t next = cur->next.load(std::memory_order_acquire);
      assert(IsMarked(next) && "range still held at destruction");
      LNode* succ = ToNode(next);
      delete cur;
      cur = succ;
    }
  }

  std::atomic<uintptr_t>& head() { return head_; }

  // §4.5 fast-path acquisition: succeeds only if the list is empty, installing `node`
  // (start/end/reader already written) marked-at-head.
  bool TryFastAcquire(LNode* node) {
    uintptr_t expected = 0;
    // Ordering: acq_rel on success. The acquire half pairs with the releasing CAS
    // (head -> 0) of the previous fast-path holder, so its critical section
    // happens-before ours; the release half publishes node->{start,end,reader,next,
    // sibling} (all written before this call, `next` relaxed) to the strip CAS that may
    // later convert this node into a regular list node — any thread that observes
    // MarkedWord(node) in the head with an acquire load sees them. Failure order
    // relaxed: a failed fast path learns nothing and retries through the list.
    return head_.load(std::memory_order_relaxed) == 0 &&
           head_.compare_exchange_strong(expected, MarkedWord(node),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed);
  }

  // Releases `node`. Wait-free: one fast-path CAS attempt (no loop) and at most one
  // fetch_add. The node must not be touched after this call — the instant it is marked,
  // a concurrent traversal may unlink it, retire it, and hand it to a new acquisition.
  void Release(LNode* node) {
    uintptr_t expected = MarkedWord(node);
    // Ordering: the relaxed probe is only an optimization — the CAS repeats the
    // comparison with full strength. Its release success order pairs with the acquire
    // side of whichever CAS next observes head == 0, ordering this holder's
    // critical-section writes before the next holder's reads; failure needs no
    // ordering because a failed probe just falls through to the marked release.
    if (head_.load(std::memory_order_relaxed) == expected &&
        head_.compare_exchange_strong(expected, 0, std::memory_order_release,
                                      std::memory_order_relaxed)) {
      // Eager removal (§4.5): nobody can still reference the node — converting it to a
      // regular node requires winning a CAS against the release we just performed.
      NodePool<LNode>::Local().Recycle(node);
      return;
    }
    node->next.fetch_add(kMarkBit, std::memory_order_release);
  }

  // Core of Listing 1: inserts `node` (start/end/reader set) at its sorted position
  // under `Order`, waiting out every conflicting holder. Must run inside an epoch
  // critical section on `rec`. Returns false only if `budget` was exhausted or the
  // deadline expired while a conflicting range was held; the node is then guaranteed
  // not to be in the list — waiters abort *before* insertion, so an abandoned
  // acquisition leaves nothing behind.
  template <typename Order>
  bool Insert(LNode* node, EpochDomain::ThreadRec* rec, const Deadline& deadline,
              AdmissionSpinner& gate_spinner, FailureBudget& budget) {
    for (;;) {
      std::atomic<uintptr_t>* prev = &head_;
      uintptr_t cur_word = prev->load(std::memory_order_acquire);
      bool at_head = true;
      for (;;) {
        if (IsMarked(cur_word)) {
          if (!at_head) {
            // prev's owner was logically deleted under us: the pointer into the list is
            // lost, restart from the head (Listing 1 line 32).
            if (budget.Exhausted()) {
              return false;
            }
            break;
          }
          // Marked head == a fast-path holder. Strip the mark to convert its node into a
          // regular list node (§4.5), then continue with the unmarked value. The node
          // is not dereferenced before the strip CAS succeeds — if its owner's
          // releasing CAS wins instead, the node may already be recycled.
          if (head_.compare_exchange_weak(cur_word, Unmark(cur_word),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
            cur_word = Unmark(cur_word);
          }
          continue;
        }
        LNode* cur = ToNode(cur_word);
        if (cur != nullptr) {
          const uintptr_t cur_next = cur->next.load(std::memory_order_acquire);
          if (IsMarked(cur_next)) {
            HelpUnlink(prev, &cur_word, Unmark(cur_next));
            continue;  // on CAS failure cur_word holds the fresh *prev
          }
          const int rel = Order::Compare(cur, node);
          if (rel < 0) {
            prev = &cur->next;
            cur_word = cur_next;
            at_head = false;
            continue;
          }
          if (rel == 0) {
            const WaitResult w = WaitForRelease(cur->next, rec, deadline, gate_spinner);
            if (w == WaitResult::kTimedOut) {
              return false;
            }
            if (w == WaitResult::kRestart) {
              break;  // left the epoch CS while waiting; restart from head
            }
            continue;  // cur is now marked; the unlink branch above collects it
          }
          // rel > 0: insert before cur.
        }
        // Publication pairing: the relaxed store of node->next is safe because no other
        // thread can reach `node` until the CAS below publishes it, and the CAS's
        // release half (seq_cst ⊇ release) orders the store — plus
        // node->{start,end,reader} — before any acquire load that observes
        // NodeWord(node) in *prev. Exclusive conflict detection needs no SeqCstFence
        // pairing: overlapping acquirers compete for the SAME insertion point, so
        // exclusion is decided by CAS success/failure on one location, not by two
        // threads each having to observe the other's independent store (the
        // store-buffering shape that forces the fence in list_rw_range_lock.h). seq_cst
        // on success makes every insertion participate in the RW lock's fence protocol,
        // and costs nothing extra on x86/ARM LL-SC versus acq_rel here.
        node->next.store(cur_word, std::memory_order_relaxed);
        if (prev->compare_exchange_strong(cur_word, NodeWord(node),
                                          std::memory_order_seq_cst,
                                          std::memory_order_acquire)) {
          return true;
        }
        if (budget.Exhausted()) {
          return false;
        }
        // Lost the race for this insertion point; cur_word holds the fresh *prev.
      }
    }
  }

  // Listing 1 lines 34–37: *cur_word (read from *prev) is a released node whose
  // successor is `succ`; try to unlink it. On success the node is retired and *cur_word
  // advances to `succ`; on failure *cur_word holds the fresh *prev.
  static bool HelpUnlink(std::atomic<uintptr_t>* prev, uintptr_t* cur_word,
                         uintptr_t succ) {
    if (prev->compare_exchange_strong(*cur_word, succ, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      NodePool<LNode>::Local().Retire(ToNode(*cur_word));
      *cur_word = succ;
      return true;
    }
    return false;
  }

  // Watches a conflicting node's next word until its owner releases it (marks it) or
  // the deadline expires. Once the bounded SpinWait watch is exhausted, briefly exits
  // the epoch critical section (so reclamation barriers are never blocked behind an
  // application critical section) and reports kRestart, telling the caller to
  // re-traverse. SpinWait's switch to yielding is the signal to stop watching; the
  // yield itself happens outside the critical section, through gate_spinner.Pause(),
  // which also rotates the admission slot — on an oversubscribed host the holder may
  // be preempted or parked at the gate, and re-traversing in a tight loop would just
  // burn our quantum. An immediate deadline never watches at all: the trylock contract
  // is to fail as soon as a wait would begin.
  static WaitResult WaitForRelease(const std::atomic<uintptr_t>& next,
                                   EpochDomain::ThreadRec* rec, const Deadline& deadline,
                                   AdmissionSpinner& gate_spinner) {
    if (deadline.IsImmediate()) {
      return IsMarked(next.load(std::memory_order_acquire)) ? WaitResult::kReleased
                                                            : WaitResult::kTimedOut;
    }
    SpinWait spin;
    for (int i = 0; !spin.Yielding(); ++i) {
      if (IsMarked(next.load(std::memory_order_acquire))) {
        return WaitResult::kReleased;
      }
      if ((i + 1) % Deadline::kSpinsPerClockCheck == 0 && deadline.Expired()) {
        return WaitResult::kTimedOut;
      }
      spin.Spin();
    }
    EpochDomain::Exit(rec);
    gate_spinner.Pause();
    EpochDomain::Enter(rec);
    return deadline.Expired() ? WaitResult::kTimedOut : WaitResult::kRestart;
  }

  // Test-only (callers must guarantee quiescence): calls f(node) for every held
  // (unmarked) node in list order. A marked head is a fast-path holder; ToNode strips
  // the mark to reach its node.
  template <typename F>
  void ForEachHeld(F&& f) const {
    for (const LNode* cur = ToNode(head_.load(std::memory_order_acquire)); cur != nullptr;
         cur = ToNode(cur->next.load(std::memory_order_acquire))) {
      if (!IsMarked(cur->next.load(std::memory_order_acquire))) {
        f(cur);
      }
    }
  }

 private:
  std::atomic<uintptr_t> head_{0};
};

}  // namespace srl

#endif  // SRL_CORE_HARRIS_LIST_H_
