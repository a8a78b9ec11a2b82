// Concurrency-restricting admission control for saturated locks.
//
// Every lock in this tree scales until it saturates and then collapses under
// oversubscription: with 1024 threads contending a resource that admits ~#cores of
// useful parallelism, the surplus threads burn scheduler quanta spinning and yielding,
// starving the very holders they wait for. The fix — from "Avoiding Scalability
// Collapse by Restricting Concurrency" (Dice & Kogan) — is to cap the number of
// *active* contenders at roughly the core count and divert the surplus onto a passive
// parking list: parked threads sleep on a futex and cost nothing, and each release
// culls one back to the active set, so the contention level at the lock itself never
// exceeds what the hardware can service.
//
// AdmissionGate is that cap. Design points:
//
//   * The cap is SOFT. Enter's fast path CASes `active_` below the cap; a release
//     that hands its slot to a culled waiter does fetch_sub + claim + fetch_add, and a
//     fast-path entry can slip into that window, transiently overshooting the cap by
//     the number of concurrent culls. Correctness never depends on the cap (the gated
//     lock provides exclusion); the cap only shapes contention, so a bounded
//     transient overshoot is the right trade against a hard cap's extra CAS loop.
//   * The parking list is one two-list queue: a lock-free Treiber push stack, drained
//     by a popper (serialized by a tiny spin lock, which makes pop ABA-free without
//     generation counters) that detaches the whole stack and reverses it into an
//     oldest-first batch, so culls are strictly FIFO. The concurrency-restriction
//     paper prefers LIFO (cache-warmest waiter next); that is safe for a mutex, where
//     a parked thread holds nothing, but here gated waiters queue range-lock nodes
//     that block later arrivals (FIFO admission), and a LIFO cull starves the oldest
//     parker — the one the whole conflict chain depends on — forever (see PopWaiter).
//   * No lost wakeups, by a Dekker-style seq_cst pair. Parker: push waiter, increment
//     `parked_count_` (seq_cst), re-read `active_` (seq_cst) and self-cull if a slot
//     freed meanwhile. Exiter: decrement `active_` (seq_cst), read `parked_count_`
//     (seq_cst) and cull if nonzero. In the seq_cst total order one of the two
//     observes the other, so a waiter can never sleep on a slot nobody will hand over
//     (tests/admission_test.cpp hammers exactly this race).
//   * Trylock bypass: an Immediate deadline never parks — Enter admits over the cap
//     and returns, so a trylock is never turned into a wait (the kernel-trylock rule).
//     Timed waiters park politely but poll their own state word and abandon it at the
//     deadline; an abandoned waiter node stays on the queue and is reaped by the next
//     popper (or the gate destructor).
//   * Waiter nodes are heap-allocated and reference-counted (waiter + queue/claimer),
//     because a claimer must be free to notify a waiter that may already have woken
//     spuriously and be about to return — the last reference frees the node, so the
//     notify never touches freed memory.
//
// AdmissionSpinner composes the gate with the Deadline/SpinWait wait-loop machinery:
// lock wait loops call Pause() where they used to call std::this_thread::yield()
// (outside any epoch critical section — a parked thread must never pin reclamation).
// Pause periodically rotates the admission slot: every kRotatePeriod-th pause with
// waiters parked, the holder exits the gate (culling the oldest waiter) and re-enters
// — possibly parking — before its next watch round. Eventual rotation plus FIFO culls
// is the liveness argument for chained acquisitions: if a parked thread holds
// resource A that every active spinner waits on, the spinners' own Pause calls cycle
// it back into the active set within a bounded number of rounds, so the parking list
// can never stall a dependency chain.
#ifndef SRL_SYNC_ADMISSION_H_
#define SRL_SYNC_ADMISSION_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <thread>

#include "src/sync/backoff.h"
#include "src/sync/cacheline.h"
#include "src/sync/deadline.h"
#include "src/sync/spin_lock.h"
#include "src/sync/spin_wait.h"
#include "src/sync/topology.h"

namespace srl {

class AdmissionGate {
 public:
  // cap == 0 derives the cap from the machine: one active contender per CPU (>= 1).
  explicit AdmissionGate(uint32_t cap = 0)
      : cap_(cap != 0 ? cap : Topology::Get().CpuCount()) {}

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  // Reaps abandoned (timed-out) waiter nodes still sitting on the queue. No waiter
  // may still be parked — destroying a gate out from under sleeping threads is a
  // caller bug, same contract as destroying a locked mutex.
  ~AdmissionGate() {
    while (Waiter* w = PopWaiter()) {
      assert(w->state.load(std::memory_order_relaxed) == kAbandoned &&
             "waiter still parked at gate destruction");
      DropRef(w);
    }
  }

  // Global kill switch, for measuring gated-vs-ungated in one binary
  // (bench/abl_oversub --gates=off). AdmissionSpinner checks it once, at construction,
  // and remembers the answer, so a toggle mid-flight can never unbalance Enter/Exit.
  static void SetGloballyEnabled(bool on) {
    globally_enabled_.store(on, std::memory_order_relaxed);
  }
  static bool GloballyEnabled() {
    return globally_enabled_.load(std::memory_order_relaxed);
  }

  // Admission. Returns true once admitted (the caller owns one active slot and must
  // Exit() it); false only for a timed deadline that expired before admission. An
  // immediate deadline admits over the cap — the trylock bypass rule.
  //
  // Saturation does NOT park immediately: a slot is often freed within a µs-scale
  // handoff, and turning every such handoff into a futex sleep+wake would cost more
  // than the contention it prevents. Enter therefore spins politely first
  // (spin-then-park): the SpinWait relax phase plus a few yields — enough for a
  // preempted holder to run and free a slot — and only a waiter that outlives that
  // patience is a genuine surplus worth parking.
  bool Enter(const Deadline& deadline) {
    uint32_t a = active_.load(std::memory_order_relaxed);
    // Audit (wait-loop unification): contended-CAS retry runs on Backoff, the shared
    // primitive, not a hand-rolled pause loop.
    Backoff backoff;
    while (a < cap_) {
      if (active_.compare_exchange_weak(a, a + 1, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
        return true;
      }
      backoff.Spin();
    }
    if (deadline.IsImmediate()) {
      active_.fetch_add(1, std::memory_order_acquire);
      return true;
    }
    // Patience phase. A timed deadline that expires here returns false without ever
    // parking (no park/timeout accounting — the node was never on a stack).
    SpinWait spin;
    unsigned yields = 0;
    for (;;) {
      a = active_.load(std::memory_order_relaxed);
      while (a < cap_) {
        if (active_.compare_exchange_weak(a, a + 1, std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
          return true;
        }
      }
      if (!deadline.IsInfinite() && deadline.Expired()) {
        return false;
      }
      if (spin.Yielding() && ++yields > kPatienceYields) {
        break;
      }
      spin.Spin();
    }
    return Park(deadline);
  }

  // Releases an active slot; if waiters are parked, hands the slot to the oldest.
  void Exit() {
    active_.fetch_sub(1, std::memory_order_seq_cst);
    if (parked_count_.load(std::memory_order_seq_cst) > 0) {
      CullOne();
    }
  }

  bool HasParked() const {
    return parked_count_.load(std::memory_order_relaxed) > 0;
  }

  uint32_t Cap() const { return cap_; }
  uint32_t Active() const { return active_.load(std::memory_order_relaxed); }

  // Counters for benches and tests.
  uint64_t Parks() const { return parks_.load(std::memory_order_relaxed); }
  uint64_t Culls() const { return culls_.load(std::memory_order_relaxed); }
  uint64_t Timeouts() const { return timeouts_.load(std::memory_order_relaxed); }

  // Process-wide totals across every gate instance, for benches that cannot reach the
  // private per-lock gates (bench/abl_oversub reports per-cell deltas of these).
  static uint64_t TotalParks() { return total_parks_.load(std::memory_order_relaxed); }
  static uint64_t TotalCulls() { return total_culls_.load(std::memory_order_relaxed); }

 private:
  // Yields tolerated after the SpinWait relax phase before a saturated Enter parks.
  // Small on purpose: under genuine oversubscription yields cycle the whole run queue
  // and parking quickly is the entire point; under light contention the relax phase
  // plus one or two yields is enough for a holder to exit.
  static constexpr unsigned kPatienceYields = 8;

  static constexpr uint32_t kParked = 0;     // waiting for a slot (futex word value)
  static constexpr uint32_t kClaimed = 1;    // slot handed over; waiter may proceed
  static constexpr uint32_t kAbandoned = 2;  // timed out; node awaits reaping

  struct Waiter {
    std::atomic<uint32_t> state{kParked};
    // Two logical owners: the waiting thread, and whoever holds the queue link (the
    // queue itself, then the popper that removes it). Last reference frees.
    std::atomic<int> refs{2};
    Waiter* next = nullptr;
  };

  static void DropRef(Waiter* w) {
    if (w->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete w;
    }
  }

  void PushWaiter(Waiter* w) {
    Waiter* t = top_.load(std::memory_order_relaxed);
    Backoff backoff;
    for (;;) {
      w->next = t;
      // Release publishes w->next (and the waiter's initialized fields) to the
      // popper, whose detaching exchange reads top_ with acquire.
      if (top_.compare_exchange_weak(t, w, std::memory_order_release,
                                     std::memory_order_relaxed)) {
        return;
      }
      backoff.Spin();
    }
  }

  // Pops the OLDEST parked waiter. Culls must be FIFO: under FIFO range admission a
  // parked waiter's inserted node blocks every later arrival, so a LIFO cull order
  // can starve the oldest waiter forever — the two most recent parkers ping-pong
  // through the rotation slot (each cull pops the waiter the previous rotation just
  // pushed) while the waiter the whole conflict chain depends on never surfaces. Push
  // stays a lock-free Treiber stack; the popper — serialized by pop_lock_ — detaches
  // the whole stack and reverses it into an oldest-first batch, draining that batch
  // before detaching again. No lock-free empty fast path on purpose: a stale null
  // read here would skip a cull with a waiter parked (a lost wakeup); the uncontended
  // pop_lock_ is cheap and CullOne only runs on the Exit slow path.
  Waiter* PopWaiter() {
    std::lock_guard<SpinLock> g(pop_lock_);
    Waiter* f = fifo_.load(std::memory_order_relaxed);
    if (f == nullptr) {
      Waiter* t = top_.exchange(nullptr, std::memory_order_acquire);
      while (t != nullptr) {
        // t->next is stable: the node is detached, and a push never rewrites an
        // already-linked node's next pointer.
        Waiter* next = t->next;
        t->next = f;
        f = t;
        t = next;
      }
      if (f == nullptr) {
        return nullptr;
      }
    }
    fifo_.store(f->next, std::memory_order_relaxed);
    return f;
  }

  // Pops parked waiters until one is successfully claimed (its slot is transferred
  // and it is woken) or the queue is dry. Abandoned nodes encountered on the way are
  // reaped. Returns whether a waiter was culled.
  bool CullOne() {
    while (Waiter* w = PopWaiter()) {
      uint32_t expected = kParked;
      if (w->state.compare_exchange_strong(expected, kClaimed, std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        parked_count_.fetch_sub(1, std::memory_order_seq_cst);
        // Transfer the slot on the waiter's behalf (see the soft-cap note above).
        active_.fetch_add(1, std::memory_order_relaxed);
        culls_.fetch_add(1, std::memory_order_relaxed);
        total_culls_.fetch_add(1, std::memory_order_relaxed);
        w->state.notify_one();
        DropRef(w);
        return true;
      }
      // Timed out while parked; reap and keep looking.
      DropRef(w);
    }
    return false;
  }

  bool Park(const Deadline& deadline) {
    Waiter* w = new Waiter;
    PushWaiter(w);
    parked_count_.fetch_add(1, std::memory_order_seq_cst);
    parks_.fetch_add(1, std::memory_order_relaxed);
    total_parks_.fetch_add(1, std::memory_order_relaxed);
    // Dekker re-check against a concurrent Exit: if a slot freed after our saturation
    // check but before our push became visible, the exiter may have seen
    // parked_count == 0 and culled nobody — so cull on its behalf (possibly waking
    // ourselves). The seq_cst ordering guarantees at least one side acts.
    if (active_.load(std::memory_order_seq_cst) < cap_) {
      CullOne();
    }
    if (deadline.IsInfinite()) {
      uint32_t s;
      while ((s = w->state.load(std::memory_order_acquire)) == kParked) {
        w->state.wait(kParked, std::memory_order_acquire);
      }
      assert(s == kClaimed);
      DropRef(w);
      return true;
    }
    // Timed park: std::atomic::wait has no timeout, so poll the state word (the same
    // spin-then-yield cadence as every timed wait in the tree) and abandon at expiry.
    DeadlineSpinner spinner(deadline);
    for (;;) {
      if (w->state.load(std::memory_order_acquire) == kClaimed) {
        DropRef(w);
        return true;
      }
      if (!spinner.SpinOrExpire()) {
        uint32_t expected = kParked;
        if (w->state.compare_exchange_strong(expected, kAbandoned,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
          parked_count_.fetch_sub(1, std::memory_order_seq_cst);
          timeouts_.fetch_add(1, std::memory_order_relaxed);
          DropRef(w);  // the queue's popper (or the destructor) frees the node
          return false;
        }
        // Claimed in the expiry window: the slot is ours after all.
        DropRef(w);
        return true;
      }
    }
  }

  static std::atomic<bool> globally_enabled_;
  static std::atomic<uint64_t> total_parks_;
  static std::atomic<uint64_t> total_culls_;

  const uint32_t cap_;
  std::atomic<uint32_t> active_{0};
  std::atomic<uint32_t> parked_count_{0};
  std::atomic<uint64_t> parks_{0};
  std::atomic<uint64_t> culls_{0};
  std::atomic<uint64_t> timeouts_{0};
  // The parking queue, on its own line away from the hot active_/parked_count_ pair.
  alignas(kCacheLineSize) std::atomic<Waiter*> top_{nullptr};  // push side, newest first
  // Oldest-first batch, refilled by reversing a detached push stack. Guarded by
  // pop_lock_ (atomic only so the destructor's reap loop can read it plainly).
  std::atomic<Waiter*> fifo_{nullptr};
  SpinLock pop_lock_;  // single popper: makes pop ABA-free
};

inline std::atomic<bool> AdmissionGate::globally_enabled_{true};
inline std::atomic<uint64_t> AdmissionGate::total_parks_{0};
inline std::atomic<uint64_t> AdmissionGate::total_culls_{0};

// Composes an AdmissionGate with a lock's watch/yield wait loop. One spinner lives on
// the stack of one acquisition; wait loops call Pause() exactly where they previously
// yielded between watch rounds — by contract OUTSIDE any epoch critical section, so a
// parked thread never pins reclamation. The admission slot, once entered, is held
// across the caller's subsequent re-traversal and released either by rotation (next
// Pause with waiters parked) or by the destructor when the acquisition completes.
//
// Timed and immediate deadlines bypass the gate entirely (Pause degenerates to the
// pre-gate yield): a trylock must not park, and a timed waiter's deadline bounds its
// wait more tightly than the gate's queueing ever could.
class AdmissionSpinner {
 public:
  AdmissionSpinner(AdmissionGate* gate, const Deadline& deadline)
      : gate_(gate != nullptr && deadline.IsInfinite() &&
                      AdmissionGate::GloballyEnabled()
                  ? gate
                  : nullptr) {}

  ~AdmissionSpinner() { Release(); }

  AdmissionSpinner(const AdmissionSpinner&) = delete;
  AdmissionSpinner& operator=(const AdmissionSpinner&) = delete;

  // One inter-round pause: periodically rotate the admission slot (exit — culling a
  // parked waiter — then re-enter, possibly parking), then cede the CPU exactly as
  // the pre-gate wait loops did. With the gate idle this is one relaxed load plus the
  // original yield.
  //
  // Rotation is deliberately RARE (every kRotatePeriod-th pause with waiters parked):
  // concurrency restriction only pays if the parked surplus actually stays parked —
  // rotating every round would turn each watch iteration into a futex sleep+wake pair
  // and hand the oversubscription cost right back. The period only bounds how long a
  // parked thread that others depend on can stay parked; correctness needs rotation
  // to be eventual, not frequent.
  void Pause() {
    if (gate_ != nullptr) {
      if (holding_ && gate_->HasParked() && ++pauses_with_parked_ >= kRotatePeriod) {
        pauses_with_parked_ = 0;
        gate_->Exit();
        holding_ = false;
      }
      if (!holding_) {
        gate_->Enter(Deadline::Infinite());
        holding_ = true;
      }
    }
    std::this_thread::yield();
  }

  // Drops the admission slot early (acquisition succeeded or was abandoned). Safe to
  // call repeatedly; also run by the destructor.
  void Release() {
    if (holding_) {
      gate_->Exit();
      holding_ = false;
    }
  }

 private:
  // Pauses observed with waiters parked before the held slot is rotated to one of
  // them. Long enough that a parked thread sleeps through whole watch phases, short
  // enough that chained acquisitions (one waiter's progress gated on another parked
  // thread's next step) unwedge within tens of microseconds.
  static constexpr uint32_t kRotatePeriod = 64;

  AdmissionGate* gate_;
  bool holding_ = false;
  uint32_t pauses_with_parked_ = 0;
};

}  // namespace srl

#endif  // SRL_SYNC_ADMISSION_H_
